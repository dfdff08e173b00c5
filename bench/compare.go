package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare judges by.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads every run record (*.json) in dir, keyed by workload and
// ordered by seed.
func loadRecords(dir string) (map[string][]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// values returns metric name's value from every untraced record.
func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Trace {
			continue
		}
		m, _ := r.Result["metrics"].(map[string]any)
		v, _ := m[name].(map[string]any)
		if x, ok := v["value"].(float64); ok {
			out = append(out, x)
		}
	}
	return out
}

func summarise(xs []float64) (med, q1, q3 float64) {
	c := append([]float64(nil), xs...)
	q1, q3 = quartiles(c)
	return median(c), q1, q3
}

// verdict judges b (the change) against a (the parent), pairing runs in
// order. A gain needs at least ten pairs, nine tenths of them won and the
// medians apart by more than a's interquartile range; a median worse by
// more than the bound is a regression, unless a's own spread is wider than
// the bound, which leaves the metric unresolved.
func verdict(a, b []float64, better string, bound float64) string {
	ma, q1, q3 := summarise(a)
	mb, _, _ := summarise(b)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	worse := -sign * (mb - ma) / math.Abs(ma)
	switch {
	case n >= 10 && 10*wins >= 9*n && math.Abs(mb-ma) > q3-q1:
		return "improved"
	case (q3-q1)/math.Abs(ma) > bound && !allBetter:
		return "unresolved"
	case worse > bound:
		return "regressed"
	default:
		return "no change"
	}
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	a := fs.String("a", "", "directory of parent run records")
	b := fs.String("b", "", "directory of change run records")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil || *a == "" || *b == "" {
		fmt.Fprintln(os.Stderr, "usage: bench compare -a <dir> -b <dir> [-benchmark BENCHMARK.json]")
		return 2
	}
	var sp spec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	ra, errA := loadRecords(*a)
	rb, errB := loadRecords(*b)
	for _, e := range []error{err, errA, errB} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", e)
			return 2
		}
	}
	regressed := false
	fmt.Printf("%-14s %-20s %-34s %-34s %8s  %s\n", "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "delta", "verdict")
	for _, wl := range workloads {
		if len(ra[wl.name]) == 0 && len(rb[wl.name]) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra[wl.name], m.Name), values(rb[wl.name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-20s missing (%d vs %d runs)\n", wl.name, m.Name, len(va), len(vb))
				continue
			}
			ma, a1, a3 := summarise(va)
			mb, b1, b3 := summarise(vb)
			v := verdict(va, vb, m.Better, m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Printf("%-14s %-20s %-34s %-34s %+7.2f%%  %s\n", wl.name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", ma, a1, a3), fmt.Sprintf("%.6g [%.6g, %.6g]", mb, b1, b3),
				100*(mb-ma)/math.Abs(ma), v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// collectMain bundles a directory of run records with the machine they ran
// on into one trajectory file.
func collectMain(args []string) int {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory of run records")
	out := fs.String("out", "", "trajectory file to write")
	if err := fs.Parse(args); err != nil || *dir == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: bench collect -dir <dir> -out <file>")
		return 2
	}
	recs, err := loadRecords(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench collect: %v\n", err)
		return 2
	}
	var runs []record
	summary := map[string]map[string]float64{}
	for _, wl := range workloads {
		rs := recs[wl.name]
		runs = append(runs, rs...)
		if len(rs) == 0 {
			continue
		}
		summary[wl.name] = map[string]float64{}
		for _, d := range endToEnd {
			if v := values(rs, d.name); len(v) > 0 {
				summary[wl.name][d.name] = median(v)
			}
		}
	}
	doc := map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"summary":    summary,
		"runs":       runs,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench collect: %v\n", err)
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
