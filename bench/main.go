// Command bench is the repository benchmark: it serves each workload from an
// in-process server over loopback TCP to a closed-loop, pipelined protocol-v3
// driver, checks every correctness-phase reply against an offline oracle,
// and prints the end-to-end metrics (or, traced, the per-layer ones). See
// README.md in this directory.
//
//	bash bench/run.sh --workload frame-small --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh compare -a <dir> -b <dir>
//	bash bench/run.sh collect -dir <dir> -out <file>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "collect":
			os.Exit(collectMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// record is one run as -json writes it and compare and collect read it.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Result   map[string]any `json:"result"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the run record to this file")
	spans := fs.String("spans", "", "traced runs write spans here (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of frame-small, frame-wide, batch-trace, session-churn), -seconds >= 1, -trace 0|1: %v\n", err)
		return 2
	}
	o := defaultOpts(*seconds, *traced == 1)
	if o.trace {
		o.spans = *spans
		if o.spans == "" {
			o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", wl.name, *seed))
		}
	}
	rep, err := run(wl, *seed, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		units[d.name] = d.unit
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", wl.name, *seed, *seconds, *traced)
	for _, l := range rep.notes {
		fmt.Println(l)
	}
	for _, l := range rep.lines(units) {
		fmt.Println(l)
	}
	fmt.Printf("error_ratio %.6g (%d failed of %d messages)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "bench: %v\n", e)
	}
	res := rep.result(defs)
	if *jsonOut != "" {
		b, err := json.MarshalIndent(record{Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: o.trace, Result: res}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed != 0 {
		return 1
	}
	return 0
}
