package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"dbiopt/internal/racetag"
)

// small shrinks a workload so that a whole run takes well under a second.
func small(wl workload) workload {
	wl.sessions = min(wl.sessions, 8)
	wl.rounds = min(wl.rounds, 8)
	wl.batchFrames = min(wl.batchFrames, 16)
	wl.roundMsgs = min(wl.roundMsgs, 100)
	return wl
}

func smallOpts(traced bool) runOpts {
	return runOpts{
		seconds: 200 * time.Millisecond, trace: traced,
		setupReps: 2, setupProbe: time.Millisecond, roundProbe: time.Millisecond,
		rungReps: 1, rungMinBeats: 1, rungMaxBeats: 1 << 12, rttCalls: 20,
	}
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for _, c := range []struct {
		declared map[string]string
		defs     []metricDef
	}{{e2e, endToEnd}, {layers, perLayer()}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, the program reports %d", len(c.declared), len(c.defs))
		}
		for _, d := range c.defs {
			if unit, ok := c.declared[d.name]; !ok || unit != d.unit {
				t.Errorf("metric %s (%s): BENCHMARK.json has unit %q (declared %v)", d.name, d.unit, unit, ok)
			}
		}
	}
}

// TestWorkloads runs every workload at tiny counts, untraced and traced,
// and requires a clean oracle pass and every declared metric.
func TestWorkloads(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl.name
			want := e2e
			if traced {
				name += "/traced"
				want = layers
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(small(wl), 1, smallOpts(traced))
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || len(rep.errs) != 0 {
					t.Fatalf("%d of %d messages failed: %v", rep.failed, rep.attempted, rep.errs)
				}
				for m := range want {
					if _, ok := rep.metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
			})
		}
	}
}

// TestSameSeedSameOutput: the coded ratios and the served-reply digest of
// the correctness phase depend on the seed alone.
func TestSameSeedSameOutput(t *testing.T) {
	for _, wl := range workloads {
		a, err := run(small(wl), 7, smallOpts(false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(small(wl), 7, smallOpts(false))
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: served-reply digests %016x and %016x differ", wl.name, a.digest, b.digest)
		}
		for _, m := range []string{"toggles_coded_ratio", "zeros_coded_ratio"} {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("%s: %s %v and %v differ", wl.name, m, a.metrics[m], b.metrics[m])
			}
		}
		c, err := run(small(wl), 8, smallOpts(false))
		if err != nil {
			t.Fatal(err)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 served identical replies", wl.name)
		}
	}
}

// TestOracleCatchesMismatch corrupts one expected reply and requires the
// correctness phase to count exactly that reply as failed.
func TestOracleCatchesMismatch(t *testing.T) {
	wl := small(workloads[1])
	plans := make([]*connPlan, conns)
	for i := range plans {
		p, err := wl.plan(1, i)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	bad := &plans[1].warm[len(plans[1].warm)/2]
	bad.want = append([]byte(nil), bad.want...)
	bad.want[0] ^= 1
	s, st, err := start(wl, plans, make([]*tracer, conns))
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if st.failed != 0 {
		t.Fatalf("opens failed: %v", st.firstErr)
	}
	warm := s.each(func(c *benchConn) phase {
		return phase{msgs: c.plan.warm, window: wl.window, check: true}
	})
	if warm.failed != 1 {
		t.Fatalf("%d replies failed, want exactly the corrupted one: %v", warm.failed, warm.firstErr)
	}
}

// TestSendZeroAlloc: the driver's send path allocates nothing per message.
func TestSendZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector allocates")
	}
	const n = 1000
	wr := &writer{
		w:       bufio.NewWriter(io.Discard),
		sem:     make(chan struct{}, 2*n),
		low:     make(chan struct{}, 1),
		abort:   make(chan struct{}),
		ring:    make([]inflight, 2*n),
		base:    time.Now(),
		sampled: -1,
	}
	m := &msg{typ: msgFrame, body: make([]byte, 1024), reply: repMasks}
	sid := uint64(1 << 20)
	if a := testing.AllocsPerRun(n, func() {
		if err := wr.send(m, sid); err != nil {
			t.Fatal(err)
		}
		sid++
	}); a != 0 {
		t.Fatalf("send allocates %v times per message", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	for v := int64(1); v <= 100000; v++ {
		h.observe(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1e8
		if got := h.quantile(q); got < want*0.995 || got > want*1.005 {
			t.Errorf("quantile(%v) = %v, want %v within 0.5%%", q, got, want)
		}
	}
}

// TestReferenceSpeed: the time metrics are medians over rounds, each
// scaled to the reference probe speed, so a round measured while the
// machine ran at half speed counts as if it had run at full speed.
func TestReferenceSpeed(t *testing.T) {
	m := &measurement{rounds: []round{
		{sec: 1, bursts: 1000, p50: 2000, p99: 4000, speed: refSpeed},
		{sec: 2, bursts: 1000, p50: 4000, p99: 8000, speed: refSpeed / 2},
		{sec: 1, bursts: 900, p50: 3000, p99: 5000, speed: refSpeed},
	}}
	if bps := m.burstsPerSec(); bps != 1000 {
		t.Errorf("burstsPerSec = %v, want 1000", bps)
	}
	if p50 := m.latencyUs(func(r round) float64 { return r.p50 }); p50 != 2 {
		t.Errorf("p50 = %v us, want 2", p50)
	}
	if p99 := m.latencyUs(func(r round) float64 { return r.p99 }); p99 != 4 {
		t.Errorf("p99 = %v us, want 4", p99)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := make([]float64, len(base))
	faster := make([]float64, len(base))
	for i, v := range base {
		slower[i], faster[i] = v*0.8, v*1.2
	}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{base, base, "no change"},
		{base, slower, "regressed"},
		{base, faster, "improved"},
		{[]float64{50, 150, 100, 60, 140}, base, "unresolved"},
	} {
		if got := verdict(c.a, c.b, "higher", 0.1); got != c.want {
			t.Errorf("verdict(%v, %v) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}
