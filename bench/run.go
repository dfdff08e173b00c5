package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dbiopt/internal/bus"
	"dbiopt/internal/server"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, printed by an
// untraced run; perLayer are the traced run's per-layer metrics. Both lists
// are mirrored, with directions and bounds, in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"bursts_per_s", "1/s"},
	{"msg_p50_us", "us"},
	{"msg_p99_us", "us"},
	{"heap_live_mb", "MB"},
	{"toggles_coded_ratio", "ratio"},
	{"zeros_coded_ratio", "ratio"},
}

func perLayer() []metricDef {
	defs := []metricDef{{"dbi.kernel_advance_ns_per_burst", "ns"}}
	for _, l := range staticLabels {
		defs = append(defs, metricDef{"dbi.kernel_batch_ns_per_burst." + l, "ns"})
	}
	return append(defs,
		metricDef{"dbi.stream_ns_per_burst", "ns"},
		metricDef{"dbi.laneset_batch_ns_per_burst", "ns"},
		metricDef{"adapt.stream_ns_per_burst", "ns"},
		metricDef{"adapt.switches_per_kburst", "1/kburst"},
		metricDef{"trace.decode_ns_per_burst", "ns"},
		metricDef{"trace.decode_allocs_per_batch", "count"},
		metricDef{"dbi.pipeline_ns_per_burst", "ns"},
		metricDef{"dbi.pipeline_w1_ns_per_burst", "ns"},
		metricDef{"bus.plain_cost_ns_per_burst", "ns"},
		metricDef{"dbi.lookup_kernel_ns", "ns"},
		metricDef{"dbi.compile_ns", "ns"},
		metricDef{"server.open_p50_us", "us"},
		metricDef{"server.close_p50_us", "us"},
		metricDef{"server.frame_p50_us", "us"},
		metricDef{"server.encode_ns_per_burst", "ns"},
		metricDef{"server.encode_busy_ratio", "ratio"},
		metricDef{"server.alloc_bytes_per_burst", "B"},
		metricDef{"server.pipe_rtt_us", "us"},
		metricDef{"net.tcp_rtt_us", "us"},
		metricDef{"driver.window_full_ratio", "ratio"},
		metricDef{"driver.send_us_per_msg", "us"},
		metricDef{"server.frames", "count"},
		metricDef{"server.bursts", "count"},
		metricDef{"server.sessions_opened", "count"},
		metricDef{"trace_overhead_pct", "%"},
	)
}

// runOpts sizes one run. The defaults are the benchmark's; tests shrink them.
type runOpts struct {
	seconds      time.Duration // measured time
	trace        bool
	setupReps    int           // set-ups per run; setup_s is their median
	setupProbe   time.Duration // speed probe before each set-up
	roundProbe   time.Duration // speed probe after each measured round
	rungReps     int           // timed repetitions per offline rung
	rungMinBeats int           // beats encoded per rung repetition, at least
	rungMaxBeats int           // input beats per rung pass, at most
	rttCalls     int
	spans        string // where a traced run writes its spans
}

func defaultOpts(seconds int, traced bool) runOpts {
	return runOpts{
		seconds: time.Duration(seconds) * time.Second, trace: traced,
		setupReps: 25, setupProbe: 10 * time.Millisecond, roundProbe: 25 * time.Millisecond,
		rungReps: 5, rungMinBeats: 1 << 19, rungMaxBeats: 1 << 20, rttCalls: 2000,
	}
}

// report is the outcome of one run.
type report struct {
	attempted, failed int64
	errs              []error
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the result
	digest            uint64   // served-reply digest of the correctness phase
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.errs = append(r.errs, fmt.Errorf(format, args...))
	}
}

func (r *report) count(st *connStats) {
	r.attempted += st.sent
	r.failed += st.failed
	if st.firstErr != nil {
		r.errs = append(r.errs, st.firstErr)
	}
}

// served is a running server and the driver's connections to it.
type served struct {
	srv   *server.Server
	conns []*benchConn
	base  time.Time // spans and latencies are timed from here
}

func (s *served) close() {
	for _, c := range s.conns {
		c.nc.Close()
	}
	s.srv.Close() //nolint:errcheck // always nil
}

// each runs one phase per connection concurrently and merges what they saw.
func (s *served) each(mk func(c *benchConn) phase) *connStats {
	stats := make([]*connStats, len(s.conns))
	done := make(chan int, len(s.conns))
	for i, c := range s.conns {
		go func(i int, c *benchConn) {
			stats[i] = c.run(mk(c), s.base)
			done <- i
		}(i, c)
	}
	for range s.conns {
		<-done
	}
	all := &connStats{}
	for _, st := range stats {
		all.add(st)
	}
	return all
}

// start brings up a server, connects and opens the standing sessions.
func start(wl workload, plans []*connPlan, tr []*tracer) (*served, *connStats, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, err
	}
	s := &served{srv: srv, base: time.Now()}
	for i, p := range plans {
		c, err := dial(srv.Addr().String(), i, p, sessCfg{lanes: wl.lanes, beats: wl.beats})
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.conns = append(s.conns, c)
	}
	st := s.each(func(c *benchConn) phase {
		return phase{msgs: c.plan.opens, window: wl.window, check: true, tr: tr[c.id]}
	})
	return s, st, nil
}

// round is one measured round: both connections' traffic and the speed
// probe that followed it.
type round struct {
	sec      float64 // wall time of the traffic
	bursts   int64
	p50, p99 float64 // reply latency, ns
	speed    float64 // probe round trips per second
}

// atRef scales a rate measured at probe speed speed to the reference speed.
func atRef(rate, speed float64) float64 { return rate * refSpeed / speed }

// measurement is one measured phase and the server's and runtime's view of
// it.
type measurement struct {
	st           *connStats
	rounds       []round
	snap0, snap1 server.MetricsSnapshot
	allocBytes   uint64  // allocated during the rounds' traffic
	heapLive     uint64  // after the last round, every session still open
	trafficSec   float64 // the rounds' wall time, without the probes
}

// burstsPerSec is the median over rounds of the bursts answered per
// second, at the reference probe speed.
func (m *measurement) burstsPerSec() float64 {
	xs := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		xs[i] = atRef(float64(r.bursts)/r.sec, r.speed)
	}
	return median(xs)
}

// latencyUs is the median over rounds of the rounds' latency quantile q
// (p50 or p99), in µs at the reference probe speed.
func (m *measurement) latencyUs(q func(round) float64) float64 {
	xs := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		xs[i] = q(r) / 1e3 * r.speed / refSpeed
	}
	return median(xs)
}

// heapLive returns the bytes of live heap objects (HeapAlloc) after two
// collections, the second of which also empties the sync.Pool victim
// caches. Unlike HeapInuse it does not depend on how the live objects
// happen to be packed into spans.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure runs rounds of wl.roundMsgs messages per connection, each
// followed by the speed probe, until d has passed (at least one round).
// Between rounds nothing is in flight and every session stays open.
func (s *served) measure(wl workload, d time.Duration, probe *speedProbe, o runOpts, tr []*tracer) (*measurement, error) {
	m := &measurement{st: &connStats{}}
	var ms runtime.MemStats
	lats := make([]latHist, conns)
	m.snap0 = s.srv.Metrics().Snapshot()
	deadline := time.Now().Add(d)
	for k := int64(0); k == 0 || time.Now().Before(deadline); k++ {
		for i := range lats {
			lats[i] = latHist{}
		}
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		st := s.each(func(c *benchConn) phase {
			return phase{msgs: c.plan.ring, from: k * wl.roundMsgs, count: wl.roundMsgs, window: wl.window,
				stride: c.plan.stride, check: c.plan.stride != 0, lat: &lats[c.id], tr: tr[c.id]}
		})
		sec := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms)
		m.allocBytes += ms.TotalAlloc - alloc0
		m.trafficSec += sec
		m.st.add(st)
		for i := 1; i < len(lats); i++ {
			lats[0].merge(&lats[i])
		}
		speed, err := probe.speed(o.roundProbe)
		if err != nil {
			return nil, err
		}
		m.rounds = append(m.rounds, round{sec: sec, bursts: st.bursts,
			p50: lats[0].quantile(0.50), p99: lats[0].quantile(0.99), speed: speed})
	}
	m.snap1 = s.srv.Metrics().Snapshot()
	m.heapLive = heapLive()
	return m, nil
}

// checkSnapshot cross-checks the server's counters against what the driver
// sent: every frame and burst exactly once, every open accepted.
func (r *report) checkSnapshot(m *measurement) {
	d := func(a, b int64) int64 { return b - a }
	s0, s1 := m.snap0, m.snap1
	r.check(d(s0.Frames, s1.Frames) == m.st.frames, "server counted %d frames, driver sent %d", d(s0.Frames, s1.Frames), m.st.frames)
	r.check(d(s0.Bursts, s1.Bursts) == m.st.bursts, "server counted %d bursts, driver sent %d", d(s0.Bursts, s1.Bursts), m.st.bursts)
	r.check(d(s0.Accepted, s1.Accepted) == m.st.opens, "server counted %d opens, driver sent %d", d(s0.Accepted, s1.Accepted), m.st.opens)
	r.check(s1.Rejected == 0 && s1.BusyRejections == 0, "server rejected %d opens, %d busy", s1.Rejected, s1.BusyRejections)
}

// noteRounds prints what the rounds measured before scaling to the
// reference speed.
func (r *report) noteRounds(m *measurement) {
	var rates, p50s, p99s, speeds []float64
	for _, x := range m.rounds {
		rates = append(rates, float64(x.bursts)/x.sec)
		p50s = append(p50s, x.p50/1e3)
		p99s = append(p99s, x.p99/1e3)
		speeds = append(speeds, x.speed)
	}
	q := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
	}
	r.note("measured %d rounds: %d messages, %d bursts in %.3f s of traffic", len(m.rounds), m.st.sent, m.st.bursts, m.trafficSec)
	r.note("as measured, median [quartiles] over rounds: bursts/s %s, p50 us %s, p99 us %s", q(rates), q(p50s), q(p99s))
	r.note("speed probe, round trips/s: %s; reference %d", q(speeds), refSpeed)
}

// run executes one benchmark run of wl.
func run(wl workload, seed int64, o runOpts) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	plans := make([]*connPlan, conns)
	for i := range plans {
		p, err := wl.plan(seed, i)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	probe, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	untraced := make([]*tracer, conns)
	d := o.seconds
	if o.trace {
		d /= 2 // the other half is the traced rerun
	}

	// The heap before any server exists: heap_live_mb is what the server,
	// its sessions and the connections add to it.
	heap0 := heapLive()

	// Set-up, several times, each after a speed probe; the last one serves
	// the run.
	var s *served
	setups := make([]float64, o.setupReps)
	for i := range setups {
		if s != nil {
			s.close()
		}
		speed, err := probe.speed(o.setupProbe)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		var st *connStats
		s, st, err = start(wl, plans, untraced)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds() * speed / refSpeed
		rep.count(st)
	}
	rep.note("set-ups (s, at the reference speed): %.6f", setups)
	rep.metrics["setup_s"] = median(setups)

	// Correctness: every reply of the fixed warm-up against the oracle.
	warm := s.each(func(c *benchConn) phase {
		return phase{msgs: c.plan.warm, window: wl.window, check: true}
	})
	rep.count(warm)
	rep.digest = warm.digest
	// What the coding leaves of the raw wire activity, from the server's
	// own totals. Kept as coded ÷ raw, not saved = 1 − that, because a
	// zeros-first mix spends transitions and would make "saved" negative.
	fin := warm.final
	rep.metrics["toggles_coded_ratio"] = float64(fin.codedTrans) / float64(fin.rawTrans)
	rep.metrics["zeros_coded_ratio"] = float64(fin.codedZeros) / float64(fin.rawZeros)
	rep.note("oracle: %d correctness replies checked, %d mismatched; served-reply digest %016x", warm.sent, warm.failed, warm.digest)

	m, err := s.measure(wl, d, probe, o, untraced)
	s.close()
	if err != nil {
		return nil, err
	}
	rep.count(m.st)
	rep.checkSnapshot(m)
	rep.noteRounds(m)
	mb := rep.metrics
	bps := m.burstsPerSec()
	mb["bursts_per_s"] = bps
	mb["msg_p50_us"] = m.latencyUs(func(r round) float64 { return r.p50 })
	mb["msg_p99_us"] = m.latencyUs(func(r round) float64 { return r.p99 })
	mb["heap_live_mb"] = float64(int64(m.heapLive)-int64(heap0)) / (1 << 20)
	mb["server.alloc_bytes_per_burst"] = float64(m.allocBytes) / float64(m.st.bursts)
	if !o.trace {
		return rep, nil
	}
	encodeNs := float64(m.snap1.EncodeTime - m.snap0.EncodeTime)
	mb["server.encode_ns_per_burst"] = encodeNs / float64(m.snap1.Bursts-m.snap0.Bursts)
	mb["server.encode_busy_ratio"] = encodeNs / (m.trafficSec * 1e9 * float64(runtime.GOMAXPROCS(0)))
	mb["driver.window_full_ratio"] = m.st.blocked / m.st.writerNs
	mb["driver.send_us_per_msg"] = (m.st.writerNs - m.st.blocked) / float64(m.st.sent) / 1e3
	mb["server.frames"] = float64(m.snap1.Frames - m.snap0.Frames)
	mb["server.bursts"] = float64(m.snap1.Bursts - m.snap0.Bursts)
	mb["server.sessions_opened"] = float64(m.snap1.Accepted)

	// The traced rerun: the same set-up and traffic with spans recorded,
	// then every standing session closed.
	tracers := make([]*tracer, conns)
	for i := range tracers {
		tracers[i] = &tracer{conn: uint64(i)}
	}
	ts, st, err := start(wl, plans, tracers)
	if err != nil {
		return nil, err
	}
	rep.count(st)
	tm, err := ts.measure(wl, d, probe, o, tracers)
	if err != nil {
		ts.close()
		return nil, err
	}
	rep.count(tm.st)
	rep.count(ts.each(func(c *benchConn) phase {
		return phase{msgs: c.plan.closes, window: wl.window, tr: tracers[c.id]}
	}))
	ts.close()
	var open, closeH, encode latHist
	for _, t := range tracers {
		open.merge(&t.open)
		closeH.merge(&t.close)
		encode.merge(&t.encode)
	}
	mb["server.open_p50_us"] = open.quantile(0.5) / 1e3
	mb["server.close_p50_us"] = closeH.quantile(0.5) / 1e3
	mb["server.frame_p50_us"] = encode.quantile(0.5) / 1e3
	mb["trace_overhead_pct"] = 100 * (1 - tm.burstsPerSec()/bps)
	if o.spans != "" {
		if err := writeSpans(o.spans, tracers); err != nil {
			return nil, err
		}
		rep.note("spans written to %s", o.spans)
	}

	rg, err := newRungs(wl, plans, o)
	if err != nil {
		return nil, err
	}
	if err := rg.run(); err != nil {
		return nil, err
	}
	for k, v := range rg.out {
		mb[k] = v
	}
	first := plans[0].sessions[0]
	frame := make(bus.Frame, wl.lanes)
	for l := range frame {
		frame[l] = first.frames[0][l*wl.beats : (l+1)*wl.beats]
	}
	if mb["server.pipe_rtt_us"], err = roundTrip(true, first.cfg, frame, o.rttCalls); err != nil {
		return nil, err
	}
	if mb["net.tcp_rtt_us"], err = roundTrip(false, first.cfg, frame, o.rttCalls); err != nil {
		return nil, err
	}
	return rep, nil
}

// result renders the result object that ends the output: correctness,
// message counts and the metrics of defs with their units.
func (r *report) result(defs []metricDef) map[string]any {
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": r.metrics[d.name], "unit": d.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

// lines renders every metric the run measured, one per line, sorted.
func (r *report) lines(units map[string]string) []string {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, k := range names {
		out[i] = fmt.Sprintf("%-40s %.6g %s", k, r.metrics[k], units[k])
	}
	return out
}
