// bench_test.go holds one benchmark per table and figure of the paper's
// evaluation (the regeneration targets listed in DESIGN.md §4) plus
// micro-benchmarks of every encoder. The figure benches run the exact
// experiment pipeline on a reduced burst count; the unit tests in
// internal/experiments pin the *numbers*, these pin the *cost* of
// regenerating them.
package dbiopt_test

import (
	"fmt"
	"testing"

	"dbiopt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/experiments"
	"dbiopt/internal/hw"
	"dbiopt/internal/phy"
	"dbiopt/internal/trace"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Bursts = 500
	cfg.Steps = 20
	return cfg
}

// BenchmarkFig2 regenerates the worked example (per-scheme costs plus the
// exhaustive Pareto enumeration over all 256 patterns).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2()
		if len(r.Pareto) != 5 {
			b.Fatal("wrong pareto front")
		}
	}
}

// BenchmarkFig3 regenerates the energy-vs-alpha sweep for RAW/DC/AC/OPT.
func BenchmarkFig3(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 adds the fixed-coefficient series.
func BenchmarkFig4(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 runs the full synthesis-style estimation of the four
// hardware designs (netlist construction, STA, activity simulation).
func BenchmarkTable1(b *testing.B) {
	cfg := hw.DefaultSynthesisConfig()
	cfg.ActivityBursts = 200
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(8, cfg)
		if len(r.Reports) != 4 {
			b.Fatal("wrong report count")
		}
	}
}

// BenchmarkFig7 regenerates the normalised-energy-vs-data-rate sweep.
func BenchmarkFig7(b *testing.B) {
	cfg := experiments.DefaultRateSweepConfig()
	cfg.Config = benchConfig()
	cfg.StepRate = 2 * phy.Gbps
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the encoding-energy-inclusive sweep across load
// capacitances (the synthesis inputs are computed once, as in the paper).
func BenchmarkFig8(b *testing.B) {
	cfg := experiments.DefaultRateSweepConfig()
	cfg.Config = benchConfig()
	cfg.StepRate = 2 * phy.Gbps
	synthCfg := hw.DefaultSynthesisConfig()
	synthCfg.ActivityBursts = 200
	synth := experiments.Table1(8, synthCfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg, []float64{1, 3, 8}, synth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoeffBits regenerates the coefficient-width ablation
// (why 3-bit coefficients suffice).
func BenchmarkAblationCoeffBits(b *testing.B) {
	cfg := benchConfig()
	cfg.Bursts = 200
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CoefficientBitsAblation(cfg, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyGap regenerates the greedy-vs-optimal gap study.
func BenchmarkAblationGreedyGap(b *testing.B) {
	cfg := benchConfig()
	cfg.Bursts = 200
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GreedyGapAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBurstLength regenerates the burst-length scaling study.
func BenchmarkAblationBurstLength(b *testing.B) {
	cfg := benchConfig()
	cfg.Bursts = 200
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BurstLengthAblation(cfg, []int{2, 4, 8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetlistOptimize measures the logic-cleanup passes on the largest
// design.
func BenchmarkNetlistOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := hw.BuildOpt3Bit(8).Netlist
		if hw.Optimize(n).GateCount() == 0 {
			b.Fatal("optimizer destroyed the design")
		}
	}
}

// BenchmarkEncoders measures the per-burst cost of every registered coding
// scheme on the same random workload — the software-throughput view of
// Table I. It drives the steady-state EncodeInto path with a reused
// scratch buffer, so B/op is 0 for every scheme; the Encode convenience
// wrapper adds exactly one slice allocation on top of these numbers.
func BenchmarkEncoders(b *testing.B) {
	src := trace.NewUniform(1)
	workload := make([]bus.Burst, 1024)
	for i := range workload {
		workload[i] = src.Next(bus.BurstLength)
	}
	// The built-in schemes, pinned by name: dbi.Names() would also pick up
	// whatever the tests registered earlier in the same process (CI runs
	// tests and benchmarks in one `go test -bench` invocation).
	builtins := []string{"RAW", "DC", "AC", "ACDC", "GREEDY", "OPT", "OPT-FIXED", "QUANTISED", "EXHAUSTIVE"}
	for _, name := range builtins {
		w := dbi.FixedWeights
		if name == "QUANTISED" {
			w = dbi.Weights{Alpha: 3, Beta: 5}
		}
		enc, err := dbi.Lookup(name, w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var inv []bool
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inv = enc.EncodeInto(inv[:0], bus.InitialLineState, workload[i%len(workload)])
			}
		})
	}
}

// BenchmarkKernelEncode measures the compiled kernels' standalone cost path
// (Kernel.Advance) for every built-in scheme — the accounting step the
// adaptive shadow chains and the parallel cost drivers run per burst. The
// narrow 8-beat path stays in registers, so B/op is 0 for every scheme.
func BenchmarkKernelEncode(b *testing.B) {
	src := trace.NewUniform(9)
	workload := make([]dbiopt.Burst, 1024)
	for i := range workload {
		workload[i] = dbiopt.Burst(src.Next(dbiopt.BurstLength))
	}
	builtins := []string{"RAW", "DC", "AC", "ACDC", "GREEDY", "OPT", "OPT-FIXED", "QUANTISED", "EXHAUSTIVE"}
	for _, name := range builtins {
		w := dbi.FixedWeights
		if name == "QUANTISED" {
			w = dbi.Weights{Alpha: 3, Beta: 5}
		}
		kern, err := dbiopt.CompileScheme(name, w, dbiopt.Geometry{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			prev := dbiopt.InitialLineState
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, prev = kern.Advance(prev, workload[i%len(workload)])
			}
		})
	}
}

// BenchmarkCompile measures the one-time cost of the scheme compiler: what
// a consumer pays per distinct (scheme, weights, geometry) triple. The
// fresh sub-benchmark compiles an already-constructed encoder every
// iteration (the uncached worst case); cached hits the LookupKernel memo,
// the cost every consumer after the first actually sees.
func BenchmarkCompile(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		enc, err := dbi.Lookup("OPT", dbi.Weights{Alpha: 3, Beta: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dbi.CompileEncoder(enc, dbi.Geometry{}) == nil {
				b.Fatal("nil kernel")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, err := dbiopt.CompileScheme("OPT-FIXED", dbi.FixedWeights, dbiopt.Geometry{})
			if err != nil || k == nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStream measures streaming encoding through the public API, the
// steady-state path of a PHY.
func BenchmarkStream(b *testing.B) {
	src := trace.NewUniform(2)
	workload := make([]dbiopt.Burst, 1024)
	for i := range workload {
		workload[i] = dbiopt.Burst(src.Next(dbiopt.BurstLength))
	}
	st := dbiopt.NewStream(dbiopt.OptFixed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Transmit(workload[i%len(workload)])
	}
}

// BenchmarkAdaptiveStream measures the adaptive streaming path: the live
// encode plus one shadow encode per challenger plus the window accounting,
// on a phase-shifting workload. B/op must stay 0 — adaptation rides the
// same scratch-reuse discipline as the static stream (pinned by
// TestAdaptiveStreamZeroAlloc in internal/adapt).
func BenchmarkAdaptiveStream(b *testing.B) {
	src := trace.NewPhaseShift(512, trace.NewSparse(6, 0.10), trace.NewMarkov(7, 0.05))
	workload := make([]dbiopt.Burst, 2048)
	for i := range workload {
		workload[i] = dbiopt.Burst(src.Next(dbiopt.BurstLength))
	}
	st, err := dbiopt.NewAdaptiveStream(dbiopt.AdaptiveConfig{
		Candidates: []string{"DC", "AC", "OPT-FIXED"},
		Weights:    dbiopt.Weights{Alpha: 4, Beta: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Transmit(workload[i%len(workload)])
	}
}

// pipelineWorkload synthesises a fixed multi-lane trace for the pipeline
// benchmarks: enough frames that sharding overhead amortises, deterministic
// so serial and parallel runs see identical work.
func pipelineWorkload(lanes, frames int) []dbiopt.Frame {
	src := trace.NewUniform(5)
	out := make([]dbiopt.Frame, frames)
	for i := range out {
		f := make(dbiopt.Frame, lanes)
		for l := range f {
			f[l] = dbiopt.Burst(src.Next(dbiopt.BurstLength))
		}
		out[i] = f
	}
	return out
}

// BenchmarkLaneSet is the serial baseline the pipeline benchmarks compare
// against: one LaneSet replaying the same synthetic traces.
func BenchmarkLaneSet(b *testing.B) {
	for _, lanes := range []int{8, 16, 32} {
		const frames = 512
		workload := pipelineWorkload(lanes, frames)
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.SetBytes(int64(lanes * dbiopt.BurstLength * frames))
			for i := 0; i < b.N; i++ {
				ls := dbiopt.NewLaneSet(dbiopt.OptFixed(), lanes)
				for _, f := range workload {
					ls.Transmit(f)
				}
				if ls.TotalCost() == (dbiopt.Cost{}) {
					b.Fatal("no activity")
				}
			}
		})
	}
}

// BenchmarkLaneBatch compares the two frame-level encode paths on an
// 8-lane bus: serial (one Stream.Transmit per lane, wire images built) and
// batch (one LaneSet.TransmitBatch per frame — struct-of-arrays lanes,
// word-packed masks, no wire images). The batch path is the serving tier's
// frame loop; ns/burst is the per-lane figure to compare between the
// sub-benchmarks. The main set runs 64-beat bursts; OPT-FIXED also runs at
// the native 8 beats (beats=8), where the batch path must stay on the fused
// BL8 kernel — a fallback to the per-lane driver shows here as a step
// change. Both paths allocate nothing in steady state.
func BenchmarkLaneBatch(b *testing.B) {
	const lanes, frames = 8, 256
	workload := func(beats int) []dbiopt.Frame {
		src := trace.NewUniform(5)
		w := make([]dbiopt.Frame, frames)
		for i := range w {
			f := make(dbiopt.Frame, lanes)
			for l := range f {
				f[l] = dbiopt.Burst(src.Next(beats))
			}
			w[i] = f
		}
		return w
	}
	run := func(b *testing.B, enc dbiopt.Encoder, beats int, work []dbiopt.Frame) {
		b.Run("serial", func(b *testing.B) {
			ls := dbiopt.NewLaneSet(enc, lanes)
			b.SetBytes(int64(lanes * beats))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls.Transmit(work[i%frames])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/burst")
		})
		b.Run("batch", func(b *testing.B) {
			ls := dbiopt.NewLaneSet(enc, lanes)
			b.SetBytes(int64(lanes * beats))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls.TransmitBatch(work[i%frames])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/burst")
		})
	}
	wide := workload(64)
	for _, name := range []string{"DC", "ACDC", "GREEDY", "OPT-FIXED"} {
		enc, err := dbiopt.NewEncoder(name, dbiopt.Weights{Alpha: 1, Beta: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { run(b, enc, 64, wide) })
	}
	b.Run("OPT-FIXED/beats=8", func(b *testing.B) {
		run(b, dbiopt.OptFixed(), dbiopt.BurstLength, workload(dbiopt.BurstLength))
	})
}

// BenchmarkWideMask measures Stream.Transmit past the single-word mask
// bound, where the multi-word WideMask path keeps the encode mask-native
// (and, within MaxInlineWideBeats, allocation-free) instead of falling
// back to the per-beat []bool walk.
func BenchmarkWideMask(b *testing.B) {
	for _, name := range []string{"DC", "OPT-FIXED"} {
		enc, err := dbiopt.NewEncoder(name, dbiopt.Weights{Alpha: 1, Beta: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, beats := range []int{128, 256} {
			b.Run(fmt.Sprintf("%s/beats=%d", name, beats), func(b *testing.B) {
				src := trace.NewUniform(11)
				workload := make([]dbiopt.Burst, 256)
				for i := range workload {
					workload[i] = dbiopt.Burst(src.Next(beats))
				}
				st := dbiopt.NewStream(enc)
				b.SetBytes(int64(beats))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.Transmit(workload[i%len(workload)])
				}
			})
		}
	}
}

// BenchmarkPipeline measures the sharded streaming pipeline across lane and
// worker counts on the same workloads as BenchmarkLaneSet. With idle cores
// available, throughput scales near-linearly in workers until workers
// reaches the lane count (lanes are the sharding unit); compare
// lanes=32/workers=8 against BenchmarkLaneSet/lanes=32 for the headline
// speedup.
func BenchmarkPipeline(b *testing.B) {
	for _, lanes := range []int{8, 16, 32} {
		const frames = 512
		workload := pipelineWorkload(lanes, frames)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("lanes=%d/workers=%d", lanes, workers), func(b *testing.B) {
				p := dbiopt.NewPipeline(dbiopt.OptFixed(), lanes, dbiopt.WithWorkers(workers))
				b.SetBytes(int64(lanes * dbiopt.BurstLength * frames))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := p.Run(dbiopt.FramesOf(workload))
					if err != nil {
						b.Fatal(err)
					}
					if res.Total == (dbiopt.Cost{}) {
						b.Fatal("no activity")
					}
				}
			})
		}
	}
}

// startLoopbackServer boots a dbiserve instance on an ephemeral loopback
// port for the serving benchmarks.
func startLoopbackServer(b *testing.B) *dbiopt.Server {
	b.Helper()
	srv, err := dbiopt.Serve(dbiopt.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

// BenchmarkServeFrame is the loopback load generator for the single-frame
// serving path: one session streaming frames over TCP and reading back the
// inversion masks. The round trip includes both sides of the protocol, so
// B/op covers client serialisation, kernel crossings, and the server's
// steady-state encode (which itself allocates nothing per burst — pinned by
// TestServeFrameZeroAlloc in internal/server). ns_per_burst is the serving
// cost to compare against BenchmarkStream's offline number.
func BenchmarkServeFrame(b *testing.B) {
	for _, lanes := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			srv := startLoopbackServer(b)
			c, err := dbiopt.Dial(srv.Addr().String(), dbiopt.SessionConfig{
				Scheme: "OPT-FIXED", Lanes: lanes, Beats: dbiopt.BurstLength,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			workload := pipelineWorkload(lanes, 256)
			b.SetBytes(int64(lanes * dbiopt.BurstLength))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeFrame(workload[i%len(workload)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/burst")
		})
	}
}

// BenchmarkServeBatch measures the batched serving path: whole traces per
// message, parsed in place and encoded frame by frame on the connection
// goroutine through the session's lane set. This is the throughput shape a
// memory-trace processing service would run.
func BenchmarkServeBatch(b *testing.B) {
	const lanes, frames = 8, 256
	srv := startLoopbackServer(b)
	c, err := dbiopt.Dial(srv.Addr().String(), dbiopt.SessionConfig{
		Scheme: "OPT-FIXED", Lanes: lanes, Beats: dbiopt.BurstLength,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	workload := pipelineWorkload(lanes, frames)
	b.SetBytes(int64(lanes * dbiopt.BurstLength * frames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeBatch(workload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes*frames), "ns/burst")
}

// BenchmarkHardwareSim measures one gate-level evaluation of the Fig. 5
// fixed-coefficient netlist.
func BenchmarkHardwareSim(b *testing.B) {
	d := hw.BuildOptFixed(8)
	sim := hw.NewSimulator(d.Netlist)
	src := trace.NewUniform(3)
	workload := make([]bus.Burst, 256)
	for i := range workload {
		workload[i] = src.Next(8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encode(sim, bus.InitialLineState, workload[i%len(workload)])
	}
}
