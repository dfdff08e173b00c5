package dbi

import (
	"fmt"
	"math/rand"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/racetag"
)

// fastPathEncoders returns one registry-constructed instance of every
// registered scheme at representative weights, keyed by registered name —
// except the EncodeInto-only third-party probe, left out by name because
// it has no fast path to pin. EXHAUSTIVE is included: it is slow, not
// allocating.
func fastPathEncoders(t testing.TB) map[string]Encoder {
	t.Helper()
	out := make(map[string]Encoder)
	for _, name := range Names() {
		if name == thirdPartyName {
			continue
		}
		w := FixedWeights
		switch name {
		case "OPT", "GREEDY":
			w = Weights{Alpha: 0.4, Beta: 0.6}
		case "QUANTISED":
			w = Weights{Alpha: 3, Beta: 5}
		}
		enc, err := Lookup(name, w)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		out[name] = enc
	}
	return out
}

// TestStreamTransmitZeroAlloc is the tentpole guarantee: once a stream's
// scratch has warmed up, Transmit performs zero heap allocations per burst
// for every scheme with a fast path.
func TestStreamTransmitZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("race instrumentation forces stack scratch to the heap")
	}
	rng := rand.New(rand.NewSource(60))
	workload := make([]bus.Burst, 32)
	for i := range workload {
		workload[i] = randomBurst(rng, 8)
	}
	for name, enc := range fastPathEncoders(t) {
		t.Run(name, func(t *testing.T) {
			st := NewStream(enc)
			// Warm the scratch: first bursts grow the buffers.
			for _, b := range workload {
				st.Transmit(b)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				st.Transmit(workload[i%len(workload)])
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state Transmit allocates %.2f times per burst, want 0", allocs)
			}
		})
	}
}

// TestEncodeIntoZeroAlloc pins the same property one layer down: EncodeInto
// with a capacious dst allocates nothing for bursts within the stack-scratch
// bound.
func TestEncodeIntoZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("race instrumentation forces stack scratch to the heap")
	}
	rng := rand.New(rand.NewSource(61))
	workload := make([]bus.Burst, 32)
	for i := range workload {
		workload[i] = randomBurst(rng, 8)
	}
	for name, enc := range fastPathEncoders(t) {
		t.Run(name, func(t *testing.T) {
			inv := make([]bool, 0, 8)
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				inv = enc.EncodeInto(inv[:0], bus.InitialLineState, workload[i%len(workload)])
				i++
			})
			if allocs != 0 {
				t.Errorf("EncodeInto allocates %.2f times per burst, want 0", allocs)
			}
		})
	}
}

// TestPipelineChunkZeroAlloc asserts the pipeline's per-chunk encode work —
// what a shard worker does with a received chunk — allocates nothing per
// burst: the per-lane streams carry all the scratch.
func TestPipelineChunkZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("race instrumentation forces stack scratch to the heap")
	}
	const lanes, chunkFrames = 4, 16
	rng := rand.New(rand.NewSource(62))
	chunk := make([]bus.Frame, chunkFrames)
	for i := range chunk {
		f := bus.NewFrame(lanes, 8)
		for l := range f {
			copy(f[l], randomBurst(rng, 8))
		}
		chunk[i] = f
	}
	for name, enc := range fastPathEncoders(t) {
		if name == "EXHAUSTIVE" {
			continue // correct but far too slow for a chunk-sized AllocsPerRun
		}
		t.Run(name, func(t *testing.T) {
			streams := make([]*Stream, lanes)
			for i := range streams {
				streams[i] = NewStream(enc)
			}
			drain := func() {
				for _, f := range chunk {
					for i := 0; i < lanes; i++ {
						streams[i].Transmit(f[i])
					}
				}
			}
			drain() // warm the scratch
			if allocs := testing.AllocsPerRun(20, drain); allocs != 0 {
				t.Errorf("chunk drain allocates %.2f times per chunk, want 0", allocs)
			}
		})
	}
}

// TestPipelineRunAllocsAmortised runs the whole pipeline (producer, chunk
// recycling, workers) over sources of very different lengths and checks the
// total allocation count does not grow with the frame count: everything per
// burst and per chunk is recycled, leaving only per-run setup.
func TestPipelineRunAllocsAmortised(t *testing.T) {
	if racetag.Enabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const lanes = 4
	mkFrames := func(frames int) []bus.Frame {
		fs := make([]bus.Frame, frames)
		rng := rand.New(rand.NewSource(63))
		for i := range fs {
			f := bus.NewFrame(lanes, 8)
			for l := range f {
				copy(f[l], randomBurst(rng, 8))
			}
			fs[i] = f
		}
		return fs
	}
	enc, err := Lookup("OPT-FIXED", FixedWeights)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(enc, lanes, WithWorkers(2), WithChunkFrames(8))
	// The frames are built once outside the measurement; only the cheap
	// FrameSource wrapper is constructed per run, so AllocsPerRun's warm-up
	// call (which drains a one-shot source) gets its own fresh source and
	// the measured run processes every frame — asserted via res.Frames.
	runAllocs := func(fs []bus.Frame) float64 {
		return testing.AllocsPerRun(1, func() {
			res, err := p.Run(FramesOf(fs))
			if err != nil {
				t.Fatal(err)
			}
			if res.Frames != len(fs) {
				t.Fatalf("measured run consumed %d frames, want %d", res.Frames, len(fs))
			}
		})
	}
	small := runAllocs(mkFrames(64))
	large := runAllocs(mkFrames(1024))
	// 16x the frames must cost far less than 16x the allocations; allow a
	// generous fixed budget for scheduling noise.
	if large > small*4+200 {
		t.Errorf("pipeline allocations scale with frames: %d frames -> %.0f allocs, %d frames -> %.0f allocs",
			64, small, 1024, large)
	}
}

// TestRegistryRoundTrip: every registered built-in constructs through
// Lookup and encodes bit-for-bit like its directly-constructed twin, so
// name-based and literal construction are interchangeable.
func TestRegistryRoundTrip(t *testing.T) {
	w := Weights{Alpha: 0.4, Beta: 0.6}
	qw, err := QuantizeWeights(Weights{Alpha: 3, Beta: 5})
	if err != nil {
		t.Fatal(err)
	}
	twins := map[string]Encoder{
		"RAW":        Raw{},
		"DC":         DC{},
		"AC":         AC{},
		"ACDC":       ACDC{},
		"GREEDY":     Greedy{Weights: w},
		"OPT":        Opt{Weights: w},
		"OPT-FIXED":  OptFixed(),
		"QUANTISED":  qw,
		"EXHAUSTIVE": Exhaustive{Weights: w},
	}
	// Check exactly the built-ins: other tests may have appended custom
	// registrations to the process-global registry.
	builtins := []string{"RAW", "DC", "AC", "ACDC", "GREEDY", "OPT", "OPT-FIXED", "QUANTISED", "EXHAUSTIVE"}
	if len(twins) != len(builtins) {
		t.Fatalf("twin table covers %d schemes, built-ins are %d (%v)", len(twins), len(builtins), builtins)
	}
	rng := rand.New(rand.NewSource(64))
	for _, name := range builtins {
		twin, ok := twins[name]
		if !ok {
			t.Errorf("no twin for registered scheme %q", name)
			continue
		}
		lookupW := w
		if name == "QUANTISED" {
			lookupW = Weights{Alpha: 3, Beta: 5}
		}
		enc, err := Lookup(name, lookupW)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if enc.Name() != twin.Name() {
			t.Errorf("%s: registry name %q != twin name %q", name, enc.Name(), twin.Name())
		}
		for trial := 0; trial < 50; trial++ {
			b := randomBurst(rng, 1+rng.Intn(10))
			prev := randomState(rng)
			got := enc.Encode(prev, b)
			want := twin.Encode(prev, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: registry and literal encoders diverge on %v at beat %d", name, b, i)
				}
			}
		}
	}
}

// TestRegistryErrors covers the failure surface: unknown names, invalid
// weights for weighted schemes, and weight-free schemes ignoring weights.
func TestRegistryErrors(t *testing.T) {
	if _, err := Lookup("BOGUS", FixedWeights); err == nil {
		t.Error("unknown scheme accepted")
	}
	for _, name := range []string{"GREEDY", "OPT", "QUANTISED", "EXHAUSTIVE"} {
		if _, err := Lookup(name, Weights{}); err == nil {
			t.Errorf("Lookup(%q) accepted zero weights", name)
		}
	}
	for _, name := range []string{"RAW", "DC", "AC", "ACDC", "OPT-FIXED"} {
		if _, err := Lookup(name, Weights{Alpha: -1}); err != nil {
			t.Errorf("weight-free Lookup(%q) rejected ignored weights: %v", name, err)
		}
	}
}

// TestRegisterCustomScheme: an external registration is constructible and
// listed after the built-ins; duplicate and empty names panic.
func TestRegisterCustomScheme(t *testing.T) {
	name := fmt.Sprintf("TEST-CUSTOM-%d", len(Names()))
	Register(name, func(w Weights) (Encoder, error) { return Raw{}, nil })
	enc, err := Lookup(name, FixedWeights)
	if err != nil {
		t.Fatalf("custom scheme not constructible: %v", err)
	}
	if enc.Name() != "RAW" {
		t.Errorf("custom factory returned %q", enc.Name())
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Errorf("custom scheme missing from Names(): %v", Names())
	}
	mustPanic := func(what string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", what)
			}
		}()
		f()
	}
	mustPanic("duplicate name", func() { Register(name, func(Weights) (Encoder, error) { return Raw{}, nil }) })
	mustPanic("empty name", func() { Register("", func(Weights) (Encoder, error) { return Raw{}, nil }) })
	mustPanic("nil factory", func() { Register("TEST-NIL-FACTORY", nil) })
}

// TestEncodeIntoAppendSemantics: EncodeInto must append — preserving an
// existing prefix — and match Encode exactly for every scheme, including the
// EncodeInto-only third-party probe.
func TestEncodeIntoAppendSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	encoders := append(allEncoders(), thirdParty{})
	twins := append(allEncoders(), thirdParty{})
	for k, enc := range encoders {
		for trial := 0; trial < 30; trial++ {
			b := randomBurst(rng, rng.Intn(9))
			prev := randomState(rng)
			prefix := []bool{true, false, true}
			got := enc.EncodeInto(append([]bool(nil), prefix...), prev, b)
			if len(got) != len(prefix)+len(b) {
				t.Fatalf("%s: EncodeInto returned %d flags for %d beats after a %d prefix",
					enc.Name(), len(got), len(b), len(prefix))
			}
			for i, f := range prefix {
				if got[i] != f {
					t.Fatalf("%s: prefix clobbered at %d", enc.Name(), i)
				}
			}
			want := twins[k].Encode(prev, b)
			for i := range want {
				if got[len(prefix)+i] != want[i] {
					t.Fatalf("%s: EncodeInto decisions diverge from Encode on %v at beat %d", enc.Name(), b, i)
				}
			}
		}
	}
}

// TestOptLongBurstPooledScratch drives the optimal encoders past the
// stack-scratch bound so the pooled path runs, and cross-checks against the
// greedy-free exhaustive property: cost must still match Exhaustive on a
// prefix-checkable length and self-consistency holds on long bursts.
func TestOptLongBurstPooledScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	w := Weights{Alpha: 0.7, Beta: 0.3}
	opt := Opt{Weights: w}
	q, err := QuantizeWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		n := maxStackBeats + 1 + rng.Intn(64)
		b := randomBurst(rng, n)
		prev := randomState(rng)
		// Encode twice (second run reuses the pooled scratch) — decisions
		// must be identical, and greedy must never beat the optimum.
		first := opt.Encode(prev, b)
		second := opt.Encode(prev, b)
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("pooled scratch changed decisions at beat %d of %d", i, n)
			}
		}
		oc := w.Cost(bus.Apply(b, first).Cost(prev))
		gc := w.Cost(CostOf(Greedy{Weights: w}, prev, b))
		if oc > gc+1e-9 {
			t.Fatalf("n=%d: pooled Opt (%g) worse than greedy (%g)", n, oc, gc)
		}
		qv := q.Encode(prev, b)
		if len(qv) != n {
			t.Fatalf("quantised long-burst encode returned %d flags for %d beats", len(qv), n)
		}
	}
}
