package dbiopt

import (
	"fmt"
	"math/rand"
	"testing"

	"dbiopt/internal/trace"
)

// TestFacadeFig2 drives the paper's worked example purely through the
// public API.
func TestFacadeFig2(t *testing.T) {
	b := Burst{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}
	if c := CostOf(DC(), InitialLineState, b); c != (Cost{Zeros: 26, Transitions: 42}) {
		t.Errorf("DC = %+v", c)
	}
	if c := CostOf(AC(), InitialLineState, b); c != (Cost{Zeros: 43, Transitions: 22}) {
		t.Errorf("AC = %+v", c)
	}
	if c := CostOf(OptFixed(), InitialLineState, b); c.Zeros+c.Transitions != 52 {
		t.Errorf("OptFixed total = %d", c.Zeros+c.Transitions)
	}
	if front := ParetoFront(InitialLineState, b); len(front) != 5 {
		t.Errorf("pareto front = %v", front)
	}
}

// TestFacadeRoundTrip: decode(encode(x)) == x through the facade for all
// constructors.
func TestFacadeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	q, err := OptQuantized(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	encoders := []Encoder{Raw(), DC(), AC(), ACDC(), Greedy(Weights{Alpha: 1, Beta: 2}), Opt(Weights{Alpha: 1, Beta: 2}), OptFixed(), q}
	for _, enc := range encoders {
		for trial := 0; trial < 50; trial++ {
			b := make(Burst, 8)
			for i := range b {
				b[i] = byte(rng.Intn(256))
			}
			w := Encode(enc, InitialLineState, b)
			if got := Decode(w); !got.Equal(b) {
				t.Fatalf("%s: round trip failed", enc.Name())
			}
		}
	}
}

// TestFacadeLinkAndStream: end-to-end energy accounting via the facade.
func TestFacadeLinkAndStream(t *testing.T) {
	link := POD135(3*PicoFarad, 12*Gbps)
	if err := link.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewStream(Opt(link.Weights()))
	raw := NewStream(Raw())
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 100; i++ {
		b := make(Burst, BurstLength)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		st.Transmit(b)
		raw.Transmit(b)
	}
	if e, r := link.BurstEnergy(st.TotalCost()), link.BurstEnergy(raw.TotalCost()); e >= r {
		t.Errorf("OPT energy %g >= RAW energy %g", e, r)
	}
}

// TestFacadeRegistry: names round-trip through NewEncoder, and the error
// paths — unknown names, invalid weights, out-of-range coefficients,
// duplicate registration — surface through the facade exactly as the
// internal registry reports them.
func TestFacadeRegistry(t *testing.T) {
	for _, name := range SchemeNames() {
		if _, err := NewEncoder(name, Weights{Alpha: 1, Beta: 1}); err != nil {
			t.Errorf("NewEncoder(%q): %v", name, err)
		}
	}
	if _, err := NewEncoder("NOPE", Weights{}); err == nil {
		t.Error("bogus name accepted")
	}
	for _, name := range []string{"GREEDY", "OPT", "QUANTISED"} {
		if _, err := NewEncoder(name, Weights{}); err == nil {
			t.Errorf("NewEncoder(%q) accepted zero weights", name)
		}
		if _, err := NewEncoder(name, Weights{Alpha: -1, Beta: 1}); err == nil {
			t.Errorf("NewEncoder(%q) accepted negative weights", name)
		}
	}
	if _, err := OptQuantized(9, 1); err == nil {
		t.Error("out-of-range coefficient accepted")
	}
	if _, err := OptQuantized(0, 0); err == nil {
		t.Error("all-zero coefficients accepted")
	}
	// Duplicate registration is a programming error and panics, also
	// through the facade wrapper. The name is derived from the registry
	// size so repeated runs of the test binary (-count > 1) stay unique.
	name := fmt.Sprintf("TEST-FACADE-DUP-%d", len(SchemeNames()))
	RegisterScheme(name, func(w Weights) (Encoder, error) { return Raw(), nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterScheme did not panic")
		}
	}()
	RegisterScheme(name, func(w Weights) (Encoder, error) { return Raw(), nil })
}

// TestFacadePipeline: the sharded pipeline through the facade matches a
// serial LaneSet replay for every named scheme.
func TestFacadePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const lanes, frames = 5, 8
	fs := make([]Frame, frames)
	for i := range fs {
		f := make(Frame, lanes)
		for l := range f {
			f[l] = make(Burst, BurstLength)
			for j := range f[l] {
				f[l][j] = byte(rng.Intn(256))
			}
		}
		fs[i] = f
	}
	for _, name := range SchemeNames() {
		enc, err := NewEncoder(name, Weights{Alpha: 1, Beta: 1})
		if err != nil {
			t.Fatal(err)
		}
		ls := NewLaneSet(enc, lanes)
		for _, f := range fs {
			ls.Transmit(f)
		}
		p := NewPipeline(enc, lanes, WithWorkers(3), WithChunkFrames(2))
		res, err := p.Run(FramesOf(fs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != ls.TotalCost() {
			t.Errorf("%s: pipeline %+v != laneset %+v", name, res.Total, ls.TotalCost())
		}
	}
}

// TestFacadeServe: the serving layer through the facade — Serve a loopback
// instance, Dial a session, and check the served wire images and totals
// against a local LaneSet with the same scheme.
func TestFacadeServe(t *testing.T) {
	srv, err := Serve(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const lanes, frames = 2, 12
	c, err := Dial(srv.Addr().String(), SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: BurstLength})
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheme() != "OPT-FIXED" {
		t.Fatalf("resolved scheme %q", c.Scheme())
	}

	rng := rand.New(rand.NewSource(63))
	fs := make([]Frame, frames)
	for i := range fs {
		f := make(Frame, lanes)
		for l := range f {
			f[l] = make(Burst, BurstLength)
			for j := range f[l] {
				f[l][j] = byte(rng.Intn(256))
			}
		}
		fs[i] = f
	}
	ls := NewLaneSet(OptFixed(), lanes)
	for _, f := range fs[:4] {
		wires, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want := ls.Transmit(f)
		for l := range want {
			if wires[l].String() != want[l].String() {
				t.Fatalf("lane %d: served %s != local %s", l, wires[l], want[l])
			}
		}
	}
	if _, err := c.EncodeBatch(fs[4:]); err != nil {
		t.Fatal(err)
	}
	for _, f := range fs[4:] {
		ls.Transmit(f)
	}
	totals, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if totals.Coded != ls.TotalCost() {
		t.Fatalf("served totals %+v != local LaneSet %+v", totals.Coded, ls.TotalCost())
	}
	if totals.Frames != frames {
		t.Fatalf("frames = %d, want %d", totals.Frames, frames)
	}
}

// TestFacadeLaneSet: multi-lane transmission through the facade.
func TestFacadeLaneSet(t *testing.T) {
	ls := NewLaneSet(OptFixed(), 4)
	f := Frame{make(Burst, 8), make(Burst, 8), make(Burst, 8), make(Burst, 8)}
	for l := range f {
		for i := range f[l] {
			f[l][i] = byte(l*8 + i)
		}
	}
	ws := ls.Transmit(f)
	if len(ws) != 4 {
		t.Fatalf("got %d wires", len(ws))
	}
	for l, w := range ws {
		if got := Decode(w); !got.Equal(f[l]) {
			t.Fatalf("lane %d corrupted", l)
		}
	}
	pods := []Link{POD12(PicoFarad, Gbps), POD15(PicoFarad, Gbps)}
	for _, p := range pods {
		if p.BurstEnergy(ls.TotalCost()) <= 0 {
			t.Error("non-positive energy")
		}
	}
}

// TestFacadeAdaptive: the adaptive layer through the public API — an
// adaptive stream beats a mis-matched static scheme on shifting traffic,
// the lane-set constructor stamps lanes, and a served adaptive session is
// bit-identical to the offline adaptive lane set and announces its
// switches.
func TestFacadeAdaptive(t *testing.T) {
	const lanes, beats, period, frames = 2, 8, 256, 1536
	weights := Weights{Alpha: 4, Beta: 1}
	cfg := AdaptiveConfig{
		Candidates: []string{"DC", "AC", "RAW"},
		Weights:    weights,
		Window:     32,
		Margin:     0.05,
	}

	// Per-lane phase-shifting workload.
	fs := make([]Frame, frames)
	srcs := make([]trace.Source, lanes)
	for l := range srcs {
		seed := int64(77 + 100*l)
		srcs[l] = trace.NewPhaseShift(period, trace.NewSparse(seed, 0.10), trace.NewMarkov(seed+1, 0.05))
	}
	for i := range fs {
		f := make(Frame, lanes)
		for l := range f {
			f[l] = Burst(srcs[l].Next(beats))
		}
		fs[i] = f
	}

	var switches []AdaptiveSwitch
	laneCfg := cfg
	laneCfg.OnSwitch = func(s AdaptiveSwitch) { switches = append(switches, s) }
	ls, err := NewAdaptiveLaneSet(laneCfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		ls.Transmit(f)
	}
	if len(switches) == 0 {
		t.Fatal("no switches on a phase-shifting workload")
	}
	for _, s := range switches {
		if s.Lane < 0 || s.Lane >= lanes {
			t.Fatalf("switch names lane %d", s.Lane)
		}
	}
	ctl := AdapterOf(ls.Lane(0)).(*AdaptiveController)
	if ctl.Switches() == 0 {
		t.Error("lane 0 controller reports no switches")
	}

	// Served adaptively: same config, same frames, bit-identical totals
	// plus SWITCH notices.
	srv, err := Serve(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), SessionConfig{
		Adapt: true, AdaptWindow: cfg.Window, AdaptMargin: cfg.Margin, AdaptCandidates: cfg.Candidates,
		Alpha: weights.Alpha, Beta: weights.Beta, Lanes: lanes, Beats: beats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EncodeBatch(fs); err != nil {
		t.Fatal(err)
	}
	totals, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if totals.Coded != ls.TotalCost() {
		t.Fatalf("served adaptive totals %+v != offline %+v", totals.Coded, ls.TotalCost())
	}
	if totals.Switches != len(switches) {
		t.Errorf("served session switched %d times, offline %d", totals.Switches, len(switches))
	}
	if notes := c.Switches(); len(notes) != totals.Switches {
		t.Errorf("received %d SWITCH notices, totals say %d", len(notes), totals.Switches)
	}

	// And the point of it all: adaptive beats the mis-matched static
	// schemes on this traffic.
	adaptiveCost := weights.Cost(ls.TotalCost())
	for _, name := range cfg.Candidates {
		enc, err := NewEncoder(name, weights)
		if err != nil {
			t.Fatal(err)
		}
		static := NewLaneSet(enc, lanes)
		for _, f := range fs {
			static.Transmit(f)
		}
		if staticCost := weights.Cost(static.TotalCost()); adaptiveCost >= staticCost {
			t.Errorf("adaptive cost %.0f not below static %s %.0f", adaptiveCost, name, staticCost)
		}
	}
}
