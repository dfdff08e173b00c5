package dbi

import (
	"math/rand"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/racetag"
)

// checkBatchAgainstSerial drives ref (per-lane Transmit) and got
// (TransmitBatch) over the same frames and pins the batch outputs —
// inversion patterns, per-lane costs, post-burst states, accumulators —
// bit-identical to the serial wires.
func checkBatchAgainstSerial(t *testing.T, label string, ref, got *LaneSet, frames []bus.Frame) {
	t.Helper()
	for fi, f := range frames {
		wires := ref.Transmit(f)
		lb := got.TransmitBatch(f)
		if lb.Lanes() != f.Lanes() {
			t.Fatalf("%s frame %d: batch has %d lanes, frame %d", label, fi, lb.Lanes(), f.Lanes())
		}
		for l, w := range wires {
			prev := lb.Prev(l)
			for t2 := 0; t2 < len(f[l]); t2++ {
				inverted := lb.MaskWords(l)[t2>>6]>>(t2&63)&1 == 1
				if inverted != !w.DBI[t2] {
					t.Fatalf("%s frame %d lane %d beat %d: batch inverted=%v, serial DBI=%v",
						label, fi, l, t2, inverted, w.DBI[t2])
				}
			}
			if wc := w.Cost(prev); lb.Cost(l) != wc {
				t.Fatalf("%s frame %d lane %d: batch cost %+v, serial %+v", label, fi, l, lb.Cost(l), wc)
			}
			if ws := w.FinalState(prev); lb.Next(l) != ws {
				t.Fatalf("%s frame %d lane %d: batch next %+v, serial %+v", label, fi, l, lb.Next(l), ws)
			}
			if ss, bs := ref.Lane(l).State(), got.Lane(l).State(); ss != bs {
				t.Fatalf("%s frame %d lane %d: stream state %+v != %+v", label, fi, l, bs, ss)
			}
		}
	}
	if rc, gc := ref.TotalCost(), got.TotalCost(); rc != gc {
		t.Fatalf("%s: total cost %+v != serial %+v", label, gc, rc)
	}
}

// TestLaneBatchMatchesSerial pins the batch contract for every registered
// scheme: TransmitBatch over a multi-frame workload is bit-identical to N
// serial Stream.Transmit calls — native batch kernels, wide per-lane
// fallback and []bool fallback alike — at the native BL8 (the fused
// OPT-FIXED batch kernel) and at burst lengths on both sides of the
// single-word and inline bounds.
func TestLaneBatchMatchesSerial(t *testing.T) {
	const lanes = 11 // odd: exercises the 8-lane interleave remainder
	for _, beats := range []int{8, 16, 64, 65, 128, 256, 300} {
		for _, name := range Names() {
			enc, err := New(name, FixedWeights)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if _, isEx := enc.(Exhaustive); isEx && beats > 16 {
				continue // brute force: EncodeInto panics past its bound
			}
			frames := randomFrames(int64(beats)*1000+int64(len(name)), 6, lanes, beats)
			checkBatchAgainstSerial(t, name, NewLaneSet(enc, lanes), NewLaneSet(enc, lanes), frames)
		}
	}
}

// TestLaneBatchNoisy: an order-sensitive stateful encoder (Noisy consumes
// its RNG per lane, per beat) still matches serial, via the generic
// lane-order fallback.
func TestLaneBatchNoisy(t *testing.T) {
	mk := func() Encoder {
		n, err := NewNoisy(ACDC{}, 0.05, 77)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	frames := randomFrames(300, 5, 4, 48)
	checkBatchAgainstSerial(t, "noisy", NewLaneSet(mk(), 4), NewLaneSet(mk(), 4), frames)
}

// switchingAdapter flips between two schemes every `period` bursts — a
// deterministic stand-in for the windowed controller that forces mid-frame
// live-scheme divergence across lanes.
type switchingAdapter struct {
	a, b   Encoder
	period int
	seen   int
}

func (s *switchingAdapter) Current() Encoder {
	if s.seen/s.period%2 == 1 {
		return s.b
	}
	return s.a
}

func (s *switchingAdapter) Observe(bus.Burst, bus.Cost, bus.LineState) { s.seen++ }
func (s *switchingAdapter) Reset()                                     { s.seen = 0 }
func (s *switchingAdapter) Shardable() bool                            { return true }

// TestLaneBatchAdaptive: adaptive lane sets take the per-lane fallback
// (each burst must be observed by its lane's adapter) and still produce
// batch outputs bit-identical to serial adaptive streams — including
// mid-workload scheme switches happening at different times on different
// lanes.
func TestLaneBatchAdaptive(t *testing.T) {
	mk := func(lane int) Adapter {
		return &switchingAdapter{a: DC{}, b: OptFixed(), period: lane + 1}
	}
	frames := randomFrames(301, 8, 3, 80)
	checkBatchAgainstSerial(t, "adaptive", NewAdaptiveLaneSet(mk, 3), NewAdaptiveLaneSet(mk, 3), frames)
}

// TestLaneBatchRagged: frames whose lanes carry different beat counts take
// the per-lane fallback and stay bit-identical to serial.
func TestLaneBatchRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	var frames []bus.Frame
	for i := 0; i < 5; i++ {
		f := make(bus.Frame, 3)
		for l := range f {
			f[l] = randomBurst(rng, 8*(l+1)*(i%3+1))
		}
		frames = append(frames, f)
	}
	enc := Greedy{Weights: FixedWeights}
	checkBatchAgainstSerial(t, "ragged", NewLaneSet(enc, 3), NewLaneSet(enc, 3), frames)
}

// TestEncodeLaneBatchDirect exercises the exported driver on a hand-built
// batch, per-lane prev states included, against per-lane CostOf.
func TestEncodeLaneBatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, enc := range []Encoder{Raw{}, DC{}, AC{}, ACDC{}, Greedy{Weights: FixedWeights}, OptFixed(), Quantized{Alpha: 3, Beta: 5}} {
		var lb LaneBatch
		lb.Reset(5, 96)
		bursts := make([]bus.Burst, 5)
		for l := 0; l < 5; l++ {
			prev, b := randomWideBurst(rng, 96)
			lb.SetPrev(l, prev)
			lb.SetLane(l, b)
			bursts[l] = b
		}
		EncodeLaneBatch(enc, &lb)
		for l := 0; l < 5; l++ {
			inv := enc.Encode(lb.Prev(l), bursts[l])
			wire := bus.Apply(bursts[l], inv)
			for t2, f := range inv {
				if got := lb.MaskWords(l)[t2>>6]>>(t2&63)&1 == 1; got != f {
					t.Fatalf("%s lane %d beat %d: batch %v, oracle %v", enc.Name(), l, t2, got, f)
				}
			}
			if wc := wire.Cost(lb.Prev(l)); lb.Cost(l) != wc {
				t.Fatalf("%s lane %d: cost %+v != %+v", enc.Name(), l, lb.Cost(l), wc)
			}
			if ws := wire.FinalState(lb.Prev(l)); lb.Next(l) != ws {
				t.Fatalf("%s lane %d: next %+v != %+v", enc.Name(), l, lb.Next(l), ws)
			}
		}
		if _, ok := lb.Mask(0); ok {
			t.Fatalf("Mask claimed a single-word view of a 96-beat lane")
		}
	}
}

// TestLaneBatchZeroAlloc pins the steady-state allocation contract of the
// whole frame path: a warmed TransmitBatch performs zero heap allocations
// for table-driven and trellis schemes alike, within the inline bound.
func TestLaneBatchZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frames := randomFrames(304, 4, 8, bus.MaxInlineWideBeats)
	for _, enc := range []Encoder{Raw{}, DC{}, AC{}, ACDC{}, Greedy{Weights: FixedWeights}, OptFixed(), Quantized{Alpha: 3, Beta: 5}} {
		ls := NewLaneSet(enc, 8)
		run := func() {
			for _, f := range frames {
				ls.TransmitBatch(f)
			}
		}
		run() // warm the batch scratch
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s: TransmitBatch allocated %v times per run, want 0", enc.Name(), n)
		}
	}
}
