package dbi

import (
	"math"
	"math/rand"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/racetag"
)

// maskTestWeights are the weight regimes the mask property tests sweep:
// exactly integer, dyadic (integer after power-of-two scaling), and
// non-representable (float fallback).
var maskTestWeights = []Weights{
	FixedWeights,
	{Alpha: 3, Beta: 5},
	{Alpha: 0.5, Beta: 1.25},
	{Alpha: 4, Beta: 0},
	{Alpha: 0, Beta: 7},
	{Alpha: 0.4, Beta: 0.6},
	{Alpha: 1.0 / 3.0, Beta: 1},
}

// maskSchemes returns one instance of every built-in scheme at weights w.
func maskSchemes(t testing.TB, w Weights) []Encoder {
	t.Helper()
	encs := []Encoder{Raw{}, DC{}, AC{}, ACDC{}, Greedy{Weights: w}, Opt{Weights: w}, OptFixed()}
	if q, err := QuantizeWeights(w); err == nil {
		encs = append(encs, q)
	}
	encs = append(encs, Exhaustive{Weights: w})
	return encs
}

// checkMaskMatchesBools pins EncodeMask against EncodeInto for one case:
// identical flags, and identical wires and costs through the mask-native
// bus helpers.
func checkMaskMatchesBools(t *testing.T, enc Encoder, prev bus.LineState, b bus.Burst) {
	t.Helper()
	me, ok := enc.(MaskEncoder)
	if !ok {
		t.Fatalf("%s does not implement MaskEncoder", enc.Name())
	}
	m, ok := me.EncodeMask(prev, b)
	if !ok {
		if _, expectOK := enc.(Raw); expectOK && len(b) <= bus.MaxMaskBeats {
			t.Fatalf("%s declined a %d-beat burst", enc.Name(), len(b))
		}
		return // declined: the scheme requires the fallback here
	}
	inv := enc.Encode(prev, b)
	want, ok := bus.MaskFromBools(inv)
	if !ok {
		t.Fatalf("reference pattern too long to pack (%d beats)", len(inv))
	}
	if m != want {
		t.Fatalf("%s: EncodeMask = %b, EncodeInto = %b on %v from %+v",
			enc.Name(), m, want, b, prev)
	}
	boolWire := bus.Apply(b, inv)
	maskWire := bus.ApplyMask(b, m)
	if gc, wc := maskWire.Cost(prev), boolWire.Cost(prev); gc != wc {
		t.Fatalf("%s: mask wire cost %+v != bool wire cost %+v", enc.Name(), gc, wc)
	}
	if gc, wc := bus.MaskCost(prev, b, m), boolWire.Cost(prev); gc != wc {
		t.Fatalf("%s: MaskCost %+v != wire cost %+v", enc.Name(), gc, wc)
	}
	if gs, ws := bus.MaskFinalState(prev, b, m), boolWire.FinalState(prev); gs != ws {
		t.Fatalf("%s: MaskFinalState %+v != wire final state %+v", enc.Name(), gs, ws)
	}
}

// TestEncodeMaskMatchesEncodeInto sweeps every built-in scheme across the
// weight regimes on random bursts and prior states.
func TestEncodeMaskMatchesEncodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, w := range maskTestWeights {
		for _, enc := range maskSchemes(t, w) {
			for i := 0; i < 200; i++ {
				beats := rng.Intn(12)
				if _, isEx := enc.(Exhaustive); !isEx && rng.Intn(4) == 0 {
					beats = rng.Intn(bus.MaxMaskBeats + 1) // long bursts for the linear schemes
				}
				b := randomBurst(rng, beats)
				checkMaskMatchesBools(t, enc, randomState(rng), b)
			}
		}
	}
}

// TestIntegerize pins the scaled-integer weight detection.
func TestIntegerize(t *testing.T) {
	cases := []struct {
		w      Weights
		ia, ib int64
		ok     bool
	}{
		{Weights{Alpha: 1, Beta: 1}, 1, 1, true},
		{Weights{Alpha: 3, Beta: 5}, 3, 5, true},
		{Weights{Alpha: 0.5, Beta: 1.25}, 2, 5, true},
		{Weights{Alpha: 0.375, Beta: 1}, 3, 8, true},
		{Weights{Alpha: 0, Beta: 0}, 0, 0, true},
		{Weights{Alpha: 0.4, Beta: 0.6}, 0, 0, false},
		{Weights{Alpha: 1.0 / 3.0, Beta: 1}, 0, 0, false},
		{Weights{Alpha: -1, Beta: 1}, 0, 0, false},
		{Weights{Alpha: 1 << 32, Beta: 1}, 0, 0, false},
	}
	for _, c := range cases {
		ia, ib, ok := c.w.integerize()
		if ok != c.ok || (ok && (ia != c.ia || ib != c.ib)) {
			t.Errorf("integerize(%+v) = (%d, %d, %v), want (%d, %d, %v)",
				c.w, ia, ib, ok, c.ia, c.ib, c.ok)
		}
	}
	if _, _, ok := (Weights{Alpha: math.NaN(), Beta: 1}).integerize(); ok {
		t.Error("integerize accepted NaN")
	}
}

// TestIntegerTrellisMatchesFloatTrellis: for representable weights, the
// integer trellis (via EncodeMask) agrees bit for bit with the float
// reference dynamic program.
func TestIntegerTrellisMatchesFloatTrellis(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, w := range maskTestWeights {
		if _, _, ok := w.integerize(); !ok {
			continue
		}
		o := Opt{Weights: w}
		for i := 0; i < 300; i++ {
			prev := randomState(rng)
			b := randomBurst(rng, rng.Intn(bus.MaxMaskBeats+1))
			m, ok := o.EncodeMask(prev, b)
			if !ok {
				t.Fatalf("EncodeMask declined %d beats", len(b))
			}
			ref := o.encodeIntoTrellis(nil, prev, b)
			want, _ := bus.MaskFromBools(ref)
			if m != want {
				t.Fatalf("w=%+v: integer trellis %b != float trellis %b on %v from %+v",
					w, m, want, b, prev)
			}
		}
	}
}

// TestFloatTrellisMatchesReference: for weights with no exact integer
// scale, Opt.EncodeMask runs the float mask trellis — this pins it
// against the legacy backpointer-table dynamic program directly, since
// the generic mask-vs-bools checks cannot (Opt.EncodeInto itself
// delegates to EncodeMask within the mask bound).
func TestFloatTrellisMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for _, w := range maskTestWeights {
		if _, _, ok := w.integerize(); ok {
			continue // the integer path; covered by its own test above
		}
		o := Opt{Weights: w}
		for i := 0; i < 300; i++ {
			prev := randomState(rng)
			b := randomBurst(rng, 1+rng.Intn(bus.MaxMaskBeats))
			m, ok := o.EncodeMask(prev, b)
			if !ok {
				t.Fatalf("EncodeMask declined %d beats", len(b))
			}
			want, _ := bus.MaskFromBools(o.encodeIntoTrellis(nil, prev, b))
			if m != want {
				t.Fatalf("w=%+v: float mask trellis %b != reference trellis %b on %v from %+v",
					w, m, want, b, prev)
			}
		}
	}
}

// TestGrayExhaustiveMatchesScan: the incremental Gray-code search returns
// exactly the pattern the ascending full-recost scan returns, ties
// included.
func TestGrayExhaustiveMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, w := range maskTestWeights {
		if _, _, ok := w.integerize(); !ok {
			continue
		}
		e := Exhaustive{Weights: w}
		for i := 0; i < 60; i++ {
			prev := randomState(rng)
			b := randomBurst(rng, 1+rng.Intn(10))
			m, ok := e.EncodeMask(prev, b)
			if !ok {
				t.Fatalf("EncodeMask declined weights %+v", w)
			}
			ref := e.encodeIntoScan(nil, prev, b)
			want, _ := bus.MaskFromBools(ref)
			if m != want {
				t.Fatalf("w=%+v: gray %b != scan %b on %v from %+v", w, m, want, b, prev)
			}
		}
	}
}

// TestQuantizedMaskMatchesReference: the quantised mask trellis against its
// own integer reference DP.
func TestQuantizedMaskMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	q := Quantized{Alpha: 3, Beta: 5}
	for i := 0; i < 300; i++ {
		prev := randomState(rng)
		b := randomBurst(rng, rng.Intn(bus.MaxMaskBeats+1))
		m, ok := q.EncodeMask(prev, b)
		if !ok {
			t.Fatalf("EncodeMask declined %d beats", len(b))
		}
		want, _ := bus.MaskFromBools(q.encodeIntoTrellis(nil, prev, b))
		if m != want {
			t.Fatalf("quantised mask %b != reference %b on %v", m, want, b)
		}
	}
}

// TestEncodeMaskLongBurstDeclines: every scheme declines bursts beyond the
// mask bound instead of truncating them.
func TestEncodeMaskLongBurstDeclines(t *testing.T) {
	long := make(bus.Burst, bus.MaxMaskBeats+1)
	for _, enc := range maskSchemes(t, FixedWeights) {
		me := enc.(MaskEncoder)
		if _, ok := me.EncodeMask(bus.InitialLineState, long); ok {
			t.Errorf("%s accepted a burst beyond MaxMaskBeats", enc.Name())
		}
	}
}

// TestEncodeMaskZeroAlloc pins the bit-parallel paths at zero heap
// allocations per burst.
func TestEncodeMaskZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("race instrumentation forces stack scratch to the heap")
	}
	rng := rand.New(rand.NewSource(84))
	workload := make([]bus.Burst, 32)
	for i := range workload {
		workload[i] = randomBurst(rng, 8)
	}
	for name, enc := range fastPathEncoders(t) {
		me, ok := enc.(MaskEncoder)
		if !ok {
			t.Errorf("%s does not implement MaskEncoder", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				me.EncodeMask(bus.InitialLineState, workload[i%len(workload)])
				i++
			})
			if allocs != 0 {
				t.Errorf("EncodeMask allocates %.2f times per burst, want 0", allocs)
			}
		})
	}
}
