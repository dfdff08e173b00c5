package dbi

import (
	"math/rand"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/racetag"
)

// wideTestLengths sweeps both sides of every wide-path boundary: the last
// single-word lengths, the word boundaries, the inline bound, and deep
// spill territory.
var wideTestLengths = []int{0, 1, 8, 24, 63, 64, 65, 96, 127, 128, 129, 192, 255, 256, 257, 384, 512}

// wideTestWeights are the three weight regimes of FuzzMaskEquivalence:
// exact integers, dyadic rationals, and a non-representable float pair.
var wideTestWeights = []Weights{
	{Alpha: 1, Beta: 1},
	{Alpha: 2.5, Beta: 0.25},
	{Alpha: 1.3, Beta: 0.7},
}

// randomWideBurst synthesises an n-beat burst and a random prior state.
func randomWideBurst(rng *rand.Rand, n int) (bus.LineState, bus.Burst) {
	b := make(bus.Burst, n)
	for t := range b {
		b[t] = byte(rng.Intn(256))
	}
	return bus.LineState{Data: byte(rng.Intn(256)), DBI: rng.Intn(2) == 1}, b
}

// TestEncodeMaskWordsMatchesEncodeInto pins the wide-path contract for every
// registered scheme with a fast path: whenever EncodeMaskWords accepts a burst, its pattern —
// and the wide cost and final state derived from it — must be bit-identical
// to the []bool EncodeInto oracle, across every length boundary.
func TestEncodeMaskWordsMatchesEncodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	var m bus.WideMask
	for _, w := range wideTestWeights {
		for _, name := range Names() {
			enc, err := Lookup(name, w)
			if err != nil || name == thirdPartyName {
				continue // refused weights (validated elsewhere), or no fast path
			}
			we, ok := enc.(WideMaskEncoder)
			if !ok {
				t.Fatalf("%s does not implement WideMaskEncoder", name)
			}
			for _, n := range wideTestLengths {
				if _, isEx := enc.(Exhaustive); isEx && n > 16 {
					continue // brute force: EncodeInto panics past its bound
				}
				prev, b := randomWideBurst(rng, n)
				m.Reset(n)
				if !we.EncodeMaskWords(prev, b, m.Words()) {
					continue // declined: []bool fallback is authoritative
				}
				inv := enc.Encode(prev, b)
				for t2 := range inv {
					if m.Bit(t2) != inv[t2] {
						t.Fatalf("%s w=%+v n=%d: wide beat %d = %v, oracle %v",
							name, w, n, t2, m.Bit(t2), inv[t2])
					}
				}
				wire := bus.Apply(b, inv)
				if mc, wc := bus.WideMaskCost(prev, b, &m), wire.Cost(prev); mc != wc {
					t.Fatalf("%s w=%+v n=%d: WideMaskCost %+v != wire cost %+v", name, w, n, mc, wc)
				}
				if ms, ws := bus.WideMaskFinalState(prev, b, &m), wire.FinalState(prev); ms != ws {
					t.Fatalf("%s w=%+v n=%d: final state %+v != %+v", name, w, n, ms, ws)
				}
			}
		}
	}
}

// TestEncodeMaskWordsMatchesEncodeMask: within the single-word bound the
// wide and narrow fast paths accept the same bursts and agree bit for bit.
func TestEncodeMaskWordsMatchesEncodeMask(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	var m bus.WideMask
	for _, w := range wideTestWeights {
		for _, name := range Names() {
			enc, err := Lookup(name, w)
			if err != nil || name == thirdPartyName {
				continue
			}
			me, we := maskEncoderOf(enc), wideMaskEncoderOf(enc)
			for i := 0; i < 40; i++ {
				n := rng.Intn(bus.MaxMaskBeats + 1)
				if _, isEx := enc.(Exhaustive); isEx {
					n = rng.Intn(13)
				}
				prev, b := randomWideBurst(rng, n)
				sm, okNarrow := me.EncodeMask(prev, b)
				m.Reset(n)
				okWide := we.EncodeMaskWords(prev, b, m.Words())
				if okNarrow != okWide {
					t.Fatalf("%s w=%+v n=%d: narrow ok=%v, wide ok=%v", name, w, n, okNarrow, okWide)
				}
				if !okNarrow {
					continue
				}
				for t2 := 0; t2 < n; t2++ {
					if m.Bit(t2) != sm.Bit(t2) {
						t.Fatalf("%s w=%+v n=%d beat %d: wide %v != narrow %v",
							name, w, n, t2, m.Bit(t2), sm.Bit(t2))
					}
				}
			}
		}
	}
}

// TestEncodeWideMaskOf covers the probe helper: schemes accept, a
// mask-less encoder declines.
func TestEncodeWideMaskOf(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	prev, b := randomWideBurst(rng, 200)
	var m bus.WideMask
	if !EncodeWideMaskOf(OptFixed(), prev, b, &m) {
		t.Fatal("OptFixed declined a 200-beat burst")
	}
	inv := OptFixed().Encode(prev, b)
	for t2 := range inv {
		if m.Bit(t2) != inv[t2] {
			t.Fatalf("beat %d: %v != %v", t2, m.Bit(t2), inv[t2])
		}
	}
	if EncodeWideMaskOf(thirdParty{}, prev, b, &m) {
		t.Fatal("EncodeInto-only scheme claimed a wide fast path")
	}
}

// TestWideTrellisIntMatchesFloat: for integerized weights in the exactness
// regime, the integer and float wide trellises agree bit for bit — the wide
// form of the FuzzMaskEquivalence integer-vs-float pin.
func TestWideTrellisIntMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, w := range []Weights{{Alpha: 1, Beta: 1}, {Alpha: 2.5, Beta: 0.25}, {Alpha: 7, Beta: 3}} {
		ia, ib, ok := w.integerize()
		if !ok {
			t.Fatalf("weights %+v should integerize", w)
		}
		for _, n := range []int{65, 128, 256, 400} {
			prev, b := randomWideBurst(rng, n)
			var mi, mf bus.WideMask
			mi.Reset(n)
			mf.Reset(n)
			trellisWideInt(prev, b, ia, ib, mi.Words())
			trellisWideFloat(prev, b, w, mf.Words())
			for t2 := 0; t2 < n; t2++ {
				if mi.Bit(t2) != mf.Bit(t2) {
					t.Fatalf("w=%+v n=%d beat %d: int %v != float %v", w, n, t2, mi.Bit(t2), mf.Bit(t2))
				}
			}
		}
	}
}

// TestWideEncodeZeroAlloc pins the allocation contract of the wide fast
// paths themselves: for bursts within the inline bound, EncodeMaskWords is
// allocation-free for every stateless scheme that accepts them.
func TestWideEncodeZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(124))
	prev, b := randomWideBurst(rng, bus.MaxInlineWideBeats)
	var m bus.WideMask
	for _, enc := range []Encoder{Raw{}, DC{}, AC{}, ACDC{}, Greedy{Weights: FixedWeights}, OptFixed(), Quantized{Alpha: 3, Beta: 5}} {
		we := wideMaskEncoderOf(enc)
		run := func() {
			m.Reset(len(b))
			if !we.EncodeMaskWords(prev, b, m.Words()) {
				t.Fatalf("%s declined", enc.Name())
			}
		}
		run()
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Errorf("%s: EncodeMaskWords allocated %v times per run, want 0", enc.Name(), n)
		}
	}
}
