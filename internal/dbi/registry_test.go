package dbi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dbiopt/internal/bus"
)

// TestLookupUnknownNameListsRegistry: the unknown-name error must carry the
// full registered vocabulary, so a CLI user sees their options in the error
// itself (the contract Lookup documents).
func TestLookupUnknownNameListsRegistry(t *testing.T) {
	_, err := Lookup("NO-SUCH-SCHEME", FixedWeights)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, name := range []string{"RAW", "DC", "AC", "ACDC", "GREEDY", "OPT", "OPT-FIXED", "QUANTISED", "EXHAUSTIVE"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error does not list %q: %v", name, err)
		}
	}
	if !strings.Contains(err.Error(), `"NO-SUCH-SCHEME"`) {
		t.Errorf("unknown-name error does not echo the requested name: %v", err)
	}
}

// TestLookupWeightValidation: every invalid weight class is refused by
// every weighted scheme — negative components, NaN, and the all-zero pair —
// while weight-free schemes ignore the same inputs entirely.
func TestLookupWeightValidation(t *testing.T) {
	bad := []struct {
		name string
		w    Weights
	}{
		{"both zero", Weights{}},
		{"negative alpha", Weights{Alpha: -1, Beta: 1}},
		{"negative beta", Weights{Alpha: 1, Beta: -0.5}},
		{"NaN alpha", Weights{Alpha: math.NaN(), Beta: 1}},
		{"NaN beta", Weights{Alpha: 1, Beta: math.NaN()}},
		{"both NaN", Weights{Alpha: math.NaN(), Beta: math.NaN()}},
	}
	for _, scheme := range []string{"GREEDY", "OPT", "QUANTISED", "EXHAUSTIVE"} {
		for _, tc := range bad {
			if _, err := Lookup(scheme, tc.w); err == nil {
				t.Errorf("Lookup(%q) accepted %s weights %+v", scheme, tc.name, tc.w)
			}
		}
		// One-sided zero weights are legal: they express "only one
		// activity matters".
		for _, w := range []Weights{{Alpha: 1}, {Beta: 1}} {
			if _, err := Lookup(scheme, w); err != nil {
				t.Errorf("Lookup(%q) rejected one-sided weights %+v: %v", scheme, w, err)
			}
		}
	}
	for _, scheme := range []string{"RAW", "DC", "AC", "ACDC", "OPT-FIXED"} {
		for _, tc := range bad {
			if _, err := Lookup(scheme, tc.w); err != nil {
				t.Errorf("weight-free Lookup(%q) rejected ignored %s weights: %v", scheme, tc.name, err)
			}
		}
	}
}

// TestNewQuantizedCoefficientRange: the 3-bit hardware constructor refuses
// out-of-range and all-zero coefficients and accepts the full legal square.
func TestNewQuantizedCoefficientRange(t *testing.T) {
	for _, bad := range [][2]uint8{{8, 1}, {1, 8}, {255, 255}, {0, 0}} {
		if _, err := NewQuantized(bad[0], bad[1]); err == nil {
			t.Errorf("NewQuantized(%d, %d) accepted", bad[0], bad[1])
		}
	}
	for a := uint8(0); a <= maxCoefficient; a++ {
		for b := uint8(0); b <= maxCoefficient; b++ {
			if a == 0 && b == 0 {
				continue
			}
			if _, err := NewQuantized(a, b); err != nil {
				t.Errorf("NewQuantized(%d, %d): %v", a, b, err)
			}
		}
	}
}

// TestQuantizeWeightsSnapping: the registry's QUANTISED factory snaps real
// weights to the best 3-bit ratio — exact small ratios stay exact, and the
// reduced pair is preferred over its multiples.
func TestQuantizeWeightsSnapping(t *testing.T) {
	q, err := QuantizeWeights(Weights{Alpha: 0.6, Beta: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if q.Alpha != 3 || q.Beta != 2 {
		t.Errorf("0.6:0.4 snapped to %d:%d, want 3:2", q.Alpha, q.Beta)
	}
	if _, err := QuantizeWeights(Weights{}); err == nil {
		t.Error("QuantizeWeights accepted zero weights")
	}
	if _, err := QuantizeWeights(Weights{Alpha: math.NaN(), Beta: 1}); err == nil {
		t.Error("QuantizeWeights accepted NaN weights")
	}
}

// TestQuantizeWeightsBitsRange: the width knob validates 1..10 bits.
func TestQuantizeWeightsBitsRange(t *testing.T) {
	for _, bits := range []int{0, -1, 11, 64} {
		if _, err := QuantizeWeightsBits(FixedWeights, bits); err == nil {
			t.Errorf("QuantizeWeightsBits accepted width %d", bits)
		}
	}
	w, err := QuantizeWeightsBits(Weights{Alpha: 1, Beta: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Alpha != 1 || w.Beta != 1 {
		t.Errorf("1-bit quantisation of 1:1 = %+v, want 1:1", w)
	}
}

// TestRegisteredSchemesArePure holds every registered scheme — the
// built-ins and the EncodeInto-only third-party probe alike — to the
// registration contract: an encoder is a pure function of (prev, burst,
// weights). Over random (prev, burst) pairs of 0-200 beats, one instance
// reused in sequence order, the same instance walked in reverse order and
// a fresh Lookup per call must return identical flags. A scheme carrying
// hidden state (an RNG, a history of earlier bursts) diverges between the
// walks.
func TestRegisteredSchemesArePure(t *testing.T) {
	type pair struct {
		prev bus.LineState
		b    bus.Burst
	}
	rng := rand.New(rand.NewSource(67))
	pairs := make([]pair, 40)
	for i := range pairs {
		pairs[i] = pair{randomState(rng), randomBurst(rng, rng.Intn(201))}
	}
	for _, w := range []Weights{FixedWeights, {Alpha: 0.4, Beta: 0.6}, {Alpha: 3, Beta: 5}} {
		for _, name := range Names() {
			shared, err := Lookup(name, w)
			if err != nil {
				continue // weights this scheme refuses (validated elsewhere)
			}
			_, brute := shared.(Exhaustive)
			burst := func(p pair) bus.Burst {
				if brute && len(p.b) > 12 {
					return p.b[:12] // brute force: keep the sweep fast
				}
				return p.b
			}
			forward := make([][]bool, len(pairs))
			for i, p := range pairs {
				forward[i] = shared.EncodeInto(nil, p.prev, burst(p))
			}
			for i := len(pairs) - 1; i >= 0; i-- {
				p := pairs[i]
				if got := shared.EncodeInto(nil, p.prev, burst(p)); !slices.Equal(got, forward[i]) {
					t.Fatalf("%s w=%+v pair %d (%d beats): reverse walk %v != forward walk %v",
						name, w, i, len(burst(p)), got, forward[i])
				}
				fresh, err := Lookup(name, w)
				if err != nil {
					t.Fatalf("%s w=%+v: second Lookup failed: %v", name, w, err)
				}
				if got := fresh.EncodeInto(nil, p.prev, burst(p)); !slices.Equal(got, forward[i]) {
					t.Fatalf("%s w=%+v pair %d (%d beats): fresh instance %v != shared instance %v",
						name, w, i, len(burst(p)), got, forward[i])
				}
			}
		}
	}
}

// TestLookupFactoryErrorPropagation: a custom factory's own error reaches
// the Lookup caller unwrapped in meaning (no panic, no nil encoder).
func TestLookupFactoryErrorPropagation(t *testing.T) {
	// Unique per registry size, so -count > 1 does not hit the duplicate
	// panic in the process-global registry.
	name := fmt.Sprintf("TEST-ALWAYS-FAILS-%d", len(Names()))
	Register(name, func(w Weights) (Encoder, error) {
		return nil, errTestFactory
	})
	enc, err := Lookup(name, FixedWeights)
	if err != errTestFactory {
		t.Errorf("factory error not propagated: %v", err)
	}
	if enc != nil {
		t.Errorf("failing factory returned an encoder: %v", enc)
	}
}

// errTestFactory is a sentinel for TestLookupFactoryErrorPropagation.
var errTestFactory = &testFactoryError{}

type testFactoryError struct{}

func (*testFactoryError) Error() string { return "factory exploded" }
