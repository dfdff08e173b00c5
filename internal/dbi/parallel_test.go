package dbi

import (
	"math/rand"
	"testing"

	"dbiopt/internal/bus"
)

// TestParallelTotalCostMatchesSerial: identical results for every worker
// count, including the degenerate ones.
func TestParallelTotalCostMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	bursts := make([]bus.Burst, 501) // deliberately not a multiple of workers
	for i := range bursts {
		bursts[i] = randomBurst(rng, 8)
	}
	for _, enc := range []Encoder{DC{}, AC{}, OptFixed()} {
		want := TotalCost(enc, bursts)
		for _, workers := range []int{0, 1, 2, 3, 7, 16, 1000} {
			got := ParallelTotalCost(enc, bursts, workers)
			if got != want {
				t.Fatalf("%s workers=%d: %+v != %+v", enc.Name(), workers, got, want)
			}
		}
	}
}

// TestParallelTotalCostEmpty: no bursts, no cost, no panic.
func TestParallelTotalCostEmpty(t *testing.T) {
	if got := ParallelTotalCost(DC{}, nil, 4); got != (bus.Cost{}) {
		t.Errorf("empty workload cost = %+v", got)
	}
}

// TestParallelCostsMatchesSerial: positional per-burst costs are identical
// to the serial loop for every worker count, the generic EncodeInto
// fallback included.
func TestParallelCostsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	bursts := make([]bus.Burst, 257)
	for i := range bursts {
		bursts[i] = randomBurst(rng, 8)
	}
	for _, tc := range []struct {
		enc, ref Encoder
	}{{DC{}, DC{}}, {OptFixed(), OptFixed()}, {thirdParty{}, thirdParty{}}} {
		want := make([]bus.Cost, len(bursts))
		for i, b := range bursts {
			want[i] = CostOf(tc.ref, bus.InitialLineState, b)
		}
		for _, workers := range []int{0, 1, 3, 16} {
			got := ParallelCosts(tc.enc, bursts, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: cost[%d] = %+v, want %+v",
						tc.enc.Name(), workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelTotalCostRace is meaningful under -race: hammer the shared
// encoder value from many goroutines.
func TestParallelTotalCostRace(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	bursts := make([]bus.Burst, 256)
	for i := range bursts {
		bursts[i] = randomBurst(rng, 8)
	}
	for i := 0; i < 4; i++ {
		ParallelTotalCost(Opt{Weights: FixedWeights}, bursts, 8)
	}
}
