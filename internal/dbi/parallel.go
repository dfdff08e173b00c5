package dbi

import (
	"runtime"
	"sync"

	"dbiopt/internal/bus"
)

// TotalCost sums the exact wire activity of encoding every burst
// independently from the idle state — the aggregation all per-burst
// experiments reduce to. Because the counts are integers, the result is
// identical regardless of evaluation order. enc compiles to its kernel
// once; the per-burst evaluation is Kernel.Cost, mask-native and
// allocation-free for every scheme with a packed fast path.
func TotalCost(enc Encoder, bursts []bus.Burst) bus.Cost {
	k := kernelOf(enc)
	var total bus.Cost
	for _, b := range bursts {
		total = total.Add(k.Cost(bus.InitialLineState, b))
	}
	return total
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs fn on each from its own goroutine, returning after all complete.
// workers <= 0 selects GOMAXPROCS; a single effective worker runs fn
// inline. Both parallel drivers below share this split so their range
// arithmetic cannot drift apart.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelTotalCost is TotalCost fanned out over worker goroutines. Every
// encoder is a pure function of (prev, burst, weights) — the registration
// contract — so sharing one across goroutines is safe. workers <= 0
// selects GOMAXPROCS.
//
// Integer accumulation makes the result bit-identical to the serial
// version, so experiments stay deterministic when parallelised.
func ParallelTotalCost(enc Encoder, bursts []bus.Burst, workers int) bus.Cost {
	var total bus.Cost
	// Summed in index order; integer adds make any order equivalent.
	for _, c := range ParallelCosts(enc, bursts, workers) {
		total = total.Add(c)
	}
	return total
}

// ParallelCosts computes the per-burst from-idle cost of every burst, fanned
// out over worker goroutines. Results are positional — out[i] is the cost of
// bursts[i] — so any downstream reduction (including order-sensitive float
// sums) sees exactly the sequence the serial loop would produce. workers
// <= 0 selects GOMAXPROCS.
func ParallelCosts(enc Encoder, bursts []bus.Burst, workers int) []bus.Cost {
	out := make([]bus.Cost, len(bursts))
	// The kernel is immutable, so every range shares one compiled instance;
	// per-burst scratch (wide and fallback paths only) is pooled inside
	// Kernel.Cost, so workers never contend and the evaluation stays
	// allocation-free in steady state.
	k := kernelOf(enc)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = k.Cost(bus.InitialLineState, bursts[i])
		}
	}
	parallelRanges(len(bursts), workers, fill)
	return out
}
