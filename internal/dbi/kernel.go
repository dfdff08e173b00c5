// kernel.go is the scheme compiler: Compile resolves everything about a
// (scheme, Weights, bus geometry) triple that the per-burst hot paths used
// to re-decide on every call — scheme kind, weight representability
// (Weights.integerize), integer-vs-float trellis selection, greedy decision
// thresholds, narrow-vs-wide mask routing, and which of the old
// MaskEncoder/WideMaskEncoder/BatchEncoder fast paths apply — into one
// immutable Kernel of directly callable function values. Consumers (Stream,
// the adaptive shadow chains, LaneBatch, the pipeline shard workers, the
// serving tier) bind a *Kernel once and never probe an interface again.
//
// A Kernel is total over the registry: schemes without native kernels
// (third-party registrations) compile through a generic fallback
// that binds their interface fast paths once, so every consumer speaks one
// surface and the interface quartet becomes an implementation detail.
package dbi

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"sync"

	"dbiopt/internal/bus"
)

// Geometry describes the bus a kernel is compiled for. It is advisory: a
// kernel stays correct for any burst length, but the compiler uses the
// geometry to bias fast-path selection (a Beats within the single-word
// bound keeps the narrow trellis first, a Lanes count sizes batch
// expectations). The zero value means "unspecified", which compiles the
// fully general kernel.
type Geometry struct {
	// Beats is the expected burst length in beats; 0 if unknown.
	Beats int
	// Lanes is the expected lane count of frame-level callers; 0 if
	// unknown.
	Lanes int
}

// Kernel is one scheme compiled against one weight vector and one bus
// geometry: a set of dispatch-free function values chosen once at compile
// time, plus the frozen constants (scaled integer coefficients, greedy
// decision thresholds) those functions run on. Kernels are immutable and
// safe to share across goroutines; all mutable encode scratch lives in the
// caller (Stream, LaneBatch) or in pooled per-call scratch.
type Kernel struct {
	name    string
	enc     Encoder
	weights Weights
	geom    Geometry
	// comparable records whether enc's dynamic type supports ==; adaptive
	// streams use it to detect scheme switches without risking a panic on
	// uncomparable third-party encoders.
	comparable bool

	// Frozen integer-cost constants: the scaled trellis coefficients (when
	// the weights have an exact integer scale) and the greedy per-popcount
	// decision thresholds derived from them.
	ia, ib int64
	intOK  bool
	thr    [9]int64

	// The compiled entry points. A nil field means the scheme has no such
	// path and the caller must fall to the next one; fn-value calls carry
	// no interface dispatch and no per-burst re-decision.
	mask  func(k *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool)
	words func(k *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool
	// batch is the frame-level path; it may decline a batch (false), and
	// the per-lane driver then runs instead.
	batch func(k *Kernel, lb *LaneBatch) bool
	// wire is the fully fused fast path: trellis, wire fill, cost and final
	// state in one straight-line pass. Set only for unit-coefficient
	// integer trellis schemes, whose batch path is the same fused core;
	// both apply at the native burst length only.
	wire func(k *Kernel, w *bus.Wire, prev bus.LineState, b bus.Burst) (bus.Cost, bus.LineState)

	// Generic-fallback bindings: the old interface fast paths, probed once
	// at compile time for schemes without native kernels.
	menc MaskEncoder
	wenc WideMaskEncoder
	benc BatchEncoder
}

// Name returns the registry name the kernel was compiled from (or the
// encoder's display name when compiled directly from an Encoder value).
func (k *Kernel) Name() string { return k.name }

// Encoder returns the underlying encoder the kernel was compiled from; the
// []bool EncodeInto path of that encoder remains the kernel's correctness
// oracle.
func (k *Kernel) Encoder() Encoder { return k.enc }

// Weights returns the weight vector the kernel was compiled with.
func (k *Kernel) Weights() Weights { return k.weights }

// Geometry returns the bus geometry the kernel was compiled for.
func (k *Kernel) Geometry() Geometry { return k.geom }

// Compile looks name up in the scheme registry with the given weights and
// compiles the resulting encoder for the geometry. All per-triple decisions
// — integer-vs-float trellis, scaled coefficients, greedy thresholds, which
// mask paths exist — happen here, once; the returned kernel's entry points
// never re-decide them.
func Compile(name string, w Weights, geom Geometry) (*Kernel, error) {
	enc, err := Lookup(name, w)
	if err != nil {
		return nil, err
	}
	k := CompileEncoder(enc, geom)
	k.name = name
	return k, nil
}

// kernelKey identifies one compiled triple in the kernel cache.
type kernelKey struct {
	name string
	w    Weights
	geom Geometry
}

// kernelCache memoises LookupKernel: kernels are immutable and shareable,
// so every consumer of the same (scheme, weights, geometry) triple — all
// lanes of a lane set, all sessions of a server, every adaptive
// controller's shadow chain — binds the same compiled instance.
var kernelCache sync.Map // kernelKey -> *Kernel

// LookupKernel is the registry-integrated form of Compile: it returns the
// cached kernel for the triple, compiling on first use.
func LookupKernel(name string, w Weights, geom Geometry) (*Kernel, error) {
	key := kernelKey{name: name, w: w, geom: geom}
	if v, ok := kernelCache.Load(key); ok {
		return v.(*Kernel), nil
	}
	k, err := Compile(name, w, geom)
	if err != nil {
		return nil, err
	}
	v, _ := kernelCache.LoadOrStore(key, k)
	return v.(*Kernel), nil
}

// encKernelCache memoises kernelOf by encoder value, so entry points that
// take a bare Encoder (NewStream, EncodeLaneBatch, TotalCost, adapter
// switches) compile each distinct encoder value once. Only comparable
// values can key a map.
var encKernelCache sync.Map // Encoder -> *Kernel

// kernelOf returns the compiled kernel for an encoder value, cached when
// the value is comparable. Uncomparable third-party structs cannot key a
// map and compile fresh, which is still only a per-construction cost.
func kernelOf(enc Encoder) *Kernel {
	t := reflect.TypeOf(enc)
	cmp := t != nil && t.Comparable()
	if cmp {
		if v, ok := encKernelCache.Load(enc); ok {
			return v.(*Kernel)
		}
	}
	k := CompileEncoder(enc, Geometry{})
	if cmp {
		encKernelCache.Store(enc, k)
	}
	return k
}

// CompileEncoder compiles an already-constructed encoder for the geometry.
// Built-in schemes get native kernels — static concrete calls, frozen
// coefficients, no interface dispatch; third-party registrations get the
// generic fallback, which binds the encoder's interface fast paths once so
// Kernel is total over the registry.
func CompileEncoder(enc Encoder, geom Geometry) *Kernel {
	k := &Kernel{
		name: enc.Name(),
		enc:  enc,
		geom: geom,
	}
	if t := reflect.TypeOf(enc); t != nil {
		k.comparable = t.Comparable()
	}
	switch e := enc.(type) {
	case Raw:
		k.weights = FixedWeights
		k.mask, k.words, k.batch = maskRawK, wordsRawK, batchRawK
	case DC:
		k.weights = FixedWeights
		k.mask, k.words, k.batch = maskDCK, wordsDCK, batchDCK
	case AC:
		k.weights = FixedWeights
		k.mask, k.words, k.batch = maskACK, wordsACK, batchACK
	case ACDC:
		k.weights = FixedWeights
		k.mask, k.words, k.batch = maskACDCK, wordsACDCK, batchACDCK
	case Greedy:
		k.weights = e.Weights
		if ia, ib, ok := e.Weights.integerize(); ok {
			k.ia, k.ib, k.intOK = ia, ib, true
			k.thr = greedyThresholds(ia, ib)
			k.mask, k.words, k.batch = maskGreedyK, wordsGreedyK, batchGreedyK
		}
		// Weights with no exact integer scale have no greedy fast path at
		// all (the float comparison is the EncodeInto fallback), exactly as
		// the interface probes behaved.
	case Opt:
		k.weights = e.Weights
		if ia, ib, ok := e.Weights.integerize(); ok {
			k.ia, k.ib, k.intOK = ia, ib, true
			k.mask, k.words = maskOptIntK, wordsOptIntK
			if ia == 1 && ib == 1 {
				k.wire, k.batch = wireOptUnit8K, batchOptUnit8K
			}
		} else {
			k.mask, k.words = maskOptFloatK, wordsOptFloatK
		}
	case Quantized:
		k.weights = Weights{Alpha: float64(e.Alpha), Beta: float64(e.Beta)}
		k.ia, k.ib, k.intOK = int64(e.Alpha), int64(e.Beta), true
		k.mask, k.words = maskOptIntK, wordsQuantIntK
		if k.ia == 1 && k.ib == 1 {
			k.wire, k.batch = wireOptUnit8K, batchOptUnit8K
		}
	case Exhaustive:
		k.weights = e.Weights
		if ia, ib, ok := e.Weights.integerize(); ok {
			k.ia, k.ib, k.intOK = ia, ib, true
			k.mask, k.words = maskExhaustiveK, wordsExhaustiveK
		}
	default:
		k.menc = maskEncoderOf(enc)
		k.wenc = wideMaskEncoderOf(enc)
		k.benc = batchEncoderOf(enc)
		if k.menc != nil {
			k.mask = maskIfaceK
		}
		if k.wenc != nil {
			k.words = wordsIfaceK
		}
		if k.benc != nil {
			k.batch = batchIfaceK
		}
	}
	return k
}

// EncodeMask runs the compiled single-word mask path. ok is false when the
// scheme has none or it declines the burst; the caller falls back to
// EncodeMaskWords and then the []bool oracle, exactly as the old interface
// probes did — but the routing was decided at compile time.
//
//dbi:hotpath
func (k *Kernel) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	if k.mask == nil {
		return 0, false
	}
	return k.mask(k, prev, b)
}

// EncodeMaskWords runs the compiled multi-word mask path into words (laid
// out as bus.WideMask.Words, zeroed by the caller). It reports false when
// the scheme has no wide path or declines the burst.
//
//dbi:hotpath
func (k *Kernel) EncodeMaskWords(prev bus.LineState, b bus.Burst, words []uint64) bool {
	if k.words == nil {
		return false
	}
	return k.words(k, prev, b, words)
}

// EncodeBatch encodes every lane of a prepared batch (geometry, prev states
// and payload set; masks zeroed by Reset) and settles the per-lane costs
// and next states: through the compiled frame-level kernel when the scheme
// has one, else lane by lane through the compiled mask paths. Results are
// bit-identical to encoding each lane with its own Stream.
//
//dbi:hotpath
func (k *Kernel) EncodeBatch(lb *LaneBatch) {
	if k.batch == nil || !k.batch(k, lb) {
		k.encodeBatchLanes(lb)
	}
	if lb.settled {
		return
	}
	for l := 0; l < lb.lanes; l++ {
		b := lb.Lane(l)
		words := lb.MaskWords(l)
		lb.costs[l] = bus.MaskWordsCost(lb.prev[l], b, words)
		lb.next[l] = bus.MaskWordsFinalState(lb.prev[l], b, words)
	}
}

// encodeBatchLanes is the per-lane batch driver: each lane runs the
// kernel's fastest applicable path directly over the batch arrays, in
// lane order; schemes with no mask form for a lane (third-party
// registrations, GREEDY and EXHAUSTIVE at non-dyadic weights) take their
// EncodeInto path.
//
//dbi:hotpath
func (k *Kernel) encodeBatchLanes(lb *LaneBatch) {
	narrow := k.mask != nil && lb.beats <= bus.MaxMaskBeats
	for l := 0; l < lb.lanes; l++ {
		b := lb.Lane(l)
		words := lb.MaskWords(l)
		if narrow {
			if m, ok := k.mask(k, lb.prev[l], b); ok {
				if len(words) > 0 {
					words[0] = uint64(m) & (^uint64(0) >> (64 - len(b)))
				}
				continue
			}
		}
		if k.words != nil && k.words(k, lb.prev[l], b, words) {
			continue
		}
		lb.inv = k.enc.EncodeInto(lb.inv[:0], lb.prev[l], b)
		for t, f := range lb.inv {
			if f {
				words[t>>6] |= 1 << (t & 63)
			}
		}
	}
}

// kernScratch is pooled per-call encode scratch for the standalone cost
// entry points (Advance, Cost, FinalState) on paths that need buffers: the
// wide mask for multi-word bursts and the wire image for the []bool
// fallback. The register-resident narrow mask path never touches it.
type kernScratch struct {
	inv   []bool
	wire  bus.Wire
	wmask bus.WideMask
}

var kernScratchPool = sync.Pool{New: func() any { return new(kernScratch) }}

// Advance computes the exact activity counts of encoding b from prev and
// the line state after it, without building a caller-visible wire image:
// the accounting step of the adaptive shadow chains and the parallel cost
// drivers. Narrow bursts stay entirely in registers; wide and fallback
// paths borrow pooled scratch, so steady state allocates nothing.
//
//dbi:hotpath
func (k *Kernel) Advance(prev bus.LineState, b bus.Burst) (bus.Cost, bus.LineState) {
	if k.mask != nil && len(b) <= bus.MaxMaskBeats {
		if m, ok := k.mask(k, prev, b); ok {
			return bus.MaskCost(prev, b, m), bus.MaskFinalState(prev, b, m)
		}
	}
	sc := kernScratchPool.Get().(*kernScratch)
	if k.words != nil {
		sc.wmask.Reset(len(b)) //dbi:allow-escape wide-mask spill growth past the inline bound, amortized across bursts
		if k.words(k, prev, b, sc.wmask.Words()) {
			c := bus.MaskWordsCost(prev, b, sc.wmask.Words())
			st := bus.MaskWordsFinalState(prev, b, sc.wmask.Words())
			kernScratchPool.Put(sc)
			return c, st
		}
	}
	sc.inv = k.enc.EncodeInto(sc.inv[:0], prev, b)
	sc.wire.Fill(b, sc.inv)
	c := sc.wire.Cost(prev)
	st := sc.wire.FinalState(prev)
	kernScratchPool.Put(sc)
	return c, st
}

// Cost returns the exact activity counts of encoding b from prev.
//
//dbi:hotpath
func (k *Kernel) Cost(prev bus.LineState, b bus.Burst) bus.Cost {
	c, _ := k.Advance(prev, b)
	return c
}

// FinalState returns the line state after encoding b from prev.
//
//dbi:hotpath
func (k *Kernel) FinalState(prev bus.LineState, b bus.Burst) bus.LineState {
	_, st := k.Advance(prev, b)
	return st
}

// transmitInto is the Stream hot path: encode b from prev into the caller's
// wire scratch and return the exact cost and post-burst state. The fused
// wire kernel (when compiled) runs the whole burst in one straight-line
// pass; otherwise the compiled mask paths fill the wire from the packed
// pattern, and only maskless schemes walk the []bool oracle.
//
//dbi:hotpath
func (k *Kernel) transmitInto(w *bus.Wire, wm *bus.WideMask, invp *[]bool, prev bus.LineState, b bus.Burst) (bus.Cost, bus.LineState) {
	if k.wire != nil && len(b) == bus.BurstLength {
		return k.wire(k, w, prev, b)
	}
	if k.mask != nil && len(b) <= bus.MaxMaskBeats {
		if m, ok := k.mask(k, prev, b); ok {
			c := w.FillMaskCost(prev, b, m)
			return c, w.FinalState(prev)
		}
	}
	if k.words != nil {
		wm.Reset(len(b)) //dbi:allow-escape wide-mask spill growth past the inline bound, amortized across bursts
		if k.words(k, prev, b, wm.Words()) {
			c := w.FillMaskWordsCost(prev, b, wm.Words())
			return c, w.FinalState(prev)
		}
	}
	*invp = k.enc.EncodeInto((*invp)[:0], prev, b)
	w.Fill(b, *invp)
	return w.Cost(prev), w.FinalState(prev)
}

// NewStream returns a Stream bound to this kernel, starting from the idle
// line state. Kernels are immutable, so any number of streams may share
// one.
func (k *Kernel) NewStream() *Stream {
	return &Stream{kern: k, state: bus.InitialLineState}
}

// NewStreamFrom returns a Stream bound to this kernel starting from an
// explicit line state.
func (k *Kernel) NewStreamFrom(state bus.LineState) *Stream {
	return &Stream{kern: k, state: state}
}

// NewLaneSet returns n independent streams sharing this kernel.
func (k *Kernel) NewLaneSet(n int) *LaneSet {
	return newLaneSetKernel(k, n)
}

// NewPipeline returns a pipeline encoding frames of the given lane count
// with this kernel.
func (k *Kernel) NewPipeline(lanes int, opts ...PipelineOption) *Pipeline {
	return newPipelineKernel(k, lanes, opts...)
}

// ---- Native kernels: the weight-free table-driven schemes -------------
//
// These call the concrete scheme methods statically — the methods are
// defined on zero-size value types, so the calls inline and carry no
// interface dispatch.

//dbi:hotpath
func maskRawK(_ *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	return Raw{}.EncodeMask(prev, b)
}

//dbi:hotpath
func wordsRawK(_ *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	return Raw{}.EncodeMaskWords(prev, b, words)
}

//dbi:hotpath
func batchRawK(_ *Kernel, lb *LaneBatch) bool { return true }

//dbi:hotpath
func maskDCK(_ *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	return DC{}.EncodeMask(prev, b)
}

//dbi:hotpath
func wordsDCK(_ *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	return DC{}.EncodeMaskWords(prev, b, words)
}

//dbi:hotpath
func batchDCK(_ *Kernel, lb *LaneBatch) bool {
	dcBatchFused(lb)
	lb.settled = true
	return true
}

//dbi:hotpath
func maskACK(_ *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	return AC{}.EncodeMask(prev, b)
}

//dbi:hotpath
func wordsACK(_ *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	return AC{}.EncodeMaskWords(prev, b, words)
}

//dbi:hotpath
func batchACK(_ *Kernel, lb *LaneBatch) bool {
	acBatch(lb, false)
	return true
}

//dbi:hotpath
func maskACDCK(_ *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	return ACDC{}.EncodeMask(prev, b)
}

//dbi:hotpath
func wordsACDCK(_ *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	return ACDC{}.EncodeMaskWords(prev, b, words)
}

//dbi:hotpath
func batchACDCK(_ *Kernel, lb *LaneBatch) bool {
	acBatch(lb, true)
	return true
}

// ---- Native kernels: greedy with frozen thresholds --------------------

// maskGreedyK is Greedy.EncodeMask with the weights integerized at compile
// time and the per-beat weighted products replaced by the precomputed
// threshold table: invert iff u >= thr[ones(v)], where u is the wire-domain
// distance-plus-settle term (see greedyThresholds). Bit-identical to the
// product form by the threshold derivation.
//
//dbi:hotpath
func maskGreedyK(k *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	if len(b) > bus.MaxMaskBeats {
		return 0, false
	}
	var m bus.InvMask
	pp, pinv := acSeedByte(prev)
	p := int64(pinv)
	for t, v := range b {
		y := int64(bus.Ones(pp ^ v))
		u := y + (9-2*y)&(-p)
		var f int64
		if u >= k.thr[bus.Ones(v)] {
			f = 1
		}
		m |= bus.InvMask(f) << t
		pp, p = v, f
	}
	return m, true
}

//dbi:hotpath
func wordsGreedyK(k *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	greedyMaskWords(prev, b, k.ia, k.ib, words)
	return true
}

//dbi:hotpath
func batchGreedyK(k *Kernel, lb *LaneBatch) bool {
	greedyBatch(lb, k.ia, k.ib, &k.thr)
	return true
}

// ---- Native kernels: the trellis schemes ------------------------------

//dbi:hotpath
func maskOptIntK(k *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	n := len(b)
	if n > bus.MaxMaskBeats {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	return trellisMaskInt(prev, b, k.ia, k.ib), true
}

//dbi:hotpath
func maskOptFloatK(k *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	n := len(b)
	if n > bus.MaxMaskBeats {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	return trellisMaskFloat(prev, b, k.weights), true
}

// wordsOptIntK mirrors Opt.EncodeMaskWords for integerizable weights: the
// integer wide trellis while the accumulated costs stay exactly
// representable, the float trellis beyond (the per-burst wideIntExact check
// is the only decision left at encode time — it depends on the burst
// length).
//
//dbi:hotpath
func wordsOptIntK(k *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	n := len(b)
	if n == 0 {
		return true
	}
	if wideIntExact(n, k.ia, k.ib) {
		trellisWideInt(prev, b, k.ia, k.ib, words)
	} else {
		trellisWideFloat(prev, b, k.weights, words)
	}
	return true
}

//dbi:hotpath
func wordsOptFloatK(k *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	if len(b) == 0 {
		return true
	}
	trellisWideFloat(prev, b, k.weights, words)
	return true
}

// wordsQuantIntK mirrors Quantized.EncodeMaskWords: 3-bit coefficients
// keep any practical burst exactly representable, so the integer trellis
// always applies.
//
//dbi:hotpath
func wordsQuantIntK(k *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	if len(b) == 0 {
		return true
	}
	trellisWideInt(prev, b, k.ia, k.ib, words)
	return true
}

// ---- Native kernels: exhaustive ---------------------------------------

//dbi:hotpath
func maskExhaustiveK(k *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	n := len(b)
	if n > MaxExhaustiveBeats {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	return exhaustiveMask(prev, b, k.ia, k.ib), true
}

//dbi:hotpath
func wordsExhaustiveK(k *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	m, ok := maskExhaustiveK(k, prev, b)
	if !ok {
		return false
	}
	if len(b) > 0 {
		words[0] |= uint64(m)
	}
	return true
}

// ---- Generic fallback: interface fast paths bound once ----------------

//dbi:hotpath
func maskIfaceK(k *Kernel, prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	return k.menc.EncodeMask(prev, b)
}

//dbi:hotpath
func wordsIfaceK(k *Kernel, prev bus.LineState, b bus.Burst, words []uint64) bool {
	return k.wenc.EncodeMaskWords(prev, b, words)
}

//dbi:hotpath
func batchIfaceK(k *Kernel, lb *LaneBatch) bool {
	return k.benc.EncodeBatch(lb)
}

// ---- The fused unit-coefficient wire kernel ---------------------------

// popBytes computes the per-byte population counts of w in parallel: byte j
// of the result holds ones(byte j of w).
//
//dbi:hotpath
func popBytes(w uint64) uint64 {
	v := w - w>>1&0x5555555555555555
	v = v&0x3333333333333333 + v>>2&0x3333333333333333
	return (v + v>>4) & 0x0f0f0f0f0f0f0f0f
}

// optUnit8 is the fully fused OPT trellis for unit coefficients (alpha =
// beta = 1, the paper's OPT-FIXED hardware) at the native BL8 burst length,
// in mask form: w8 is the burst's 8 payload bytes as one little-endian
// word, and the result is the inversion mask (bit t set = beat t inverted)
// with the burst's exact cost and final state. Per-byte SWAR popcounts feed
// a manually unrolled forward-mask trellis (no backtrack — each beat's
// branch-free select carries both candidate masks forward in registers),
// and the cost and final state fall out of two popcounts over the inverted
// wire word. One straight-line pass with no memory traffic at all.
// Bit-identical to trellisMaskInt + MaskCost + MaskFinalState, including
// tie-breaking (pinned by TestOptUnit8MatchesTrellis and
// FuzzKernelEquivalence). The Stream path wraps it with the wire
// expansion (wireOptUnit8K), the batch path with the LaneBatch fill
// (batchOptUnit8K).
//
// The unroll is deliberate: the loop form spills the two mask registers to
// the stack on every iteration, costing ~30% of the whole kernel.
//
//dbi:hotpath
func optUnit8(prev bus.LineState, w8 uint64) (g uint64, c bus.Cost, next bus.LineState) {
	pv := popBytes(w8)
	yv := popBytes(w8 ^ (w8<<8 | uint64(prev.Data)))

	// Beat 0 enters from the fixed prior line state; the DBI wire settles
	// against prev.DBI.
	cp := int64(yv&0xff) + 8 - int64(pv&0xff)
	ci := 8 - int64(yv&0xff) + 1 + int64(pv&0xff)
	if prev.DBI {
		ci++
	} else {
		cp++
	}
	var mp, mi uint64 = 0, 1

	// Beats 1..7, unrolled with constant shift amounts. Each step: the two
	// path costs extend over the four trellis edges (transitions y against
	// a like predecessor, 9-y against an unlike one; zeros 8-p plain, p+1
	// inverted), and the candidate masks select their cheaper predecessor
	// branch-free.
	y := int64(yv >> 8 & 0xff)
	p := int64(pv >> 8 & 0xff)
	np, fp := cp+y, uint64(0)
	if c := ci + 9 - y; c < np {
		np, fp = c, 1
	}
	ni, fi := cp+9-y, uint64(0)
	if c := ci + y; c < ni {
		ni, fi = c, 1
	}
	cp, ci = np+8-p, ni+p+1
	selp, seli := -fp, -fi
	mp, mi = mi&selp|mp&^selp, (mi&seli|mp&^seli)|1<<1

	y = int64(yv >> 16 & 0xff)
	p = int64(pv >> 16 & 0xff)
	np, fp = cp+y, 0
	if c := ci + 9 - y; c < np {
		np, fp = c, 1
	}
	ni, fi = cp+9-y, 0
	if c := ci + y; c < ni {
		ni, fi = c, 1
	}
	cp, ci = np+8-p, ni+p+1
	selp, seli = -fp, -fi
	mp, mi = mi&selp|mp&^selp, (mi&seli|mp&^seli)|1<<2

	y = int64(yv >> 24 & 0xff)
	p = int64(pv >> 24 & 0xff)
	np, fp = cp+y, 0
	if c := ci + 9 - y; c < np {
		np, fp = c, 1
	}
	ni, fi = cp+9-y, 0
	if c := ci + y; c < ni {
		ni, fi = c, 1
	}
	cp, ci = np+8-p, ni+p+1
	selp, seli = -fp, -fi
	mp, mi = mi&selp|mp&^selp, (mi&seli|mp&^seli)|1<<3

	y = int64(yv >> 32 & 0xff)
	p = int64(pv >> 32 & 0xff)
	np, fp = cp+y, 0
	if c := ci + 9 - y; c < np {
		np, fp = c, 1
	}
	ni, fi = cp+9-y, 0
	if c := ci + y; c < ni {
		ni, fi = c, 1
	}
	cp, ci = np+8-p, ni+p+1
	selp, seli = -fp, -fi
	mp, mi = mi&selp|mp&^selp, (mi&seli|mp&^seli)|1<<4

	y = int64(yv >> 40 & 0xff)
	p = int64(pv >> 40 & 0xff)
	np, fp = cp+y, 0
	if c := ci + 9 - y; c < np {
		np, fp = c, 1
	}
	ni, fi = cp+9-y, 0
	if c := ci + y; c < ni {
		ni, fi = c, 1
	}
	cp, ci = np+8-p, ni+p+1
	selp, seli = -fp, -fi
	mp, mi = mi&selp|mp&^selp, (mi&seli|mp&^seli)|1<<5

	y = int64(yv >> 48 & 0xff)
	p = int64(pv >> 48 & 0xff)
	np, fp = cp+y, 0
	if c := ci + 9 - y; c < np {
		np, fp = c, 1
	}
	ni, fi = cp+9-y, 0
	if c := ci + y; c < ni {
		ni, fi = c, 1
	}
	cp, ci = np+8-p, ni+p+1
	selp, seli = -fp, -fi
	mp, mi = mi&selp|mp&^selp, (mi&seli|mp&^seli)|1<<6

	y = int64(yv >> 56)
	p = int64(pv >> 56)
	np, fp = cp+y, 0
	if c := ci + 9 - y; c < np {
		np, fp = c, 1
	}
	ni, fi = cp+9-y, 0
	if c := ci + y; c < ni {
		ni, fi = c, 1
	}
	cp, ci = np+8-p, ni+p+1
	selp, seli = -fp, -fi
	mp, mi = mi&selp|mp&^selp, (mi&seli|mp&^seli)|1<<7

	// Cheaper final node wins; ties prefer non-inverted, matching
	// backtrackMask.
	m := mp
	if ci < cp {
		m = mi
	}
	g = m & 0xff
	wi := w8 ^ invertBytes(g)
	// Exact accounting from two popcounts: DQ zeros are the cleared bits of
	// the inverted wire word, the DBI wire contributes one zero per
	// inverted beat (the wire idles high) and toggles where consecutive
	// decisions differ, seeded against prev.DBI.
	var carry uint64
	if !prev.DBI {
		carry = 1
	}
	c.Zeros = bits.OnesCount64(g) + 64 - bits.OnesCount64(wi)
	c.Transitions = bits.OnesCount64((g^(g<<1|carry))&0xff) + bits.OnesCount64(wi^(wi<<8|uint64(prev.Data)))
	return g, c, bus.LineState{Data: byte(wi >> 56), DBI: g>>7&1 == 0}
}

// invertBytes expands an 8-beat inversion mask into the XOR word that
// applies it to a little-endian burst word: byte t is 0xff where bit t of g
// is set. It smears each decision bit across its byte — the same expansion
// bus.expandMaskBits uses.
//
//dbi:hotpath
func invertBytes(g uint64) uint64 {
	x := g * 0x0101010101010101 & 0x8040201008040201
	x = (x + 0x7f7f7f7f7f7f7f7f) & 0x8080808080808080
	return x >> 7 * 0xff
}

// wireOptUnit8K is optUnit8 plus the wire fill: the Stream path's fused
// kernel for unit-coefficient trellis schemes at BL8. The scratch is sized
// before the core runs, so the core's results stay in registers through
// the fill.
//
//dbi:hotpath
func wireOptUnit8K(_ *Kernel, w *bus.Wire, prev bus.LineState, b bus.Burst) (bus.Cost, bus.LineState) {
	if cap(w.Data) < 8 {
		w.Data = make([]byte, 8) //dbi:allow-escape wire scratch growth on first use, amortized across bursts
	}
	if cap(w.DBI) < 8 {
		w.DBI = make([]bool, 8) //dbi:allow-escape wire scratch growth on first use, amortized across bursts
	}
	data, dbi := w.Data[:8], w.DBI[:8]
	w.Data, w.DBI = data, dbi
	w8 := binary.LittleEndian.Uint64(b)
	g, c, next := optUnit8(prev, w8)
	binary.LittleEndian.PutUint64(data, w8^invertBytes(g))
	dbi[0] = g&1 == 0
	dbi[1] = g>>1&1 == 0
	dbi[2] = g>>2&1 == 0
	dbi[3] = g>>3&1 == 0
	dbi[4] = g>>4&1 == 0
	dbi[5] = g>>5&1 == 0
	dbi[6] = g>>6&1 == 0
	dbi[7] = g>>7&1 == 0
	return c, next
}

// batchOptUnit8K is optUnit8 over every lane of a BL8 batch, writing each
// lane's mask word, cost and next state straight into the batch (one mask
// word per lane at 8 beats) and marking it settled. Any other burst length
// declines to the per-lane driver: the choice depends on the batch's
// geometry alone.
//
//dbi:hotpath
func batchOptUnit8K(_ *Kernel, lb *LaneBatch) bool {
	if lb.beats != bus.BurstLength {
		return false
	}
	data := lb.data
	masks, costs, next := lb.masks[:lb.lanes], lb.costs[:lb.lanes], lb.next[:lb.lanes]
	for l, prev := range lb.prev[:lb.lanes] {
		masks[l], costs[l], next[l] = optUnit8(prev, binary.LittleEndian.Uint64(data[l*8:]))
	}
	lb.settled = true
	return true
}
