package dbi

import (
	"fmt"

	"dbiopt/internal/bus"
)

// Adapter chooses the coding scheme a Stream applies, burst by burst. An
// adaptive stream asks Current for the live encoder before each burst and
// reports the burst back through Observe afterwards, which is where an
// implementation (internal/adapt's windowed controller) accumulates shadow
// costs and decides switches. One Adapter drives exactly one lane: adapters
// carry per-lane state and must not be shared between streams.
type Adapter interface {
	// Current returns the live encoder the next burst must be encoded
	// with. It must be stable between Observe calls.
	Current() Encoder
	// Observe accounts one burst transmitted on the live wire. cost is
	// the exact activity of the transmission the stream just performed —
	// the live scheme's shadow chain coincides with the real wire, so an
	// implementation can account the live scheme from it without
	// re-encoding. next is the lane's wire state after the burst — the
	// re-seed point of the switch protocol when the call decides to
	// change schemes.
	Observe(b bus.Burst, cost bus.Cost, next bus.LineState)
	// Reset returns the adapter to its initial state (shadow chains,
	// windows, live scheme), mirroring Stream.Reset.
	Reset()
}

// KernelAdapter is an Adapter that holds pre-compiled kernels for its
// candidate schemes. Streams detect it once at construction: each burst
// then binds the live kernel directly, with no per-burst interface probing
// and no recompilation on switch (internal/adapt's controller implements
// this). Plain Adapters still work — the stream compiles on demand and
// re-compiles only when the live encoder changes.
type KernelAdapter interface {
	Adapter
	// CurrentKernel returns the compiled form of Current. The two must
	// agree between Observe calls.
	CurrentKernel() *Kernel
}

// Stream wraps an Encoder with the persistent per-lane line state a real
// PHY maintains: the wires do not reset between bursts, so the encoding of
// each burst starts from the final wire state of the previous one. Stream
// also accumulates the exact activity counts of everything it has
// transmitted, which is what the energy models consume.
//
// Stream owns reusable encode scratch, so steady-state Transmit performs
// zero heap allocations for every built-in scheme.
type Stream struct {
	// kern is the compiled form of the stream's scheme: every encode
	// decision (mask routing, trellis flavour, coefficients) was made once
	// at compile time, so Transmit is dispatch-free. For adaptive streams
	// it caches the most recently used kernel (nil until first use when the
	// adapter is a KernelAdapter, which supplies kernels itself).
	kern     *Kernel
	adapter  Adapter       // nil for fixed-scheme streams
	kadapter KernelAdapter // adapter's compiled view, when it has one
	state    bus.LineState
	total    bus.Cost
	beats    int
	// inv, wire and wmask are reusable scratch: the inversion pattern of
	// the current burst and the wire image built from it. They grow to the
	// largest burst seen and are then recycled on every Transmit. inv is
	// only touched on the []bool fallback path; the mask fast paths keep
	// the whole pattern in registers (wmask, for bursts past one word).
	inv   []bool
	wire  bus.Wire
	wmask bus.WideMask
}

// NewStream returns a streaming encoder starting from the idle (all-ones)
// line state. The encoder compiles to a Kernel here, once; use
// Kernel.NewStream to share one compiled kernel across many streams.
func NewStream(enc Encoder) *Stream {
	return &Stream{kern: kernelOf(enc), state: bus.InitialLineState}
}

// NewStreamFrom returns a streaming encoder starting from an explicit line
// state.
func NewStreamFrom(enc Encoder, state bus.LineState) *Stream {
	return &Stream{kern: kernelOf(enc), state: state}
}

// NewAdaptiveStream returns a streaming encoder whose scheme is chosen
// burst by burst by a: before each burst the stream encodes with
// a.Current(), afterwards it reports the burst through a.Observe. The
// stream starts from the idle line state — the boundary condition the
// adapter's shadow chains assume. The adapter must be exclusive to this
// stream.
func NewAdaptiveStream(a Adapter) *Stream {
	if a == nil {
		panic("dbi: NewAdaptiveStream with nil adapter")
	}
	s := &Stream{adapter: a, state: bus.InitialLineState}
	if ka, ok := a.(KernelAdapter); ok {
		s.kadapter = ka
	} else {
		s.kern = kernelOf(a.Current())
	}
	return s
}

// Encoder returns the wrapped policy; for an adaptive stream, the live
// scheme the next burst would be encoded with.
func (s *Stream) Encoder() Encoder {
	if s.adapter != nil {
		return s.adapter.Current()
	}
	return s.kern.enc
}

// Adapter returns the stream's scheme controller, or nil for fixed-scheme
// streams.
func (s *Stream) Adapter() Adapter { return s.adapter }

// State returns the current wire state of the lane.
func (s *Stream) State() bus.LineState { return s.state }

// Transmit encodes one burst against the current line state, advances the
// state past it, accumulates its activity counts and returns the wire image.
//
// The burst runs through the stream's compiled kernel: OPT-FIXED-class
// schemes at the native burst length take the fused wire kernel (trellis,
// fill, cost and state in one straight-line pass); other mask-native
// schemes keep the inversion pattern packed in one register (or a
// bus.WideMask word per 64 beats past bus.MaxMaskBeats) and fill the wire
// branch-free; only schemes without a mask form for the burst (third-party
// registrations, GREEDY and EXHAUSTIVE at non-dyadic weights) take the
// []bool path, bit-identical by the kernel equivalence contracts.
// For adaptive streams the kernel comes from the adapter (pre-compiled per
// candidate when it is a KernelAdapter); nothing is probed per burst.
//
// The returned Wire aliases the stream's internal scratch: it is valid until
// the next Transmit or Reset on this stream. Callers that retain it longer
// must Clone it.
//
//dbi:hotpath
func (s *Stream) Transmit(b bus.Burst) bus.Wire {
	k := s.kern
	if s.kadapter != nil {
		k = s.kadapter.CurrentKernel()
	} else if s.adapter != nil {
		k = s.kernelFor(s.adapter.Current())
	}
	var cost bus.Cost
	var next bus.LineState
	if k.wire != nil && len(b) == bus.BurstLength {
		// Dispatch the fused wire kernel straight from the hot loop: one
		// indirect call for the whole burst, no intermediate frame.
		cost, next = k.wire(k, &s.wire, s.state, b)
	} else {
		cost, next = k.transmitInto(&s.wire, &s.wmask, &s.inv, s.state, b)
	}
	w := s.wire
	s.total = s.total.Add(cost)
	s.state = next
	s.beats += w.Len()
	if s.adapter != nil {
		s.adapter.Observe(b, cost, s.state)
	}
	return w
}

// kernelFor returns the compiled kernel for the adapter-selected encoder,
// reusing the cached one while the live scheme is unchanged. Switches hit
// the encoder-keyed kernel cache, so even adapters that ping-pong between
// schemes compile each one exactly once.
func (s *Stream) kernelFor(enc Encoder) *Kernel {
	if k := s.kern; k != nil && k.comparable && k.enc == enc {
		return k
	}
	k := kernelOf(enc)
	s.kern = k
	return k
}

// TotalCost returns the accumulated zero and transition counts of every
// burst transmitted so far.
func (s *Stream) TotalCost() bus.Cost { return s.total }

// Beats returns the number of beats transmitted so far.
func (s *Stream) Beats() int { return s.beats }

// Reset returns the stream to the idle state and clears the accumulators
// (and, on adaptive streams, the adapter's shadow chains and live scheme).
// The encode scratch is kept, so a reset stream stays allocation-free.
func (s *Stream) Reset() {
	s.state = bus.InitialLineState
	s.total = bus.Cost{}
	s.beats = 0
	if s.adapter != nil {
		s.adapter.Reset()
	}
}

// SeedState re-seeds the stream's line state mid-stream without touching
// the accumulators: the next burst encodes against state exactly as if
// every wire had just been driven there. This is the serving tier's resume
// seam — a rebuilt session starts its streams at the claimed wire state and
// accounts the pre-disconnect activity separately — and the same mechanism
// the adaptive switch protocol applies to shadow chains. It deliberately
// does not reset the adapter: adaptive re-seeding goes through the
// adapter's own re-seed entry point so its shadow chains stay consistent.
func (s *Stream) SeedState(state bus.LineState) { s.state = state }

// String summarises the stream for diagnostics.
func (s *Stream) String() string {
	return fmt.Sprintf("%s: %d beats, %d zeros, %d transitions",
		s.Encoder().Name(), s.beats, s.total.Zeros, s.total.Transitions)
}

// LaneSet drives one Stream per byte lane of a multi-lane bus, applying the
// same policy independently per lane exactly as the per-lane DBI wires of a
// x16/x32 device do.
type LaneSet struct {
	lanes []*Stream
	// kern is the uniform compiled policy shared by every lane, nil for
	// adaptive lane sets (whose lanes may diverge). It is what
	// TransmitBatch keys its frame-level fast path on.
	kern *Kernel
	// wires is the reusable per-frame result slice handed out by Transmit.
	wires []bus.Wire
	// batch is TransmitBatch's reusable struct-of-arrays frame state,
	// allocated on first use.
	batch *LaneBatch
}

// NewLaneSet creates n independent streams sharing one policy, compiled
// once for the lane geometry. The policy value is shared, which the
// registration contract (encoders are pure) makes safe.
func NewLaneSet(enc Encoder, n int) *LaneSet {
	if n <= 0 {
		panic(fmt.Sprintf("dbi: lane count must be positive, got %d", n))
	}
	return newLaneSetKernel(CompileEncoder(enc, Geometry{Lanes: n}), n)
}

// newLaneSetKernel builds a lane set whose lanes share one compiled kernel.
func newLaneSetKernel(k *Kernel, n int) *LaneSet {
	if n <= 0 {
		panic(fmt.Sprintf("dbi: lane count must be positive, got %d", n))
	}
	ls := &LaneSet{lanes: make([]*Stream, n), kern: k, wires: make([]bus.Wire, n)}
	for i := range ls.lanes {
		ls.lanes[i] = k.NewStream()
	}
	return ls
}

// NewAdaptiveLaneSet creates n adaptive streams, one per lane, each driven
// by its own Adapter from mk(lane). Lanes adapt independently — exactly as
// the per-lane DBI logic of a real device would — so a lane set may hold
// different live schemes on different lanes at the same instant. mk must
// return a fresh adapter per call; sharing one adapter across lanes would
// interleave their shadow chains.
func NewAdaptiveLaneSet(mk func(lane int) Adapter, n int) *LaneSet {
	if n <= 0 {
		panic(fmt.Sprintf("dbi: lane count must be positive, got %d", n))
	}
	ls := &LaneSet{lanes: make([]*Stream, n), wires: make([]bus.Wire, n)}
	for i := range ls.lanes {
		ls.lanes[i] = NewAdaptiveStream(mk(i))
	}
	return ls
}

// Lanes returns the number of lanes.
func (ls *LaneSet) Lanes() int { return len(ls.lanes) }

// Lane returns the stream of lane i.
func (ls *LaneSet) Lane(i int) *Stream { return ls.lanes[i] }

// Transmit encodes one frame, lane by lane, and returns the per-lane wire
// images.
//
// The returned slice and the Wires in it alias the lane set's internal
// scratch: both are valid until the next Transmit or Reset. Callers that
// retain them longer must copy the slice and Clone the wires.
//
//dbi:hotpath
func (ls *LaneSet) Transmit(f bus.Frame) []bus.Wire {
	if f.Lanes() != len(ls.lanes) {
		panic(fmt.Sprintf("dbi: frame has %d lanes, lane set has %d", f.Lanes(), len(ls.lanes))) //dbi:allow-escape panic formatting, dead on valid input
	}
	for i, b := range f {
		ls.wires[i] = ls.lanes[i].Transmit(b)
	}
	return ls.wires
}

// transmitBatch encodes lanes [lo,hi) of f as one LaneBatch with the
// compiled kernel and folds the results into the corresponding streams'
// accumulators: one Kernel.EncodeBatch call instead of hi-lo dispatches,
// and no wire images are built — the batch carries word-packed masks,
// costs and states only. It reports false (streams untouched) when the
// lane slice is ragged, the geometry the batch kernels do not model; the
// caller then falls back to per-lane Transmit. Shared by
// LaneSet.TransmitBatch and the pipeline's shard workers.
//
//dbi:hotpath
func transmitBatch(k *Kernel, streams []*Stream, f bus.Frame, lo, hi int, lb *LaneBatch) bool {
	n := hi - lo
	if n == 0 {
		lb.Reset(0, 0)
		return true
	}
	beats := len(f[lo])
	for i := lo + 1; i < hi; i++ {
		if len(f[i]) != beats {
			return false
		}
	}
	lb.Reset(n, beats)
	for i := 0; i < n; i++ {
		lb.SetPrev(i, streams[lo+i].state)
		lb.SetLane(i, f[lo+i])
	}
	k.EncodeBatch(lb)
	for i := 0; i < n; i++ {
		s := streams[lo+i]
		s.total = s.total.Add(lb.Cost(i))
		s.state = lb.Next(i)
		s.beats += beats
	}
	return true
}

// TransmitBatch encodes one frame as a single struct-of-arrays batch and
// returns it: per-lane word-packed inversion patterns, exact costs and
// post-burst states, with the streams' accumulators advanced exactly as N
// Transmit calls would — but without building per-lane wire images, which
// is what makes it the fast path for frame-level callers (the serving tier
// packs masks straight from the batch words). Adaptive lane sets and
// ragged frames fall back to per-lane Transmit internally, with the wire
// results repacked into the same batch form.
//
// The returned batch aliases the lane set's internal scratch: it is valid
// until the next TransmitBatch or Reset.
//
//dbi:hotpath
func (ls *LaneSet) TransmitBatch(f bus.Frame) *LaneBatch {
	if f.Lanes() != len(ls.lanes) {
		panic(fmt.Sprintf("dbi: frame has %d lanes, lane set has %d", f.Lanes(), len(ls.lanes))) //dbi:allow-escape panic formatting, dead on valid input
	}
	if ls.batch == nil {
		ls.batch = new(LaneBatch) //dbi:allow-escape one-time scratch, amortized across frames
	}
	lb := ls.batch
	if ls.kern != nil && transmitBatch(ls.kern, ls.lanes, f, 0, len(ls.lanes), lb) {
		return lb
	}
	// Per-lane fallback: adaptive lanes need their per-burst Observe, and
	// ragged frames have no uniform batch geometry. Transmit does the work;
	// the wire's inversion pattern and the accumulator deltas repack into
	// the batch so callers see one result shape either way.
	beats := 0
	for _, b := range f {
		if len(b) > beats {
			beats = len(b)
		}
	}
	lb.Reset(len(ls.lanes), beats)
	var wm bus.WideMask
	for i, b := range f {
		s := ls.lanes[i]
		lb.SetPrev(i, s.state)
		lb.SetLane(i, b)
		before := s.total
		w := s.Transmit(b)
		w.WideInvMask(&wm)
		copy(lb.MaskWords(i), wm.Words())
		lb.costs[i] = bus.Cost{
			Zeros:       s.total.Zeros - before.Zeros,
			Transitions: s.total.Transitions - before.Transitions,
		}
		lb.next[i] = s.state
	}
	return lb
}

// TotalCost sums the activity counts over all lanes.
func (ls *LaneSet) TotalCost() bus.Cost {
	var c bus.Cost
	for _, l := range ls.lanes {
		c = c.Add(l.TotalCost())
	}
	return c
}

// Reset resets every lane.
func (ls *LaneSet) Reset() {
	for _, l := range ls.lanes {
		l.Reset()
	}
}
