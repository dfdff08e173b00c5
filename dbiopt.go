// Package dbiopt is the public API of the optimal DC/AC data bus inversion
// (DBI) coding library, a reproduction of Lucas, Lal and Juurlink, "Optimal
// DC/AC Data Bus Inversion Coding", DATE 2018.
//
// DBI coding decides, for every byte crossing a POD-signalled memory bus
// (GDDR5/GDDR5X/DDR4), whether to transmit it inverted, trading transmitted
// zeros (DC termination energy) against wire transitions (CV² energy). This
// package exposes:
//
//   - the coding schemes: RAW, DBI DC, DBI AC, DBI ACDC, a weighted greedy
//     heuristic, and the paper's optimal trellis encoder in float,
//     fixed-coefficient and 3-bit-integer variants (NewEncoder, Opt,
//     OptFixed, ...);
//   - exact wire-level accounting (Encode, CostOf, Stream);
//   - a sharded streaming pipeline for multi-lane trace workloads
//     (NewPipeline), encoding lanes concurrently with totals bit-identical
//     to the serial path;
//   - the CACTI-IO-derived POD link energy model (POD135, POD12, POD15);
//   - the experiment runners reproducing every figure and table of the
//     paper (see package internal/experiments, surfaced through the
//     cmd/dbibench tool).
//
// Quick start:
//
//	link := dbiopt.POD135(3*dbiopt.PicoFarad, 12*dbiopt.Gbps)
//	enc := dbiopt.Opt(link.Weights())
//	st := dbiopt.NewStream(enc)
//	wire := st.Transmit(dbiopt.Burst{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4})
//	fmt.Println(wire, link.BurstEnergy(st.TotalCost()))
package dbiopt

import (
	"fmt"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/phy"
)

// Core vocabulary, aliased from the internal packages so the public surface
// is a single import.
type (
	// Burst is the payload of one burst on a byte lane: the bytes to move,
	// before coding.
	Burst = bus.Burst
	// LineState is the electrical state of a lane's 9 wires (8 DQ + DBI).
	LineState = bus.LineState
	// Wire is the wire-level image of an encoded burst.
	Wire = bus.Wire
	// Cost counts transmitted zeros and wire transitions, DBI wire
	// included.
	Cost = bus.Cost
	// Frame is a multi-lane payload (one Burst per byte lane).
	Frame = bus.Frame
	// InvMask is a packed per-beat inversion pattern: bit t set iff beat t
	// is transmitted inverted. The bit-parallel fast-path representation of
	// the encode core, for bursts of up to MaxMaskBeats beats.
	InvMask = bus.InvMask
	// Encoder is a DBI coding policy.
	Encoder = dbi.Encoder
	// Kernel is a coding scheme compiled against one weight vector and one
	// bus geometry: every encode decision — integer-vs-float trellis,
	// scaled coefficients, mask routing, batch kernels — frozen once at
	// compile time into directly callable function values. Kernels are
	// immutable and safe to share; CompileScheme produces them, and every
	// consumer (Stream, LaneSet, Pipeline, the serving tier) binds one
	// internally. This is the package's one compiled capability surface:
	// any registered scheme, built-in or third-party, compiles to a total
	// Kernel.
	Kernel = dbi.Kernel
	// Geometry is the advisory bus shape a Kernel is compiled for (expected
	// beats per burst, lanes per frame); the zero value compiles the fully
	// general kernel.
	Geometry = dbi.Geometry
	// MaskEncoder is the bit-parallel fast path of an Encoder: EncodeMask
	// returns the inversion pattern packed into an InvMask.
	//
	// Deprecated: probe-style fast-path interfaces are superseded by the
	// compiled Kernel surface — CompileScheme resolves the fastest paths
	// once instead of per call site, and is total over the registry. The
	// alias remains for compatibility; new code should not type-assert it.
	MaskEncoder = dbi.MaskEncoder
	// WideMask is a multi-word packed inversion pattern — one bit per beat,
	// 64 beats per word — extending the InvMask representation to bursts of
	// any length. Patterns up to MaxInlineWideBeats live in an inline array,
	// so resetting and refilling a reused WideMask allocates nothing.
	WideMask = bus.WideMask
	// WideMaskEncoder is the multi-word fast path of an Encoder:
	// EncodeMaskWords fills a caller-provided zeroed word slice (one bit per
	// beat) for bursts past MaxMaskBeats.
	//
	// Deprecated: superseded by the compiled Kernel surface (see
	// MaskEncoder's note); Kernel.EncodeMaskWords is the compiled form.
	// The alias remains for compatibility.
	WideMaskEncoder = dbi.WideMaskEncoder
	// LaneBatch is the struct-of-arrays encode state of one frame: all
	// lanes' prior states, payload bytes, word-packed masks, exact costs and
	// post-burst states in contiguous arrays. Produced by
	// LaneSet.TransmitBatch and EncodeLaneBatch.
	LaneBatch = dbi.LaneBatch
	// BatchEncoder is the frame-level fast path of an Encoder: EncodeBatch
	// fills every lane's mask words of a LaneBatch in one call. The
	// table-driven built-ins implement it natively; other schemes run
	// through the generic per-lane driver inside EncodeLaneBatch.
	BatchEncoder = dbi.BatchEncoder
	// Weights are the per-transition (Alpha) and per-zero (Beta) costs the
	// optimal encoder minimises.
	Weights = dbi.Weights
	// Stream encodes consecutive bursts against the persistent wire state.
	Stream = dbi.Stream
	// LaneSet runs one Stream per lane of a wide bus.
	LaneSet = dbi.LaneSet
	// Pipeline encodes multi-lane streaming workloads concurrently, sharded
	// by lane, with totals bit-identical to a serial LaneSet replay.
	Pipeline = dbi.Pipeline
	// PipelineOption configures a Pipeline (see WithWorkers,
	// WithChunkFrames).
	PipelineOption = dbi.PipelineOption
	// PipelineResult is the exact activity accounting of a pipeline run.
	PipelineResult = dbi.PipelineResult
	// FrameSource yields successive frames of a streaming workload; it ends
	// with io.EOF.
	FrameSource = dbi.FrameSource
	// Link is the POD interface energy model.
	Link = phy.Link
)

// InitialLineState is the all-wires-high idle state of a POD lane, the
// boundary condition the paper encodes each burst against.
var InitialLineState = bus.InitialLineState

// BurstLength is the standard burst length (BL8).
const BurstLength = bus.BurstLength

// MaxMaskBeats is the longest burst an InvMask can describe (one bit per
// beat of a 64-bit word); longer bursts take the multi-word WideMask path.
const MaxMaskBeats = bus.MaxMaskBeats

// MaxInlineWideBeats is the longest burst a WideMask holds without heap
// allocation; longer patterns spill to a grown-once backing slice.
const MaxInlineWideBeats = bus.MaxInlineWideBeats

// Unit constants for readable physical literals.
const (
	PicoFarad = phy.PicoFarad
	Gbps      = phy.Gbps
)

// SchemeFactory constructs a scheme instance for given weights; see
// RegisterScheme.
type SchemeFactory = dbi.Factory

// mustScheme fetches a weight-free scheme from the registry. The built-in
// weight-free factories never fail, so an error here is a programming
// error in this package.
func mustScheme(name string) Encoder {
	enc, err := dbi.Lookup(name, dbi.FixedWeights)
	if err != nil {
		panic(fmt.Sprintf("dbiopt: built-in scheme %q missing from registry: %v", name, err))
	}
	return enc
}

// Raw returns the unencoded baseline scheme.
func Raw() Encoder { return mustScheme("RAW") }

// DC returns the JEDEC DBI DC scheme (invert iff ≥ 5 zeros in the byte).
func DC() Encoder { return mustScheme("DC") }

// AC returns the JEDEC DBI AC scheme (greedy transition minimisation).
func AC() Encoder { return mustScheme("AC") }

// ACDC returns Hollis' hybrid scheme (first byte DC, rest AC).
func ACDC() Encoder { return mustScheme("ACDC") }

// Greedy returns the per-byte weighted heuristic (locally optimal only).
// Weights are not validated; use NewEncoder("GREEDY", w) for validation.
func Greedy(w Weights) Encoder { return dbi.NewGreedy(w) }

// Opt returns the paper's optimal trellis encoder for the given weights.
// Weights are not validated; use NewEncoder("OPT", w) for validation.
func Opt(w Weights) Encoder { return dbi.NewOpt(w) }

// OptFixed returns the fixed-coefficient optimal encoder (alpha = beta =
// 1), the hardware-friendly variant the paper recommends.
func OptFixed() Encoder { return mustScheme("OPT-FIXED") }

// OptQuantized returns the optimal encoder with 3-bit integer coefficients,
// mirroring the configurable hardware design. Coefficients must fit 0..7
// and not both be zero.
func OptQuantized(alpha, beta uint8) (Encoder, error) { return dbi.NewQuantized(alpha, beta) }

// NewEncoder returns a scheme by registered name; the built-ins are "RAW",
// "DC", "AC", "ACDC", "GREEDY", "OPT", "OPT-FIXED", "QUANTISED" and
// "EXHAUSTIVE", and RegisterScheme can add more. Weighted schemes validate
// and use w; the others ignore it.
func NewEncoder(name string, w Weights) (Encoder, error) { return dbi.Lookup(name, w) }

// CompileScheme compiles a registered scheme against one weight vector and
// one bus geometry and returns its Kernel, cached per triple. Every
// decision the per-burst hot paths used to make — scheme kind,
// integer-vs-float trellis, scaled coefficients, greedy thresholds,
// narrow-vs-wide mask routing — happens here, once. Third-party schemes
// added with RegisterScheme compile too (through the generic fallback that
// binds whatever fast paths they implement), so the compiled surface is
// total over the registry:
//
//	kern, err := dbiopt.CompileScheme("OPT-FIXED", dbiopt.Weights{}, dbiopt.Geometry{Lanes: 4})
//	if err != nil { ... }
//	ls := kern.NewLaneSet(4) // lanes share the compiled kernel
func CompileScheme(name string, w Weights, geom Geometry) (*Kernel, error) {
	return dbi.LookupKernel(name, w, geom)
}

// RegisterScheme adds a named scheme factory to the registry, making it
// constructible through NewEncoder and selectable via the CLIs' -scheme
// flag without touching this package. The factory must return a pure
// encoder: its pattern depends only on (prev, burst, weights), never on
// call order or instance, so one value is shared across goroutines and
// compiled once. It panics on duplicate or empty names.
func RegisterScheme(name string, f SchemeFactory) { dbi.Register(name, f) }

// SchemeNames lists the names NewEncoder accepts, built-ins first in
// presentation order, then custom registrations in registration order.
func SchemeNames() []string { return dbi.Names() }

// Encode runs enc on one burst from the given line state and returns the
// wire image.
func Encode(enc Encoder, prev LineState, b Burst) Wire { return dbi.EncodeWire(enc, prev, b) }

// CostOf returns the exact activity counts enc achieves on b from prev,
// via an independent wire-level recount.
func CostOf(enc Encoder, prev LineState, b Burst) Cost { return dbi.CostOf(enc, prev, b) }

// Decode recovers the payload from a wire image, as a DBI receiver does.
func Decode(w Wire) Burst { return w.Decode() }

// EncodeMask runs enc's bit-parallel fast path: the inversion pattern of b
// as a packed mask. ok is false when enc has no fast path or declines the
// burst (longer than MaxMaskBeats, or weights outside the exact-integer
// regime for schemes that require it); fall back to Encode then. When ok,
// the mask is bit-identical to the pattern Encode produces.
func EncodeMask(enc Encoder, prev LineState, b Burst) (InvMask, bool) {
	return dbi.EncodeMaskOf(enc, prev, b)
}

// ApplyMask produces the wire image of transmitting b with the packed
// inversion pattern m, the mask-native counterpart of Encode's output.
func ApplyMask(b Burst, m InvMask) Wire { return bus.ApplyMask(b, m) }

// MaskCost returns the exact activity counts of transmitting b with
// pattern m from prev — bit-identical to ApplyMask(b, m).Cost(prev), with
// the DBI wire accounted bit-parallel.
func MaskCost(prev LineState, b Burst, m InvMask) Cost { return bus.MaskCost(prev, b, m) }

// EncodeWideMask runs enc's multi-word fast path: the inversion pattern of
// b packed into m (reset to len(b) beats first), at any burst length. ok is
// false when enc has no wide path or declines the burst; fall back to
// Encode then. When ok, the pattern is bit-identical to Encode's.
func EncodeWideMask(enc Encoder, prev LineState, b Burst, m *WideMask) bool {
	return dbi.EncodeWideMaskOf(enc, prev, b, m)
}

// ApplyWideMask produces the wire image of transmitting b with the packed
// pattern m, the wide counterpart of ApplyMask. m must hold len(b) beats.
func ApplyWideMask(b Burst, m *WideMask) Wire { return bus.ApplyWideMask(b, m) }

// WideMaskCost returns the exact activity counts of transmitting b with
// pattern m from prev — bit-identical to ApplyWideMask(b, m).Cost(prev).
func WideMaskCost(prev LineState, b Burst, m *WideMask) Cost { return bus.WideMaskCost(prev, b, m) }

// WideMaskFinalState returns the lane state after transmitting b with
// pattern m from prev, without building the wire image.
func WideMaskFinalState(prev LineState, b Burst, m *WideMask) LineState {
	return bus.WideMaskFinalState(prev, b, m)
}

// PlainCost returns the exact activity counts of transmitting b uncoded
// (no inversions) from prev — the RAW baseline, bit-parallel at any length.
func PlainCost(prev LineState, b Burst) Cost { return bus.PlainCost(prev, b) }

// EncodeLaneBatch encodes every lane of a prepared LaneBatch with enc —
// natively for schemes with a frame-level batch path, else lane by lane
// over the batch arrays — and settles per-lane costs and post-burst states.
// Results are bit-identical to encoding each lane with its own Stream.
func EncodeLaneBatch(enc Encoder, lb *LaneBatch) { dbi.EncodeLaneBatch(enc, lb) }

// NewStream returns a streaming encoder starting from the idle line state.
// Steady-state Transmit performs zero heap allocations; the returned Wire
// aliases the stream's scratch and is valid until the next Transmit (Clone
// it to retain it longer).
func NewStream(enc Encoder) *Stream { return dbi.NewStream(enc) }

// NewLaneSet returns n independent per-lane streams sharing one policy.
// Like Stream, LaneSet.Transmit reuses internal scratch: the returned wire
// images are valid until the next Transmit.
func NewLaneSet(enc Encoder, n int) *LaneSet { return dbi.NewLaneSet(enc, n) }

// NewPipeline returns a sharded streaming encoder for frames of the given
// lane count. Lanes are independent Markov chains over LineState, so they
// are encoded concurrently with per-lane state continuity preserved; totals
// are bit-identical to the serial LaneSet path. Encoders are pure (the
// registration contract), so one value is shared by every worker.
func NewPipeline(enc Encoder, lanes int, opts ...PipelineOption) *Pipeline {
	return dbi.NewPipeline(enc, lanes, opts...)
}

// WithWorkers sets the pipeline's worker goroutine count; n <= 0 selects
// GOMAXPROCS.
func WithWorkers(n int) PipelineOption { return dbi.WithWorkers(n) }

// WithChunkFrames sets how many frames the pipeline batches per shard
// hand-off; n <= 0 selects dbi.DefaultChunkFrames. Throughput tuning only —
// results never depend on it.
func WithChunkFrames(n int) PipelineOption { return dbi.WithChunkFrames(n) }

// FramesOf adapts an in-memory frame sequence to a FrameSource.
func FramesOf(frames []Frame) FrameSource { return dbi.FramesOf(frames) }

// ParetoFront enumerates the Pareto-optimal (zeros, transitions) outcomes
// of a burst over all inversion patterns (bursts of at most 24 beats).
func ParetoFront(prev LineState, b Burst) []Cost { return dbi.ParetoFront(prev, b) }

// POD135 returns a GDDR5X-style 1.35 V POD link model at the given load
// capacitance (farads) and per-pin data rate (bit/s).
func POD135(cload, dataRate float64) Link { return phy.POD135(cload, dataRate) }

// POD15 returns a 1.5 V POD link model (JESD8-20A).
func POD15(cload, dataRate float64) Link { return phy.POD15(cload, dataRate) }

// POD12 returns a DDR4-style 1.2 V POD link model.
func POD12(cload, dataRate float64) Link { return phy.POD12(cload, dataRate) }
