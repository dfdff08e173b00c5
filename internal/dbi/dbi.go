// Package dbi implements data bus inversion (DBI) coding schemes for POD
// memory interfaces, including the optimal DC/AC scheme of Lucas, Lal and
// Juurlink (DATE 2018).
//
// Every scheme decides, for each beat of a burst, whether to transmit the
// payload byte as-is or bitwise inverted, signalling the choice on the DBI
// wire. The schemes differ in what they minimise:
//
//   - Raw: never inverts (the unencoded baseline).
//   - DC: minimises the number of transmitted zeros, per byte (JEDEC
//     DBI DC: invert iff the byte contains 5 or more zeros).
//   - AC: greedily minimises wire transitions against the previous wire
//     state, per byte (JEDEC DBI AC).
//   - ACDC: Hollis' hybrid — the first byte of a burst uses the DC rule,
//     the rest the AC rule.
//   - Greedy: per-byte minimisation of the weighted cost
//     alpha*transitions + beta*zeros (a Chang-style heuristic; locally
//     optimal, globally not).
//   - Opt: the paper's contribution — a Viterbi-style shortest-path search
//     over the 2-state-per-beat trellis, which is globally optimal for the
//     weighted cost.
//   - OptFixed: Opt with alpha = beta = 1, the hardware-friendly variant.
//   - Quantised: Opt with 3-bit integer coefficients, mirroring the
//     configurable hardware design of the paper's Table I.
//   - Exhaustive: brute force over all 2^n inversion patterns; a reference
//     oracle for testing, never used in anger.
//
// All schemes implement Encoder and are exact about the paper's cost
// conventions: both zero and transition counts include the DBI wire, and the
// burst is encoded against an explicit prior line state (the paper assumes
// all wires high, bus.InitialLineState).
package dbi

import (
	"fmt"

	"dbiopt/internal/bus"
)

// Weights are the per-activity costs used by the weighted schemes:
// Alpha is the cost of one wire transition, Beta the cost of one transmitted
// zero. Only the ratio matters for which encoding wins; scaling both by the
// same positive factor changes no decision.
type Weights struct {
	Alpha float64 // cost per transition (AC cost)
	Beta  float64 // cost per zero (DC cost)
}

// Validate reports an error if the weights are unusable: negative, NaN, or
// both zero.
func (w Weights) Validate() error {
	if w.Alpha != w.Alpha || w.Beta != w.Beta {
		return fmt.Errorf("dbi: weights must not be NaN: %+v", w)
	}
	if w.Alpha < 0 || w.Beta < 0 {
		return fmt.Errorf("dbi: weights must be non-negative, got alpha=%g beta=%g", w.Alpha, w.Beta)
	}
	if w.Alpha == 0 && w.Beta == 0 {
		return fmt.Errorf("dbi: at least one weight must be positive")
	}
	return nil
}

// Cost returns the weighted cost of c under w.
func (w Weights) Cost(c bus.Cost) float64 { return c.Weighted(w.Alpha, w.Beta) }

// FixedWeights is alpha = beta = 1, the coefficient choice of the paper's
// "DBI OPT (Fixed)" scheme.
var FixedWeights = Weights{Alpha: 1, Beta: 1}

// Encoder is a DBI coding policy. Both methods compute the per-beat
// inversion pattern for transmitting burst b on a lane whose wires
// currently hold prev. An encoder is a pure function of (prev, b) and the
// weights it was constructed with: the pattern may not depend on call
// order, on earlier calls or on which instance computes it, so one value
// is safely shared by concurrent goroutines and compiled kernels are
// cached per value. Implementations must not retain b or dst.
type Encoder interface {
	// Name returns the scheme's conventional name, e.g. "DBI DC".
	Name() string
	// Encode returns one inversion flag per beat of b in a freshly
	// allocated slice. It is a convenience wrapper around EncodeInto.
	Encode(prev bus.LineState, b bus.Burst) []bool
	// EncodeInto appends one inversion flag per beat of b to dst and
	// returns the extended slice, allocating only when dst lacks capacity.
	// Callers that reuse the returned slice as the next call's dst (after
	// re-slicing to its previous length) encode with zero steady-state heap
	// allocations; this is the hot path Stream, the parallel drivers and
	// the pipeline run on.
	EncodeInto(dst []bool, prev bus.LineState, b bus.Burst) []bool
}

// encodeAlloc implements the Encode convenience wrapper shared by every
// scheme: EncodeInto into a fresh slice of exactly the right capacity.
func encodeAlloc(enc Encoder, prev bus.LineState, b bus.Burst) []bool {
	return enc.EncodeInto(make([]bool, 0, len(b)), prev, b)
}

// EncodeWire runs enc on b and returns the resulting wire-level image.
func EncodeWire(enc Encoder, prev bus.LineState, b bus.Burst) bus.Wire {
	return bus.Apply(b, enc.Encode(prev, b))
}

// CostOf runs enc on b and returns the exact wire-level activity counts of
// the resulting transmission, via an independent recount (not the encoder's
// own bookkeeping).
func CostOf(enc Encoder, prev bus.LineState, b bus.Burst) bus.Cost {
	return EncodeWire(enc, prev, b).Cost(prev)
}

// New returns an encoder by registered name; it is a thin wrapper kept for
// compatibility with pre-registry callers. See Lookup.
func New(name string, w Weights) (Encoder, error) { return Lookup(name, w) }
