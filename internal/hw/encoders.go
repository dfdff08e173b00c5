package hw

import (
	"fmt"

	"dbiopt/internal/bus"
)

// Design couples an encoder netlist with the knowledge of how to drive it:
// which inputs carry the burst bytes, the prior line state and the
// coefficient registers, and which outputs carry the per-beat inversion
// decisions. The four constructors below build the four designs of the
// paper's Table I.
type Design struct {
	Netlist *Netlist
	// Beats is the burst length the design processes per clock cycle.
	Beats int
	// PipelineRegisters estimates the datapath cut width of the retimed
	// implementation — the number of flip-flops each pipeline stage holds.
	PipelineRegisters int

	hasPrev bool // design takes prev_data[8] + prev_dbi inputs first
	hasCoef bool // design takes alpha[3] + beta[3] inputs first
}

// inputVector lays out the simulator input vector for one evaluation.
func (d *Design) inputVector(prev bus.LineState, b bus.Burst, alpha, beta uint8) []bool {
	if len(b) != d.Beats {
		panic(fmt.Sprintf("hw: design processes %d beats, burst has %d", d.Beats, len(b)))
	}
	in := make([]bool, 0, d.Netlist.NumInputs())
	if d.hasCoef {
		for i := 0; i < CoefficientWidth; i++ {
			in = append(in, alpha&(1<<i) != 0)
		}
		for i := 0; i < CoefficientWidth; i++ {
			in = append(in, beta&(1<<i) != 0)
		}
	}
	if d.hasPrev {
		for i := 0; i < 8; i++ {
			in = append(in, prev.Data&(1<<i) != 0)
		}
		in = append(in, prev.DBI)
	} else if prev != bus.InitialLineState {
		panic("hw: this design hard-wires the idle (all-ones) boundary state")
	}
	for _, v := range b {
		for i := 0; i < 8; i++ {
			in = append(in, v&(1<<i) != 0)
		}
	}
	return in
}

// Encode evaluates the design on one burst and returns the inversion
// decisions. Designs without prev inputs require prev to be the idle state;
// coefficient designs run with the default alpha = beta = 1.
func (d *Design) Encode(sim *Simulator, prev bus.LineState, b bus.Burst) []bool {
	return sim.Eval(d.inputVector(prev, b, defaultAlpha, defaultBeta))
}

// EncodeCoef evaluates a configurable-coefficient design with explicit
// 3-bit coefficients.
func (d *Design) EncodeCoef(sim *Simulator, prev bus.LineState, b bus.Burst, alpha, beta uint8) []bool {
	if !d.hasCoef {
		panic("hw: design has no coefficient inputs")
	}
	return sim.Eval(d.inputVector(prev, b, alpha, beta))
}

// defaultAlpha/defaultBeta are used by Encode on coefficient designs.
const (
	defaultAlpha = 1
	defaultBeta  = 1
)

// CoefficientWidth is the width of the configurable coefficient registers.
const CoefficientWidth = 3

// BuildDC builds the DBI DC reference encoder: per byte, a popcount tree
// and the "three or fewer ones" decode, fully parallel across beats.
func BuildDC(beats int) *Design {
	n := NewNetlist("dbi-dc")
	bytes := make([]Bus, beats)
	for i := range bytes {
		bytes[i] = n.InputBus(fmt.Sprintf("byte%d", i), 8)
	}
	for i, bb := range bytes {
		ones := n.Popcount(bb)
		// Invert iff zeros >= 5, i.e. ones <= 3, i.e. neither bit 2 nor
		// bit 3 of the count is set.
		inv := n.Nor(ones[2], ones[3])
		n.Output(fmt.Sprintf("inv%d", i), inv)
	}
	return &Design{Netlist: n, Beats: beats, PipelineRegisters: beats + 4}
}

// BuildAC builds the DBI AC encoder: a chain of per-beat blocks, each
// XOR-ing the running wire state with the incoming byte, popcounting, and
// thresholding at 4 or 5 transitions depending on the running DBI level
// (the exact greedy rule: invert iff popcount >= 4 + prevDBI).
func BuildAC(beats int) *Design {
	n := NewNetlist("dbi-ac")
	prevData := n.InputBus("prev_data", 8)
	prevDBI := n.Input("prev_dbi")
	bytes := make([]Bus, beats)
	for i := range bytes {
		bytes[i] = n.InputBus(fmt.Sprintf("byte%d", i), 8)
	}
	wire := prevData
	dbi := prevDBI
	for i, bb := range bytes {
		x := n.Popcount(n.XorBus(wire, bb))
		ge4 := n.Or(x[2], x[3])
		ge5 := n.Or(x[3], n.And(x[2], n.Or(x[1], x[0])))
		inv := n.Mux(dbi, ge4, ge5)
		n.Output(fmt.Sprintf("inv%d", i), inv)
		wire = n.MuxBus(inv, bb, n.NotBus(bb))
		dbi = n.Not(inv)
	}
	return &Design{Netlist: n, Beats: beats, PipelineRegisters: beats + 12, hasPrev: true}
}

// optWidth is the path-cost datapath width of the fixed-coefficient design:
// with alpha = beta = 1 the total burst cost is at most 18 per beat, 144
// for 8 beats, so 8 bits suffice.
const optWidth = 8

// BuildOptFixed builds the paper's Fig. 5 architecture with alpha = beta
// = 1: per beat, two popcounts (byte XOR previous byte, and the byte
// itself), the four edge costs x, 9-x, 8-y, y+1, two add-compare-select
// stages maintaining the running shortest-path registers, and the
// backtracking mux chain that converts the stored selects into the final
// inversion pattern. The boundary (previous byte all-ones, non-inverted)
// is hard-wired, as in the paper.
func BuildOptFixed(beats int) *Design {
	n := NewNetlist("dbi-opt-fixed")
	buildOptDatapath(n, beats, nil, nil, optWidth)
	return &Design{Netlist: n, Beats: beats, PipelineRegisters: 2*optWidth + beats + 8}
}

// BuildOpt3Bit builds the configurable-coefficient variant: identical
// trellis structure, but every edge cost passes through a 3-bit shift-add
// multiplier and the path registers widen to cover the larger totals
// (max 2*7*9 per beat, 1008 per burst: 10 bits, plus margin).
func BuildOpt3Bit(beats int) *Design {
	n := NewNetlist("dbi-opt-3bit")
	alpha := n.InputBus("alpha", CoefficientWidth)
	beta := n.InputBus("beta", CoefficientWidth)
	const w = 11
	buildOptDatapath(n, beats, alpha, beta, w)
	return &Design{Netlist: n, Beats: beats, PipelineRegisters: 2*w + beats + 14, hasCoef: true}
}

// buildOptDatapath emits the shared trellis datapath. alpha/beta nil means
// fixed unit coefficients (no multipliers). width is the path-cost width.
func buildOptDatapath(n *Netlist, beats int, alpha, beta Bus, width int) {
	bytes := make([]Bus, beats)
	for i := range bytes {
		bytes[i] = n.InputBus(fmt.Sprintf("byte%d", i), 8)
	}

	scale := func(v Bus, coef Bus) Bus {
		if coef == nil {
			return n.ZeroExtend(v, width)
		}
		return n.ZeroExtend(n.MulConst(v, coef), width)
	}
	add := func(a, b Bus) Bus { return n.AddTrunc(a, b, width) }

	// Running path costs for the plain and inverted state of the previous
	// beat, plus the per-beat select bits for backtracking.
	var costPlain, costInv Bus
	m0 := make([]Signal, beats)      // predecessor-was-inverted, entering plain
	m1 := make([]Signal, beats)      // predecessor-was-inverted, entering inverted
	prevBytes := n.ConstBus(0xFF, 8) // idle boundary: all wires high

	for i := 0; i < beats; i++ {
		bb := bytes[i]
		x := n.Popcount(n.XorBus(prevBytes, bb)) // transition count vs prev byte, same polarity
		y := n.Popcount(bb)                      // ones in the byte

		ac0 := scale(x, alpha)                // same inversion state on both beats
		ac1 := scale(n.SubConst(9, x), alpha) // polarity flip: 8-x data toggles + DBI toggle
		dc0 := scale(n.SubConst(8, y), beta)  // zeros when sent plain
		dc1 := scale(n.Inc(y), beta)          // zeros when inverted, + DBI wire zero

		if i == 0 {
			// The boundary state is plain, so each first-beat node has a
			// single incoming edge.
			costPlain = add(ac0, dc0)
			costInv = add(ac1, dc1)
			m0[0] = n.Const(false)
			m1[0] = n.Const(false)
		} else {
			a := add(costPlain, ac0)
			b := add(costInv, ac1)
			minP, selP := n.Min(a, b)
			c := add(costPlain, ac1)
			d := add(costInv, ac0)
			minI, selI := n.Min(c, d)
			costPlain = add(minP, dc0)
			costInv = add(minI, dc1)
			m0[i] = selP
			m1[i] = selI
		}
		prevBytes = bb
	}

	// Endpoint compare: the burst ends in the inverted state iff that path
	// is strictly cheaper, then the select bits are walked backwards
	// through the mux chain of Fig. 5's bottom row.
	state := n.LessThan(costInv, costPlain)
	invOut := make([]Signal, beats)
	invOut[beats-1] = state
	for i := beats - 1; i > 0; i-- {
		state = n.Mux(state, m0[i], m1[i])
		invOut[i-1] = state
	}
	for i, s := range invOut {
		n.Output(fmt.Sprintf("inv%d", i), s)
	}
}
