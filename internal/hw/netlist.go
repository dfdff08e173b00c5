package hw

import "fmt"

// Signal identifies the output net of a cell within one netlist. Signals
// are only meaningful for the netlist that created them.
type Signal int32

// Netlist is a combinational gate-level circuit under construction. Cells
// are stored in creation order, which the builder API guarantees is a
// topological order (a cell's fanins always exist before the cell), so
// simulation and timing analysis are simple forward passes.
//
// The zero value is not usable; use NewNetlist.
type Netlist struct {
	Name string

	types  []CellType
	fanin  [][3]Signal // up to 3 pins; unused pins are -1
	labels map[Signal]string

	inputs      []Signal
	inputNames  []string
	outputs     []Signal
	outputNames []string

	fanout []int32 // computed lazily by Freeze
	frozen bool
}

// NewNetlist returns an empty netlist with the given design name.
func NewNetlist(name string) *Netlist {
	return &Netlist{Name: name, labels: make(map[Signal]string)}
}

func (n *Netlist) add(t CellType, a, b, c Signal) Signal {
	if n.frozen {
		panic("hw: netlist modified after Freeze")
	}
	pins := [3]Signal{a, b, c}
	for i := 0; i < t.fanins(); i++ {
		if pins[i] < 0 || int(pins[i]) >= len(n.types) {
			panic(fmt.Sprintf("hw: %s pin %d references unknown signal %d", t, i, pins[i]))
		}
	}
	id := Signal(len(n.types))
	n.types = append(n.types, t)
	n.fanin = append(n.fanin, pins)
	return id
}

// NumCells returns the number of cells, primary inputs and ties included.
func (n *Netlist) NumCells() int { return len(n.types) }

// CellCount returns the number of cells of the given type.
func (n *Netlist) CellCount(t CellType) int {
	c := 0
	for _, ct := range n.types {
		if ct == t {
			c++
		}
	}
	return c
}

// GateCount returns the number of logic cells, excluding inputs and ties.
func (n *Netlist) GateCount() int {
	c := 0
	for _, ct := range n.types {
		switch ct {
		case CellInput, CellTie0, CellTie1:
		default:
			c++
		}
	}
	return c
}

// Input declares a named primary input and returns its signal.
func (n *Netlist) Input(name string) Signal {
	s := n.add(CellInput, -1, -1, -1)
	n.inputs = append(n.inputs, s)
	n.inputNames = append(n.inputNames, name)
	n.labels[s] = name
	return s
}

// InputBus declares width named inputs "name[0]"... and returns them LSB
// first.
func (n *Netlist) InputBus(name string, width int) Bus {
	b := make(Bus, width)
	for i := range b {
		b[i] = n.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return b
}

// Output marks a signal as a named primary output.
func (n *Netlist) Output(name string, s Signal) {
	if n.frozen {
		panic("hw: netlist modified after Freeze")
	}
	if s < 0 || int(s) >= len(n.types) {
		panic(fmt.Sprintf("hw: output %q references unknown signal %d", name, s))
	}
	n.outputs = append(n.outputs, s)
	n.outputNames = append(n.outputNames, name)
}

// OutputBus marks a bus as outputs "name[0]"...
func (n *Netlist) OutputBus(name string, b Bus) {
	for i, s := range b {
		n.Output(fmt.Sprintf("%s[%d]", name, i), s)
	}
}

// NumInputs returns the number of primary inputs.
func (n *Netlist) NumInputs() int { return len(n.inputs) }

// NumOutputs returns the number of primary outputs.
func (n *Netlist) NumOutputs() int { return len(n.outputs) }

// Const returns a constant-0 or constant-1 signal.
func (n *Netlist) Const(v bool) Signal {
	if v {
		return n.add(CellTie1, -1, -1, -1)
	}
	return n.add(CellTie0, -1, -1, -1)
}

// Buf returns a buffered copy of a.
func (n *Netlist) Buf(a Signal) Signal { return n.add(CellBuf, a, -1, -1) }

// Not returns the inverse of a.
func (n *Netlist) Not(a Signal) Signal { return n.add(CellInv, a, -1, -1) }

// And returns a AND b.
func (n *Netlist) And(a, b Signal) Signal { return n.add(CellAnd2, a, b, -1) }

// Or returns a OR b.
func (n *Netlist) Or(a, b Signal) Signal { return n.add(CellOr2, a, b, -1) }

// Nand returns NOT(a AND b).
func (n *Netlist) Nand(a, b Signal) Signal { return n.add(CellNand2, a, b, -1) }

// Nor returns NOT(a OR b).
func (n *Netlist) Nor(a, b Signal) Signal { return n.add(CellNor2, a, b, -1) }

// Xor returns a XOR b.
func (n *Netlist) Xor(a, b Signal) Signal { return n.add(CellXor2, a, b, -1) }

// Xnor returns NOT(a XOR b).
func (n *Netlist) Xnor(a, b Signal) Signal { return n.add(CellXnor2, a, b, -1) }

// Mux returns sel ? b : a.
func (n *Netlist) Mux(sel, a, b Signal) Signal { return n.add(CellMux2, a, b, sel) }

// Freeze finalises the netlist: computes fanout counts and forbids further
// modification. Analysis entry points call it implicitly.
func (n *Netlist) Freeze() {
	if n.frozen {
		return
	}
	n.fanout = make([]int32, len(n.types))
	for id, t := range n.types {
		for i := 0; i < t.fanins(); i++ {
			n.fanout[n.fanin[id][i]]++
		}
	}
	// Primary outputs load their drivers too.
	for _, s := range n.outputs {
		n.fanout[s]++
	}
	n.frozen = true
}

// Stats summarises the netlist composition for reports.
func (n *Netlist) Stats() string {
	counts := make(map[CellType]int)
	for _, t := range n.types {
		counts[t]++
	}
	s := fmt.Sprintf("%s: %d cells (%d gates), %d inputs, %d outputs",
		n.Name, n.NumCells(), n.GateCount(), len(n.inputs), len(n.outputs))
	for t := CellType(0); t < numCellTypes; t++ {
		if c := counts[t]; c > 0 && t != CellInput {
			s += fmt.Sprintf(" %s=%d", t, c)
		}
	}
	return s
}

// Bus is a multi-bit signal group, least significant bit first.
type Bus []Signal

// ConstBus returns a bus of width bits holding the constant v.
func (n *Netlist) ConstBus(v uint64, width int) Bus {
	b := make(Bus, width)
	zero := n.Const(false)
	var one Signal = -1
	for i := range b {
		if v&(1<<i) != 0 {
			if one < 0 {
				one = n.Const(true)
			}
			b[i] = one
		} else {
			b[i] = zero
		}
	}
	return b
}

// NotBus returns the bitwise inverse of a bus.
func (n *Netlist) NotBus(a Bus) Bus {
	out := make(Bus, len(a))
	for i, s := range a {
		out[i] = n.Not(s)
	}
	return out
}

// XorBus returns the bitwise XOR of two equal-width buses.
func (n *Netlist) XorBus(a, b Bus) Bus {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hw: XorBus width mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = n.Xor(a[i], b[i])
	}
	return out
}

// MuxBus returns sel ? b : a, element-wise over equal-width buses.
func (n *Netlist) MuxBus(sel Signal, a, b Bus) Bus {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hw: MuxBus width mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = n.Mux(sel, a[i], b[i])
	}
	return out
}
