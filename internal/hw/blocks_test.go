package hw

import (
	"math/rand"
	"testing"
)

// evalBus packs a uint64 into per-bit bools for a bus of the given width.
func packBits(v uint64, width int) []bool {
	out := make([]bool, width)
	for i := range out {
		out[i] = v&(1<<i) != 0
	}
	return out
}

func unpackBits(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << i
		}
	}
	return v
}

func TestFullAdderExhaustive(t *testing.T) {
	n := NewNetlist("fa")
	a := n.Input("a")
	b := n.Input("b")
	c := n.Input("c")
	s, co := n.FullAdder(a, b, c)
	n.Output("s", s)
	n.Output("co", co)
	sim := NewSimulator(n)
	for v := 0; v < 8; v++ {
		out := sim.Eval(packBits(uint64(v), 3))
		ones := v&1 + v>>1&1 + v>>2&1
		if got := unpackBits(out); got != uint64(ones) {
			t.Errorf("FA(%03b): sum+carry = %d, want %d", v, got, ones)
		}
	}
}

func TestAddRandom(t *testing.T) {
	n := NewNetlist("add")
	a := n.InputBus("a", 6)
	b := n.InputBus("b", 4)
	n.OutputBus("sum", n.Add(a, b))
	sim := NewSimulator(n)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		x := uint64(rng.Intn(64))
		y := uint64(rng.Intn(16))
		in := append(packBits(x, 6), packBits(y, 4)...)
		if got := unpackBits(sim.Eval(in)); got != x+y {
			t.Fatalf("%d + %d = %d (hw)", x, y, got)
		}
	}
}

func TestAddExhaustiveSmall(t *testing.T) {
	n := NewNetlist("add4")
	a := n.InputBus("a", 4)
	b := n.InputBus("b", 4)
	n.OutputBus("sum", n.Add(a, b))
	sim := NewSimulator(n)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			in := append(packBits(x, 4), packBits(y, 4)...)
			if got := unpackBits(sim.Eval(in)); got != x+y {
				t.Fatalf("%d + %d = %d (hw)", x, y, got)
			}
		}
	}
}

func TestIncExhaustive(t *testing.T) {
	n := NewNetlist("inc")
	a := n.InputBus("a", 5)
	n.OutputBus("out", n.Inc(a))
	sim := NewSimulator(n)
	for x := uint64(0); x < 32; x++ {
		if got := unpackBits(sim.Eval(packBits(x, 5))); got != x+1 {
			t.Fatalf("Inc(%d) = %d", x, got)
		}
	}
}

func TestSubConstExhaustive(t *testing.T) {
	// 9 - x for x in 0..9 (the ac1 term) and 8 - y for y in 0..8 (dc0).
	for _, k := range []uint64{8, 9} {
		n := NewNetlist("sub")
		a := n.InputBus("a", 4)
		n.OutputBus("out", n.SubConst(k, a))
		sim := NewSimulator(n)
		for x := uint64(0); x <= k; x++ {
			if got := unpackBits(sim.Eval(packBits(x, 4))); got != k-x {
				t.Fatalf("%d - %d = %d (hw)", k, x, got)
			}
		}
	}
}

func TestLessThanExhaustive(t *testing.T) {
	n := NewNetlist("lt")
	a := n.InputBus("a", 5)
	b := n.InputBus("b", 5)
	n.Output("lt", n.LessThan(a, b))
	sim := NewSimulator(n)
	for x := uint64(0); x < 32; x++ {
		for y := uint64(0); y < 32; y++ {
			in := append(packBits(x, 5), packBits(y, 5)...)
			got := sim.Eval(in)[0]
			if got != (x < y) {
				t.Fatalf("LessThan(%d, %d) = %v", x, y, got)
			}
		}
	}
}

func TestLessThanDegenerate(t *testing.T) {
	n := NewNetlist("lt0")
	n.Output("lt", n.LessThan(Bus{}, Bus{}))
	sim := NewSimulator(n)
	if sim.Eval(nil)[0] {
		t.Error("empty LessThan should be false")
	}
}

func TestPopcountExhaustive8(t *testing.T) {
	n := NewNetlist("pop8")
	a := n.InputBus("a", 8)
	n.OutputBus("count", n.Popcount(a))
	sim := NewSimulator(n)
	for x := uint64(0); x < 256; x++ {
		want := uint64(0)
		for i := 0; i < 8; i++ {
			want += x >> i & 1
		}
		if got := unpackBits(sim.Eval(packBits(x, 8))); got != want {
			t.Fatalf("Popcount(%08b) = %d, want %d", x, got, want)
		}
	}
}

func TestPopcountWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, width := range []int{0, 1, 2, 3, 5, 9, 16} {
		n := NewNetlist("pop")
		a := n.InputBus("a", width)
		n.OutputBus("count", n.Popcount(a))
		sim := NewSimulator(n)
		for trial := 0; trial < 50; trial++ {
			x := uint64(rng.Int63()) & (1<<width - 1)
			want := uint64(0)
			for i := 0; i < width; i++ {
				want += x >> i & 1
			}
			if got := unpackBits(sim.Eval(packBits(x, width))); got != want {
				t.Fatalf("width %d: Popcount(%b) = %d, want %d", width, x, got, want)
			}
		}
	}
}

func TestMulConstExhaustive(t *testing.T) {
	n := NewNetlist("mul")
	a := n.InputBus("a", 4)
	c := n.InputBus("c", 3)
	n.OutputBus("p", n.MulConst(a, c))
	sim := NewSimulator(n)
	for x := uint64(0); x < 16; x++ {
		for k := uint64(0); k < 8; k++ {
			in := append(packBits(x, 4), packBits(k, 3)...)
			if got := unpackBits(sim.Eval(in)); got != x*k {
				t.Fatalf("%d * %d = %d (hw)", x, k, got)
			}
		}
	}
}

func TestMulConstEmptyCoef(t *testing.T) {
	n := NewNetlist("mul0")
	a := n.InputBus("a", 4)
	n.OutputBus("p", n.MulConst(a, Bus{}))
	sim := NewSimulator(n)
	if got := unpackBits(sim.Eval(packBits(9, 4))); got != 0 {
		t.Errorf("x*<empty> = %d, want 0", got)
	}
}

func TestMinBlock(t *testing.T) {
	n := NewNetlist("min")
	a := n.InputBus("a", 4)
	b := n.InputBus("b", 4)
	m, sel := n.Min(a, b)
	n.OutputBus("m", m)
	n.Output("sel", sel)
	sim := NewSimulator(n)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			out := sim.Eval(append(packBits(x, 4), packBits(y, 4)...))
			got := unpackBits(out[:4])
			want := x
			if y < x {
				want = y
			}
			if got != want {
				t.Fatalf("Min(%d,%d) = %d", x, y, got)
			}
			if out[4] != (y < x) {
				t.Fatalf("Min sel(%d,%d) = %v", x, y, out[4])
			}
		}
	}
}

func TestMuxBusAndXorBus(t *testing.T) {
	n := NewNetlist("mux")
	sel := n.Input("sel")
	a := n.InputBus("a", 4)
	b := n.InputBus("b", 4)
	n.OutputBus("m", n.MuxBus(sel, a, b))
	n.OutputBus("x", n.XorBus(a, b))
	sim := NewSimulator(n)
	for s := 0; s < 2; s++ {
		for x := uint64(0); x < 16; x++ {
			for y := uint64(0); y < 16; y++ {
				in := append([]bool{s == 1}, append(packBits(x, 4), packBits(y, 4)...)...)
				out := sim.Eval(in)
				wantM := x
				if s == 1 {
					wantM = y
				}
				if got := unpackBits(out[:4]); got != wantM {
					t.Fatalf("MuxBus(%d,%d,%d) = %d", s, x, y, got)
				}
				if got := unpackBits(out[4:]); got != x^y {
					t.Fatalf("XorBus(%d,%d) = %d", x, y, got)
				}
			}
		}
	}
}

func TestConstBusAndZeroExtend(t *testing.T) {
	n := NewNetlist("const")
	n.OutputBus("k", n.ConstBus(0xA5, 8))
	n.OutputBus("z", n.ZeroExtend(n.ConstBus(3, 2), 5))
	sim := NewSimulator(n)
	out := sim.Eval(nil)
	if got := unpackBits(out[:8]); got != 0xA5 {
		t.Errorf("ConstBus = %#x", got)
	}
	if got := unpackBits(out[8:]); got != 3 {
		t.Errorf("ZeroExtend = %d", got)
	}
}

func TestBusWidthMismatchPanics(t *testing.T) {
	n := NewNetlist("bad")
	a := n.InputBus("a", 2)
	b := n.InputBus("b", 3)
	for name, f := range map[string]func(){
		"XorBus":   func() { n.XorBus(a, b) },
		"MuxBus":   func() { n.MuxBus(a[0], a, b) },
		"LessThan": func() { n.LessThan(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNetlistGuards(t *testing.T) {
	n := NewNetlist("guards")
	a := n.Input("a")
	n.Output("o", n.Buf(a))
	n.Freeze()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("add after freeze", func() { n.Not(a) })
	mustPanic("output after freeze", func() { n.Output("p", a) })

	m := NewNetlist("bad-ref")
	mustPanic("unknown fanin", func() { m.add(CellInv, 99, -1, -1) })
	mustPanic("unknown output", func() { m.Output("x", 42) })
}

func TestNetlistStats(t *testing.T) {
	n := NewNetlist("stats")
	a := n.Input("a")
	b := n.Input("b")
	n.Output("o", n.And(a, b))
	if n.GateCount() != 1 {
		t.Errorf("GateCount = %d", n.GateCount())
	}
	if n.CellCount(CellAnd2) != 1 || n.CellCount(CellInput) != 2 {
		t.Error("CellCount wrong")
	}
	if s := n.Stats(); s == "" {
		t.Error("empty stats")
	}
	if n.NumInputs() != 2 || n.NumOutputs() != 1 {
		t.Error("port counts wrong")
	}
}
