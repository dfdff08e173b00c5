package dbi

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/racetag"
)

// thirdParty is the kernel surface's third-party probe: an EncodeInto-only
// scheme registered from the test binary exactly as an external package
// would register one. It reports Stateful() true to opt out of the
// registry-wide stateless fast-path sweeps (it deliberately implements no
// mask interfaces), but it is pure — any two instances agree — which is
// what lets the kernel fuzz compare a compiled instance against a freshly
// constructed oracle instance.
type thirdParty struct{}

// Name implements Encoder.
func (thirdParty) Name() string { return "TEST-THIRD-PARTY-KERNEL" }

// Stateful opts the scheme out of the stateless contract sweeps.
func (thirdParty) Stateful() bool { return true }

// Encode implements Encoder.
func (tp thirdParty) Encode(prev bus.LineState, b bus.Burst) []bool {
	return tp.EncodeInto(nil, prev, b)
}

// EncodeInto inverts beat t when bit t%8 of the payload byte is set — an
// arbitrary deterministic rule with no mask fast path.
func (thirdParty) EncodeInto(dst []bool, prev bus.LineState, b bus.Burst) []bool {
	for t, v := range b {
		dst = append(dst, v>>(t%8)&1 == 1)
	}
	return dst
}

func init() {
	Register("TEST-THIRD-PARTY-KERNEL", func(Weights) (Encoder, error) { return thirdParty{}, nil })
}

// FuzzKernelEquivalence is the pinning contract of the compiled surface:
// for every registered scheme — the nine built-ins plus the third-party
// probe — and arbitrary payloads, prior states, burst lengths (narrow and
// wide) and weight regimes, every kernel entry point (EncodeMask,
// EncodeMaskWords, Advance, and the Stream transmit path) must agree bit
// for bit with the scheme's own EncodeInto oracle. EncodeBatch is held to
// the same oracle on 1-3-lane batches whose lanes differ in prior state and
// payload: every lane's mask words, cost and next state.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}, byte(0xFF), true, uint8(1), uint8(1), uint16(8))
	f.Add([]byte{}, byte(0), false, uint8(3), uint8(5), uint16(0))
	f.Add([]byte{0x00, 0xFF, 0x00, 0xFF}, byte(0xAA), false, uint8(0), uint8(2), uint16(64))
	f.Add([]byte{0x55, 0xAA, 0x55}, byte(0x0F), true, uint8(7), uint8(0), uint16(130))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, byte(0x3C), true, uint8(2), uint8(4), uint16(65))
	f.Fuzz(func(t *testing.T, payload []byte, prevData byte, prevDBI bool, qa, qb uint8, rawN uint16) {
		n := int(rawN) % 200
		if len(payload) == 0 {
			payload = []byte{0x5A}
		}
		b := make(bus.Burst, n)
		for i := range b {
			b[i] = payload[i%len(payload)]
		}
		prev := bus.LineState{Data: prevData, DBI: prevDBI}
		// The same three weight regimes as FuzzMaskEquivalence: exact
		// integers, dyadic rationals, and a non-representable float pair.
		weightCases := []Weights{
			{Alpha: float64(qa % 8), Beta: float64(qb%8) + 1},
			{Alpha: float64(qa%8) + 0.5, Beta: float64(qb%8) + 0.25},
			{Alpha: float64(qa%8) + 0.3, Beta: float64(qb%8) + 0.7},
		}
		var wm bus.WideMask
		for _, w := range weightCases {
			for _, name := range Names() {
				kern, err := Compile(name, w, Geometry{})
				if err != nil {
					continue // weights this scheme refuses (validated elsewhere)
				}
				oracle, err := Lookup(name, w)
				if err != nil {
					t.Fatalf("Lookup(%q) failed after a successful Compile: %v", name, err)
				}
				if _, isEx := oracle.(Exhaustive); isEx && n > 12 {
					continue // brute force: keep the fuzz round fast
				}
				inv := oracle.Encode(prev, b)
				wire := bus.Apply(b, inv)
				wantC, wantS := wire.Cost(prev), wire.FinalState(prev)

				if m, ok := kern.EncodeMask(prev, b); ok {
					want, packOK := bus.MaskFromBools(inv)
					if !packOK {
						t.Fatalf("%s: reference pattern unpackable (%d beats)", name, len(inv))
					}
					if m != want {
						t.Fatalf("%s w=%+v n=%d: kernel mask %b != oracle %b", name, w, n, m, want)
					}
				}
				wm.Reset(n)
				if kern.EncodeMaskWords(prev, b, wm.Words()) {
					for i := range inv {
						if wm.Bit(i) != inv[i] {
							t.Fatalf("%s w=%+v n=%d: kernel wide beat %d = %v, oracle %v",
								name, w, n, i, wm.Bit(i), inv[i])
						}
					}
				}
				gotC, gotS := kern.Advance(prev, b)
				if gotC != wantC || gotS != wantS {
					t.Fatalf("%s w=%+v n=%d: Advance = (%+v, %+v), oracle (%+v, %+v)",
						name, w, n, gotC, gotS, wantC, wantS)
				}
				st := kern.NewStreamFrom(prev)
				tw := st.Transmit(b)
				if !tw.Decode().Equal(b) {
					t.Fatalf("%s w=%+v n=%d: stream wire does not decode to the payload", name, w, n)
				}
				if st.TotalCost() != wantC {
					t.Fatalf("%s w=%+v n=%d: stream cost %+v != oracle %+v", name, w, n, st.TotalCost(), wantC)
				}
				if kern.Stateless() {
					checkBatchOracle(t, kern, oracle, prev, b, int(rawN)%3+1)
				}
			}
		}
	})
}

// checkBatchOracle encodes a lanes-lane batch through kern.EncodeBatch and
// holds every lane to oracle's EncodeInto. Lane l carries b with every byte
// rotated left by l bits, from prev with the data line rotated likewise and
// the DBI line flipped on odd lanes, so lanes differ in both payload and
// prior state.
func checkBatchOracle(t *testing.T, kern *Kernel, oracle Encoder, prev bus.LineState, b bus.Burst, lanes int) {
	t.Helper()
	n := len(b)
	var lb LaneBatch
	lb.Reset(lanes, n)
	for l := 0; l < lanes; l++ {
		lp := bus.LineState{Data: bits.RotateLeft8(prev.Data, l), DBI: prev.DBI != (l%2 == 1)}
		lb.SetPrev(l, lp)
		for i, v := range b {
			lb.data[l*n+i] = bits.RotateLeft8(v, l)
		}
	}
	kern.EncodeBatch(&lb)
	for l := 0; l < lanes; l++ {
		lp, lbst := lb.Prev(l), lb.Lane(l)
		inv := oracle.Encode(lp, lbst)
		var want bus.WideMask
		want.FromBools(inv)
		if !slices.Equal(lb.MaskWords(l), want.Words()) {
			t.Fatalf("%s n=%d lane %d/%d: batch mask words %x != oracle %x", kern.Name(), n, l, lanes, lb.MaskWords(l), want.Words())
		}
		wire := bus.Apply(lbst, inv)
		if c, st := wire.Cost(lp), wire.FinalState(lp); lb.Cost(l) != c || lb.Next(l) != st {
			t.Fatalf("%s n=%d lane %d/%d: batch (%+v, %+v), oracle (%+v, %+v)",
				kern.Name(), n, l, lanes, lb.Cost(l), lb.Next(l), c, st)
		}
	}
}

// TestThirdPartyKernelParity pins the generic fallback kernel: a scheme the
// compiler has never heard of still gets a total Kernel whose cost, state
// and wire outcomes are bit-identical to its EncodeInto oracle, and
// stateful kernels are compiled fresh rather than cached.
func TestThirdPartyKernelParity(t *testing.T) {
	kern, err := LookupKernel("TEST-THIRD-PARTY-KERNEL", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if kern.Stateless() {
		t.Error("Stateful() scheme compiled to a stateless kernel")
	}
	if _, ok := kern.EncodeMask(bus.InitialLineState, make(bus.Burst, 8)); ok {
		t.Error("maskless scheme's kernel must decline the mask path")
	}
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{0, 1, 8, 64, 65, 200} {
		b := randomBurst(rng, n)
		prev := bus.LineState{Data: byte(rng.Intn(256)), DBI: rng.Intn(2) == 1}
		inv := thirdParty{}.Encode(prev, b)
		wire := bus.Apply(b, inv)
		wantC, wantS := wire.Cost(prev), wire.FinalState(prev)
		gotC, gotS := kern.Advance(prev, b)
		if gotC != wantC || gotS != wantS {
			t.Fatalf("n=%d: Advance = (%+v, %+v), oracle (%+v, %+v)", n, gotC, gotS, wantC, wantS)
		}
		st := kern.NewStreamFrom(prev)
		tw := st.Transmit(b)
		if !tw.Decode().Equal(b) {
			t.Fatalf("n=%d: stream wire does not decode to the payload", n)
		}
		if st.TotalCost() != wantC {
			t.Fatalf("n=%d: stream cost %+v != oracle %+v", n, st.TotalCost(), wantC)
		}
	}
	again, err := LookupKernel("TEST-THIRD-PARTY-KERNEL", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if again == kern {
		t.Error("stateful scheme's kernel must not be cached")
	}
}

// TestLookupKernelCaching pins the compile-once economics: one compiled
// kernel per stateless (scheme, weights, geometry) triple, shared by every
// consumer; distinct triples compile their own; unknown names fail with
// the registry's vocabulary error.
func TestLookupKernelCaching(t *testing.T) {
	k1, err := LookupKernel("OPT-FIXED", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := LookupKernel("OPT-FIXED", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("same triple must bind the same compiled kernel")
	}
	if k1.Name() != "OPT-FIXED" || !k1.Stateless() {
		t.Errorf("kernel identity: name %q stateless %v", k1.Name(), k1.Stateless())
	}
	kg, err := LookupKernel("OPT-FIXED", FixedWeights, Geometry{Beats: 8, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if kg == k1 {
		t.Error("distinct geometry must compile its own kernel")
	}
	if kg.Geometry() != (Geometry{Beats: 8, Lanes: 4}) {
		t.Errorf("Geometry() = %+v", kg.Geometry())
	}
	ka, err := LookupKernel("OPT", Weights{Alpha: 1, Beta: 2}, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := LookupKernel("OPT", Weights{Alpha: 2, Beta: 1}, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Error("distinct weights must compile their own kernels")
	}
	if ka.Weights() != (Weights{Alpha: 1, Beta: 2}) {
		t.Errorf("Weights() = %+v", ka.Weights())
	}
	if _, err := LookupKernel("BOGUS", FixedWeights, Geometry{}); err == nil {
		t.Error("LookupKernel(BOGUS) should fail")
	}
}

// TestKernelZeroAlloc pins the other half of the compile-time bargain: all
// per-triple work happens in Compile, so the compiled entry points allocate
// nothing per burst at steady state — on the register-resident narrow path
// and on the pooled-scratch wide path alike.
func TestKernelZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("race instrumentation forces stack scratch to the heap")
	}
	rng := rand.New(rand.NewSource(64))
	narrow := make([]bus.Burst, 32)
	for i := range narrow {
		narrow[i] = randomBurst(rng, 8)
	}
	wide := make([]bus.Burst, 8)
	for i := range wide {
		wide[i] = randomBurst(rng, 128)
	}
	for name, enc := range statelessEncoders(t) {
		t.Run(name, func(t *testing.T) {
			k := CompileEncoder(enc, Geometry{})
			prev := bus.InitialLineState
			for _, b := range narrow { // warm the pooled scratch
				_, prev = k.Advance(prev, b)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				_, prev = k.Advance(prev, narrow[i%len(narrow)])
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state narrow Advance allocates %.2f times per burst, want 0", allocs)
			}
			if name == "EXHAUSTIVE" {
				return // declines every wide burst; its oracle is bounded
			}
			for _, b := range wide {
				_, prev = k.Advance(prev, b)
			}
			i = 0
			allocs = testing.AllocsPerRun(200, func() {
				_, prev = k.Advance(prev, wide[i%len(wide)])
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state wide Advance allocates %.2f times per burst, want 0", allocs)
			}
		})
	}
}

// TestOptUnit8MatchesTrellis pins the fused BL8 core that both the Stream
// wire kernel and the batch kernel wrap: over every prior line state and
// a deterministic sweep of payloads — random bytes plus the tie-heavy
// periodic and constant patterns — its mask, cost and final state equal
// the integer trellis's mask priced by bus.MaskCost and MaskFinalState.
func TestOptUnit8MatchesTrellis(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bursts := []bus.Burst{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa},
		{0x0f, 0xf0, 0x0f, 0xf0, 0x0f, 0xf0, 0x0f, 0xf0},
		{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4},
	}
	for i := 0; i < 2000; i++ {
		b := make(bus.Burst, bus.BurstLength)
		rng.Read(b)
		if i%4 == 0 {
			// Balanced bytes (four ones) make the trellis branches tie.
			for j := range b {
				b[j] = []byte{0x0f, 0x33, 0x55, 0x69, 0x96, 0xaa, 0xcc, 0xf0}[rng.Intn(8)]
			}
		}
		bursts = append(bursts, b)
	}
	for _, b := range bursts {
		for d := 0; d < 256; d++ {
			for _, dbiLine := range []bool{false, true} {
				prev := bus.LineState{Data: byte(d), DBI: dbiLine}
				want := trellisMaskInt(prev, b, 1, 1)
				g, c, next := optUnit8(prev, binary.LittleEndian.Uint64(b))
				if bus.InvMask(g) != want {
					t.Fatalf("%v from %+v: mask %08b, trellis %08b", b, prev, g, want)
				}
				if wc, ws := bus.MaskCost(prev, b, want), bus.MaskFinalState(prev, b, want); c != wc || next != ws {
					t.Fatalf("%v from %+v: (%+v, %+v), trellis (%+v, %+v)", b, prev, c, next, wc, ws)
				}
			}
		}
	}
}
