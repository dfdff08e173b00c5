package dbi

import (
	"testing"

	"dbiopt/internal/bus"
)

// Fuzz targets complement the property tests: `go test` runs the seed
// corpus as ordinary tests, and `go test -fuzz=FuzzX` explores further.

// FuzzDecodeRoundTrip: for arbitrary payloads and prior states, every
// scheme's wire image decodes back to the payload.
func FuzzDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}, byte(0xFF), true)
	f.Add([]byte{}, byte(0), false)
	f.Add([]byte{0x00, 0xFF, 0x00, 0xFF}, byte(0xAA), false)
	f.Fuzz(func(t *testing.T, payload []byte, prevData byte, prevDBI bool) {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		prev := bus.LineState{Data: prevData, DBI: prevDBI}
		b := bus.Burst(payload)
		for _, enc := range []Encoder{Raw{}, DC{}, AC{}, ACDC{}, OptFixed(), Quantized{Alpha: 2, Beta: 3}} {
			w := EncodeWire(enc, prev, b)
			if got := w.Decode(); !got.Equal(b) {
				t.Fatalf("%s: decode mismatch on %v", enc.Name(), payload)
			}
		}
	})
}

// FuzzOptMatchesExhaustive: the trellis optimum equals brute force on
// arbitrary short bursts and integer weight ratios.
func FuzzOptMatchesExhaustive(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96}, uint8(1), uint8(1))
	f.Add([]byte{0x00, 0xFF}, uint8(7), uint8(0))
	f.Add([]byte{0x55, 0xAA, 0x55, 0xAA, 0x55}, uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, payload []byte, qa, qb uint8) {
		if len(payload) == 0 || len(payload) > 10 {
			return
		}
		alpha := float64(qa%8) + 0.5
		beta := float64(qb%8) + 0.5
		w := Weights{Alpha: alpha, Beta: beta}
		b := bus.Burst(payload)
		oc := w.Cost(CostOf(Opt{Weights: w}, bus.InitialLineState, b))
		ec := w.Cost(CostOf(Exhaustive{Weights: w}, bus.InitialLineState, b))
		if d := oc - ec; d > 1e-9 || d < -1e-9 {
			t.Fatalf("opt %g != exhaustive %g on %v (w=%+v)", oc, ec, payload, w)
		}
	})
}

// FuzzPipelineEquivalence: for arbitrary payload bytes and arbitrary (odd)
// lane/chunk/worker geometry, the sharded pipeline total is bit-identical
// to a serial LaneSet replay of the same frames. The seeds pin the
// boundaries that bite: a single lane, lanes not divisible by workers, a
// chunk size that leaves a short final batch, and a payload that does not
// fill the last frame.
func FuzzPipelineEquivalence(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}, uint8(1), uint8(1), uint8(2))
	f.Add([]byte{0x00, 0xFF, 0x55, 0xAA, 0x0F, 0xF0, 0x3C}, uint8(3), uint8(2), uint8(7))
	f.Add(make([]byte, 97), uint8(5), uint8(3), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(16), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, payload []byte, rawLanes, rawWorkers, rawChunk uint8) {
		lanes := int(rawLanes)%16 + 1
		workers := int(rawWorkers) % (lanes + 2) // includes 0 (= GOMAXPROCS) and > lanes
		chunk := int(rawChunk) % 9               // includes 0 (= default)
		const beats = 4
		frameBytes := lanes * beats
		var frames []bus.Frame
		for off := 0; off < len(payload); off += frameBytes {
			chunkBytes := make([]byte, frameBytes)
			copy(chunkBytes, payload[off:])
			fr, err := bus.SplitLanes(chunkBytes, lanes)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, fr)
		}
		enc := OptFixed()
		ls := NewLaneSet(enc, lanes)
		for _, fr := range frames {
			ls.Transmit(fr)
		}
		p := NewPipeline(enc, lanes, WithWorkers(workers), WithChunkFrames(chunk))
		res, err := p.Run(FramesOf(frames))
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != ls.TotalCost() {
			t.Fatalf("lanes=%d workers=%d chunk=%d: pipeline %+v != serial %+v",
				lanes, workers, chunk, res.Total, ls.TotalCost())
		}
	})
}

// FuzzMaskEquivalence: for every registered scheme, arbitrary bursts and
// prior states must produce identical inversion flags, wires and costs
// through the []bool path and the bit-parallel mask path — and, for
// weights with an exact integer scale, the integer trellis must agree bit
// for bit with the float reference dynamic program. This is the pinning
// contract of the bit-parallel encode core: a mask-path divergence
// anywhere (scheme decision, wire image, cost accounting, final state)
// fails here.
func FuzzMaskEquivalence(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}, byte(0xFF), true, uint8(1), uint8(1))
	f.Add([]byte{}, byte(0), false, uint8(3), uint8(5))
	f.Add([]byte{0x00, 0xFF, 0x00, 0xFF}, byte(0xAA), false, uint8(0), uint8(2))
	f.Add([]byte{0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA}, byte(0x0F), true, uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, prevData byte, prevDBI bool, qa, qb uint8) {
		if len(payload) > bus.MaxMaskBeats {
			payload = payload[:bus.MaxMaskBeats]
		}
		prev := bus.LineState{Data: prevData, DBI: prevDBI}
		b := bus.Burst(payload)
		// Three weight regimes from the fuzzed coefficients: exact
		// integers, dyadic rationals, and a non-representable float pair.
		weightCases := []Weights{
			{Alpha: float64(qa % 8), Beta: float64(qb%8) + 1},
			{Alpha: float64(qa%8) + 0.5, Beta: float64(qb%8) + 0.25},
			{Alpha: float64(qa%8) + 0.3, Beta: float64(qb%8) + 0.7},
		}
		for _, w := range weightCases {
			for _, name := range Names() {
				enc, err := Lookup(name, w)
				if err != nil {
					continue // weights this scheme refuses (validated elsewhere)
				}
				if _, isEx := enc.(Exhaustive); isEx && len(b) > 12 {
					continue // brute force: keep the fuzz round fast
				}
				me, ok := enc.(MaskEncoder)
				if !ok {
					continue
				}
				m, ok := me.EncodeMask(prev, b)
				if !ok {
					continue // declined: []bool fallback is authoritative
				}
				inv := enc.Encode(prev, b)
				want, packOK := bus.MaskFromBools(inv)
				if !packOK {
					t.Fatalf("%s: reference pattern unpackable (%d beats)", name, len(inv))
				}
				if m != want {
					t.Fatalf("%s w=%+v: mask %b != bools %b on %v from %+v", name, w, m, want, payload, prev)
				}
				wire := bus.Apply(b, inv)
				if mc, wc := bus.MaskCost(prev, b, m), wire.Cost(prev); mc != wc {
					t.Fatalf("%s: MaskCost %+v != wire cost %+v", name, mc, wc)
				}
				if ms, ws := bus.MaskFinalState(prev, b, m), wire.FinalState(prev); ms != ws {
					t.Fatalf("%s: MaskFinalState %+v != wire final state %+v", name, ms, ws)
				}
			}
			// Integer vs float trellis, where the integer path is legal.
			if _, _, ok := w.integerize(); ok && len(b) > 0 {
				o := Opt{Weights: w}
				m, ok := o.EncodeMask(prev, b)
				if !ok {
					t.Fatalf("Opt.EncodeMask declined %d beats", len(b))
				}
				ref, _ := bus.MaskFromBools(o.encodeIntoTrellis(nil, prev, b))
				if m != ref {
					t.Fatalf("w=%+v: integer trellis %b != float trellis %b on %v from %+v",
						w, m, ref, payload, prev)
				}
			}
		}
	})
}

// FuzzWideMaskEquivalence is FuzzMaskEquivalence past the single-word
// bound: for every registered scheme, bursts of 65–512 beats must produce
// identical inversion patterns, costs and final states through the []bool
// EncodeInto oracle and the multi-word EncodeMaskWords fast path. The
// fuzzed payload tiles up to the fuzzed length, so the corpus explores
// periodic data (the trellis' worst case for tie-breaking) as well as
// arbitrary bytes. A scheme that declines the burst is skipped — the
// []bool fallback is authoritative there (EXHAUSTIVE always declines
// these lengths).
func FuzzWideMaskEquivalence(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}, byte(0xFF), true, uint8(1), uint8(1), uint16(65))
	f.Add([]byte{0x00, 0xFF}, byte(0xAA), false, uint8(3), uint8(5), uint16(128))
	f.Add([]byte{0x55, 0xAA, 0x55, 0xAA, 0x55}, byte(0x0F), true, uint8(7), uint8(0), uint16(256))
	f.Add([]byte{0x01}, byte(0x00), false, uint8(0), uint8(2), uint16(512))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, byte(0x3C), true, uint8(2), uint8(4), uint16(300))
	f.Fuzz(func(t *testing.T, payload []byte, prevData byte, prevDBI bool, qa, qb uint8, rawN uint16) {
		n := int(rawN)%(512-65+1) + 65
		b := make(bus.Burst, n)
		if len(payload) == 0 {
			payload = []byte{0x5A}
		}
		for t2 := range b {
			b[t2] = payload[t2%len(payload)]
		}
		prev := bus.LineState{Data: prevData, DBI: prevDBI}
		weightCases := []Weights{
			{Alpha: float64(qa % 8), Beta: float64(qb%8) + 1},
			{Alpha: float64(qa%8) + 0.5, Beta: float64(qb%8) + 0.25},
			{Alpha: float64(qa%8) + 0.3, Beta: float64(qb%8) + 0.7},
		}
		var m bus.WideMask
		for _, w := range weightCases {
			for _, name := range Names() {
				enc, err := Lookup(name, w)
				if err != nil || name == thirdPartyName {
					continue // refused weights (validated elsewhere), or no fast path
				}
				we, ok := enc.(WideMaskEncoder)
				if !ok {
					t.Fatalf("%s does not implement WideMaskEncoder", name)
				}
				m.Reset(n)
				if !we.EncodeMaskWords(prev, b, m.Words()) {
					continue // declined: []bool fallback is authoritative
				}
				inv := enc.Encode(prev, b)
				for t2 := range inv {
					if m.Bit(t2) != inv[t2] {
						t.Fatalf("%s w=%+v n=%d: wide beat %d = %v, oracle %v on tile %v from %+v",
							name, w, n, t2, m.Bit(t2), inv[t2], payload, prev)
					}
				}
				wire := bus.Apply(b, inv)
				if mc, wc := bus.WideMaskCost(prev, b, &m), wire.Cost(prev); mc != wc {
					t.Fatalf("%s w=%+v n=%d: WideMaskCost %+v != wire cost %+v", name, w, n, mc, wc)
				}
				if ms, ws := bus.WideMaskFinalState(prev, b, &m), wire.FinalState(prev); ms != ws {
					t.Fatalf("%s w=%+v n=%d: final state %+v != %+v", name, w, n, ms, ws)
				}
			}
		}
	})
}

// FuzzOptNeverWorseThanBaselines: optimality against the per-byte schemes
// for arbitrary payloads.
func FuzzOptNeverWorseThanBaselines(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		b := bus.Burst(payload)
		w := FixedWeights
		opt := w.Cost(CostOf(OptFixed(), bus.InitialLineState, b))
		for _, enc := range []Encoder{Raw{}, DC{}, AC{}, ACDC{}, Greedy{Weights: w}} {
			c := w.Cost(CostOf(enc, bus.InitialLineState, b))
			if opt > c+1e-9 {
				t.Fatalf("OPT (%g) worse than %s (%g) on %v", opt, enc.Name(), c, payload)
			}
		}
	})
}
