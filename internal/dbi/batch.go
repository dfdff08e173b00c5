// batch.go is the struct-of-arrays batch encode layer: one LaneBatch holds
// a whole frame's lanes in contiguous arrays (prev states, payload bytes,
// word-packed output masks, costs, next states), so frame-level callers —
// LaneSet.TransmitBatch, the pipeline shard workers, the serving tier — pay
// one call per frame instead of one interface dispatch per lane. Table-
// driven schemes implement BatchEncoder natively with fused or interleaved
// bit-parallel kernels; trellis schemes run through a generic per-lane
// driver over the same arrays, still mask-native via the wide path.
package dbi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"dbiopt/internal/bus"
)

// LaneBatch is the struct-of-arrays encode state of one frame: lane l's
// burst occupies data[l*beats:(l+1)*beats], its word-packed inversion
// pattern masks[l*wpl:(l+1)*wpl] (wpl = bus.WideWords(beats)), and its
// prior state, exact activity counts and post-burst state the l-th entry of
// prev, costs and next. All arrays are reused across Resets, so a reused
// batch encodes frames with zero steady-state heap allocations.
//
// A LaneBatch is uniform by construction: every lane carries the same
// number of beats. Ragged frames (a source may pad a short final frame with
// zero-beat bursts) are handled by the callers' serial fallback, which
// still fills the batch's outputs lane by lane.
type LaneBatch struct {
	lanes, beats, wpl int
	prev              []bus.LineState
	next              []bus.LineState
	costs             []bus.Cost
	data              []byte
	masks             []uint64
	inv               []bool // generic-path scratch for []bool-only encoders
	settled           bool   // encoder filled costs and next states itself
}

// Reset prepares the batch for a frame of the given geometry: sizes every
// array, clears the mask words (encoders OR decisions into them) and leaves
// prev to be set per lane. Allocation happens only while the arrays grow to
// the largest frame seen.
//
//dbi:hotpath
func (lb *LaneBatch) Reset(lanes, beats int) {
	if lanes < 0 || beats < 0 {
		panic(fmt.Sprintf("dbi: negative batch geometry %d lanes × %d beats", lanes, beats)) //dbi:allow-escape panic formatting, dead on valid input
	}
	lb.lanes, lb.beats, lb.wpl = lanes, beats, bus.WideWords(beats)
	lb.settled = false
	if cap(lb.prev) < lanes {
		lb.prev = make([]bus.LineState, lanes) //dbi:allow-escape array growth, amortized across Resets
		lb.next = make([]bus.LineState, lanes) //dbi:allow-escape array growth, amortized across Resets
		lb.costs = make([]bus.Cost, lanes)     //dbi:allow-escape array growth, amortized across Resets
	}
	lb.prev, lb.next, lb.costs = lb.prev[:lanes], lb.next[:lanes], lb.costs[:lanes]
	if cap(lb.data) < lanes*beats {
		lb.data = make([]byte, lanes*beats) //dbi:allow-escape array growth, amortized across Resets
	}
	lb.data = lb.data[:lanes*beats]
	nw := lanes * lb.wpl
	if cap(lb.masks) < nw {
		lb.masks = make([]uint64, nw) //dbi:allow-escape array growth, amortized across Resets
	}
	lb.masks = lb.masks[:nw]
	clear(lb.masks)
}

// Lanes returns the batch's lane count.
func (lb *LaneBatch) Lanes() int { return lb.lanes }

// Beats returns the batch's per-lane beat count.
func (lb *LaneBatch) Beats() int { return lb.beats }

// SetPrev sets lane l's pre-burst line state.
func (lb *LaneBatch) SetPrev(l int, st bus.LineState) { lb.prev[l] = st }

// Prev returns lane l's pre-burst line state.
func (lb *LaneBatch) Prev(l int) bus.LineState { return lb.prev[l] }

// SetLane copies lane l's payload into the batch's contiguous data array.
// len(b) must not exceed the batch's beat count; shorter bursts (a ragged
// frame's padding) leave the remaining bytes untouched.
func (lb *LaneBatch) SetLane(l int, b bus.Burst) {
	copy(lb.data[l*lb.beats:(l+1)*lb.beats], b)
}

// Lane returns lane l's payload view into the contiguous data array.
func (lb *LaneBatch) Lane(l int) bus.Burst {
	return bus.Burst(lb.data[l*lb.beats : (l+1)*lb.beats])
}

// MaskWords returns lane l's word-packed inversion pattern, in the layout
// of bus.WideMask.Words. It is valid until the next Reset.
func (lb *LaneBatch) MaskWords(l int) []uint64 {
	return lb.masks[l*lb.wpl : (l+1)*lb.wpl]
}

// Mask returns lane l's pattern as a single-word bus.InvMask; ok is false
// past bus.MaxMaskBeats.
func (lb *LaneBatch) Mask(l int) (bus.InvMask, bool) {
	if lb.beats > bus.MaxMaskBeats {
		return 0, false
	}
	if lb.wpl == 0 {
		return 0, true
	}
	return bus.InvMask(lb.MaskWords(l)[0]), true
}

// Cost returns lane l's exact activity counts, valid after the encode pass.
func (lb *LaneBatch) Cost(l int) bus.Cost { return lb.costs[l] }

// Next returns lane l's post-burst line state, valid after the encode pass.
func (lb *LaneBatch) Next(l int) bus.LineState { return lb.next[l] }

// TotalCost sums the per-lane activity counts in lane order.
func (lb *LaneBatch) TotalCost() bus.Cost {
	var c bus.Cost
	for _, lc := range lb.costs {
		c = c.Add(lc)
	}
	return c
}

// BatchEncoder is the frame-level fast path of an Encoder: EncodeBatch
// fills every lane's mask words of a prepared LaneBatch (geometry, prev
// states and payload set; masks zeroed by Reset) in one call. ok reports
// whether the batch path applies — when false the caller falls back to the
// generic per-lane driver — and when true every lane's pattern is
// bit-identical to what EncodeInto produces for that lane alone. Costs and
// next states are normally not the encoder's concern — EncodeLaneBatch
// settles them from the masks afterwards — but a kernel whose sweep already
// holds the counts may fill them itself and mark the batch settled (DC
// does), skipping the separate settle pass.
//
// The table-driven schemes (RAW, DC, AC, ACDC, GREEDY) implement it
// natively — DC as one fused decide-and-cost sweep, AC/ACDC through the
// SWAR prefix-XOR kernel, GREEDY with an 8-lane interleaved inner loop —
// with no per-lane interface dispatch.
type BatchEncoder interface {
	EncodeBatch(lb *LaneBatch) bool
}

// batchEncoderOf returns enc's frame-level fast path or nil.
func batchEncoderOf(enc Encoder) BatchEncoder {
	be, _ := enc.(BatchEncoder)
	return be
}

// EncodeLaneBatch encodes every lane of a prepared batch with enc and
// settles the per-lane costs and next states from the resulting masks. It
// is Kernel.EncodeBatch behind a compile-on-demand cache: enc compiles
// once (per comparable encoder value) and every decision — the
// frame-level fast path, the per-lane mask routing — is the kernel's. The
// results are bit-identical to encoding each lane with its own Stream —
// the contract TestLaneBatchMatchesSerial pins. Callers holding a *Kernel
// should call its EncodeBatch directly.
//
//dbi:hotpath
func EncodeLaneBatch(enc Encoder, lb *LaneBatch) {
	kernelOf(enc).EncodeBatch(lb)
}

// EncodeBatch implements BatchEncoder: RAW inverts nothing, and the mask
// words are already zero.
//
//dbi:hotpath
func (Raw) EncodeBatch(lb *LaneBatch) bool { return true }

// EncodeBatch implements BatchEncoder for DC: the rule is pure per-byte, so
// the batch is one linear sweep over the contiguous data array, 8 beats per
// 64-bit load within each lane — fused with the cost settle, so the batch
// never runs the separate MaskWordsCost pass.
//
//dbi:hotpath
func (DC) EncodeBatch(lb *LaneBatch) bool {
	dcBatchFused(lb)
	lb.settled = true
	return true
}

// dcBatchFused encodes every lane under the DC rule and settles the exact
// activity counts and final states in the same 8-beats-per-iteration sweep,
// one call for the whole frame. The SWAR pass already holds the per-byte
// popcounts and 0/1 flag bytes dcMaskBytes gathers, so the inverted wire
// word is one XOR with flags*0xff and the DQ counts two popcounts away; the
// DBI wire's share falls out of the per-word decision register — the
// dbiWordsCost identity, one popcount pair per 64 beats. The results are
// bit-identical to dcMaskWords followed by bus.MaskWordsCost and
// bus.MaskWordsFinalState on each lane.
//
//dbi:hotpath
func dcBatchFused(lb *LaneBatch) {
	n, wpl := lb.beats, lb.wpl
	for l := 0; l < lb.lanes; l++ {
		prev := lb.prev[l]
		if n == 0 {
			lb.costs[l] = bus.Cost{}
			lb.next[l] = prev
			continue
		}
		b := lb.data[l*n : (l+1)*n]
		words := lb.masks[l*wpl : (l+1)*wpl]
		var c bus.Cost
		ones := 0               // total DQ ones after inversion; zeros fall out at the end
		dw := uint64(prev.Data) // previous wire byte on the DQ lines
		carry := uint64(0)      // DBI inversion level entering the current word's beat 0
		if !prev.DBI {
			carry = 1
		}
		base := 0
		for k := 0; base < n; k++ {
			end := base + 64
			if end > n {
				end = n
			}
			g8 := b[base:end] // this word's payload bytes, consumed in place
			sh := uint(0)     // decision-bit position of g8[0] within the word
			var gw uint64     // this word's decision bits, built in a register
			// Two 8-beat groups per iteration: the next group's predecessor
			// byte comes straight from wi, not from the previous iteration's
			// accumulators, so both groups' SWAR chains run in parallel. The
			// slice-consuming form lets the compiler drop the load bounds
			// checks (len(g8) >= 16 covers both reads).
			for ; len(g8) >= 16; g8 = g8[16:] {
				w0 := binary.LittleEndian.Uint64(g8)
				w1 := binary.LittleEndian.Uint64(g8[8:])
				v0 := w0 - w0>>1&0x5555555555555555
				v1 := w1 - w1>>1&0x5555555555555555
				v0 = v0&0x3333333333333333 + v0>>2&0x3333333333333333
				v1 = v1&0x3333333333333333 + v1>>2&0x3333333333333333
				// Low nibble of byte j now holds ones of payload byte j after
				// one more fold; the high nibble keeps junk from the
				// neighbouring byte, but ones+4 <= 12 never carries past bit
				// 3, so the threshold test needs no nibble mask. Flag bytes
				// become 1 where ones <= 3.
				fb0 := (v0+v0>>4+0x0404040404040404)&0x0808080808080808>>3 ^ 0x0101010101010101
				fb1 := (v1+v1>>4+0x0404040404040404)&0x0808080808080808>>3 ^ 0x0101010101010101
				g := fb0*0x0102040810204080>>56 | fb1*0x0102040810204080>>48&0xff00
				gw |= g << sh
				sh += 16
				wi0 := w0 ^ fb0*0xff // the wire bytes after inversion
				wi1 := w1 ^ fb1*0xff
				ones += bits.OnesCount64(wi0) + bits.OnesCount64(wi1)
				c.Transitions += bits.OnesCount64(wi0^(wi0<<8|dw)) +
					bits.OnesCount64(wi1^(wi1<<8|wi0>>56))
				dw = wi1 >> 56
			}
			for ; len(g8) >= 8; g8 = g8[8:] {
				w8 := binary.LittleEndian.Uint64(g8)
				v := w8 - w8>>1&0x5555555555555555
				v = v&0x3333333333333333 + v>>2&0x3333333333333333
				fb := (v+v>>4+0x0404040404040404)&0x0808080808080808>>3 ^ 0x0101010101010101
				gw |= fb * 0x0102040810204080 >> 56 << sh
				sh += 8
				wi := w8 ^ fb*0xff
				ones += bits.OnesCount64(wi)
				c.Transitions += bits.OnesCount64(wi ^ (wi<<8 | dw))
				dw = wi >> 56
			}
			for _, pb := range g8 {
				f := uint64(dcInv[pb])
				gw |= f << sh
				sh++
				w := pb ^ -byte(f)
				ones += bus.Ones(w)
				c.Transitions += bus.Ones(byte(dw) ^ w)
				dw = uint64(w)
			}
			words[k] |= gw
			nb := uint(end - base)
			base = end
			x := gw ^ (gw<<1 | carry)
			if nb < 64 {
				x &= ^uint64(0) >> (64 - nb) // bits at or past nb are zero in gw itself
			}
			c.Zeros += bits.OnesCount64(gw)
			c.Transitions += bits.OnesCount64(x)
			carry = gw >> (nb - 1) & 1
		}
		c.Zeros += 8*n - ones
		lb.costs[l] = c
		lb.next[l] = bus.LineState{Data: byte(dw), DBI: carry == 0}
	}
}

// acBatch runs the payload-domain AC recurrence over every lane of the
// batch through the bit-parallel acMaskWords kernel — the prefix-XOR form
// collapses the loop-carried chain to one bit per 8-beat group, so a plain
// per-lane sweep already saturates the ALUs and no cross-lane interleave is
// needed. firstDC switches the first beat to the DC rule (the ACDC hybrid).
//
//dbi:hotpath
func acBatch(lb *LaneBatch, firstDC bool) {
	for l := 0; l < lb.lanes; l++ {
		b := lb.Lane(l)
		words := lb.MaskWords(l)
		if firstDC {
			if lb.beats > 0 {
				f := dcInv[b[0]]
				words[0] |= uint64(f)
				acMaskWords(b[0], f, b, 1, words)
			}
			continue
		}
		pp, pinv := acSeedByte(lb.prev[l])
		acMaskWords(pp, pinv, b, 0, words)
	}
}

// EncodeBatch implements BatchEncoder for the JEDEC AC scheme.
//
//dbi:hotpath
func (AC) EncodeBatch(lb *LaneBatch) bool {
	acBatch(lb, false)
	return true
}

// EncodeBatch implements BatchEncoder for ACDC.
//
//dbi:hotpath
func (ACDC) EncodeBatch(lb *LaneBatch) bool {
	acBatch(lb, true)
	return true
}

// EncodeBatch implements BatchEncoder for the weighted greedy heuristic:
// the weights integerize once per frame (not once per lane), then lanes run
// eight-wide through the interleaved integer kernel. Weights with no exact
// integer scale decline the whole batch.
//
//dbi:hotpath
func (g Greedy) EncodeBatch(lb *LaneBatch) bool {
	ia, ib, ok := g.Weights.integerize()
	if !ok {
		return false
	}
	thr := greedyThresholds(ia, ib)
	greedyBatch(lb, ia, ib, &thr)
	return true
}

// greedyThresholds precomputes the greedy invert decision as a threshold
// table: thr[pv] is the least wire-domain distance-plus-settle u at which
// inverting a beat of payload popcount pv becomes cheaper, i.e. the least u
// with ia*(9-2u) < ib*(7-2pv) (10 — past any reachable u — when inverting
// never wins). The compiled greedy kernel freezes this table per weight
// vector so its inner loop replaces two weighted products with one
// small-table compare.
func greedyThresholds(ia, ib int64) [9]int64 {
	var thr [9]int64
	for pv := int64(0); pv <= 8; pv++ {
		thr[pv] = 10
		for u := int64(0); u <= 9; u++ {
			if ia*(9-2*u) < ib*(7-2*pv) {
				thr[pv] = u
				break
			}
		}
	}
	return thr
}

// greedyBatch is the eight-lane interleaved form of greedyMaskWords. The
// greedy recurrence's only loop-carried state is one payload byte and one
// inversion level per lane, so eight lanes fit in registers and their beat-t
// decisions evaluate back to back with no cross-lane dependency. The
// previous DBI level folds into the cost terms as p in {0,1}: the plain
// wire-domain distance is u = y + p*(9-2y) transitions-plus-settle, and the
// invert decision flipped < plain reduces to ia*(9-2u) < ib*(7-2pv) — for
// fixed weights a pure threshold on u per payload popcount (see
// greedyThresholds), so the inner loop replaces the two weighted products
// with one small-table compare.
//
//dbi:hotpath
func greedyBatch(lb *LaneBatch, ia, ib int64, thr *[9]int64) {
	beats, wpl := lb.beats, lb.wpl
	l := 0
	for ; l+8 <= lb.lanes; l += 8 {
		var pp [8]byte
		var p [8]int64
		var off [8]int
		for j := 0; j < 8; j++ {
			s, pinv := acSeed(lb.prev[l+j])
			pp[j] = s
			if pinv {
				p[j] = 1
			}
			off[j] = (l + j) * beats
		}
		t := 0
		for w := 0; w*64 < beats; w++ {
			end := (w + 1) * 64
			if end > beats {
				end = beats
			}
			var acc [8]uint64
			for ; t < end; t++ {
				sh := uint(t & 63)
				for j := 0; j < 8; j++ {
					v := lb.data[off[j]+t]
					y := int64(bus.Ones(pp[j] ^ v))
					u := y + (9-2*y)&(-p[j]) // y, or 9-y when the lane is inverted
					var f int64
					if u >= thr[bus.Ones(v)] {
						f = 1
					}
					acc[j] |= uint64(f) << sh
					pp[j] = v
					p[j] = f
				}
			}
			for j := 0; j < 8; j++ {
				lb.masks[(l+j)*wpl+w] |= acc[j]
			}
		}
	}
	for ; l < lb.lanes; l++ {
		greedyMaskWords(lb.prev[l], lb.Lane(l), ia, ib, lb.MaskWords(l))
	}
}

// laneBatchPool recycles LaneBatches across pipeline runs and transient
// frame-level callers, so steady-state batch encoding allocates nothing
// even when the batch's owner is itself short-lived.
var laneBatchPool = sync.Pool{New: func() any { return new(LaneBatch) }}

// getLaneBatch hands out a pooled batch; pair with putLaneBatch.
func getLaneBatch() *LaneBatch { return laneBatchPool.Get().(*LaneBatch) }

// putLaneBatch recycles a batch. The caller must not retain views into it.
func putLaneBatch(lb *LaneBatch) { laneBatchPool.Put(lb) }
