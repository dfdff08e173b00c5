package main

import (
	"dbiopt/internal/adapt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
)

// replayer is the offline oracle of one session: it encodes the session's
// frames without the server, the kernels or the lane-batch layer, and
// produces the reply bytes the server must send. Static schemes run the
// paper-literal Encoder.EncodeInto lane by lane; adaptive sessions run an
// offline dbi.NewAdaptiveLaneSet. Costs are counted beat by beat with
// bus.BeatCost, trusting no encoder-side accounting.
type replayer struct {
	cfg   sessCfg
	enc   dbi.Encoder  // static sessions
	ls    *dbi.LaneSet // adaptive sessions
	coded []bus.LineState
	raw   []bus.LineState
	inv   []bool
	tot   totals
}

func newReplayer(c sessCfg) (*replayer, error) {
	r := &replayer{cfg: c, coded: make([]bus.LineState, c.lanes), raw: make([]bus.LineState, c.lanes)}
	for l := range r.coded {
		r.coded[l], r.raw[l] = bus.InitialLineState, bus.InitialLineState
	}
	w := dbi.Weights{Alpha: c.alpha, Beta: c.beta}
	if c.adapt != nil {
		mk, err := adapt.Factory(adapt.Config{Candidates: c.adapt, Weights: w})
		if err != nil {
			return nil, err
		}
		r.ls = dbi.NewAdaptiveLaneSet(mk, c.lanes)
		return r, nil
	}
	enc, err := dbi.Lookup(c.scheme, w)
	if err != nil {
		return nil, err
	}
	r.enc = enc
	return r, nil
}

// frame encodes one lanes×beats payload (lane-major) and returns the
// expected mask reply body: ⌈beats/8⌉ bytes per lane, bit t set when beat t
// is sent inverted.
func (r *replayer) frame(payload []byte) []byte {
	lanes, beats := r.cfg.lanes, r.cfg.beats
	mb := (beats + 7) / 8
	masks := make([]byte, lanes*mb)
	var wires []bus.Wire
	if r.ls != nil {
		f := make(bus.Frame, lanes)
		for l := range f {
			f[l] = payload[l*beats : (l+1)*beats]
		}
		wires = r.ls.Transmit(f)
	}
	for l := 0; l < lanes; l++ {
		b := bus.Burst(payload[l*beats : (l+1)*beats])
		if wires != nil {
			r.inv = append(r.inv[:0], wires[l].Inverted()...)
		} else {
			r.inv = r.enc.EncodeInto(r.inv[:0], r.coded[l], b)
		}
		for t, v := range b {
			inv := r.inv[t]
			if inv {
				masks[l*mb+t/8] |= 1 << (t % 8)
			}
			c := bus.BeatCost(r.coded[l], v, inv)
			r.tot.codedZeros += uint64(c.Zeros)
			r.tot.codedTrans += uint64(c.Transitions)
			r.coded[l] = bus.Advance(r.coded[l], v, inv)
			c = bus.BeatCost(r.raw[l], v, false)
			r.tot.rawZeros += uint64(c.Zeros)
			r.tot.rawTrans += uint64(c.Transitions)
			r.raw[l] = bus.Advance(r.raw[l], v, false)
		}
	}
	r.tot.frames++
	r.tot.beats += uint64(lanes * beats)
	return masks
}

// totals returns the session's cumulative totals so far.
func (r *replayer) totals() totals {
	t := r.tot
	if r.ls != nil {
		for l := 0; l < r.ls.Lanes(); l++ {
			t.switches += uint64(r.ls.Lane(l).Adapter().(*adapt.Controller).Switches())
		}
	}
	return t
}
