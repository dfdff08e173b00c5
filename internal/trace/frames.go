package trace

import (
	"fmt"
	"io"

	"dbiopt/internal/bus"
)

// Frame sources adapt the package's burst producers to the multi-lane
// streaming shape consumed by dbi.Pipeline: a sequence of bus.Frames ended
// by io.EOF. They deliberately satisfy the interface structurally (a
// NextFrame method) so this package stays free of a dbi dependency.

// FrameGen draws frames from a Source: each frame is lanes fresh bursts, in
// lane order, so a serial replay of the generator produces byte-identical
// traffic. The generator is bounded to a frame budget because pipeline runs
// consume their source to EOF and every Source is endless.
type FrameGen struct {
	src    Source
	lanes  int
	beats  int
	remain int
}

// NewFrameGen returns a source of exactly frames frames of lanes x beats
// bursts drawn from src.
func NewFrameGen(src Source, lanes, beats, frames int) (*FrameGen, error) {
	if lanes <= 0 || beats <= 0 || frames < 0 {
		return nil, fmt.Errorf("trace: bad frame geometry: %d lanes x %d beats x %d frames", lanes, beats, frames)
	}
	return &FrameGen{src: src, lanes: lanes, beats: beats, remain: frames}, nil
}

// NextFrame returns the next frame, or io.EOF once the budget is spent.
func (g *FrameGen) NextFrame() (bus.Frame, error) {
	if g.remain <= 0 {
		return nil, io.EOF
	}
	g.remain--
	f := make(bus.Frame, g.lanes)
	for i := range f {
		f[i] = g.src.Next(g.beats)
	}
	return f, nil
}

// FrameReader groups every lanes consecutive bursts of a trace into one
// frame — burst i of the trace becomes lane i%lanes of frame i/lanes — so a
// single-lane trace file replays onto a multi-lane bus without ever holding
// more than one frame in memory. If the trace ends mid-frame the missing
// lanes carry zero-beat bursts and the short frame is still delivered: no
// payload is silently dropped, and a zero-beat burst drives no wires, so
// the padding contributes exactly nothing to the activity counts.
type FrameReader struct {
	r     *Reader
	lanes int
	done  bool
}

// NewFrameReader returns a frame source replaying r across the given number
// of lanes.
func NewFrameReader(r *Reader, lanes int) (*FrameReader, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("trace: lane count must be positive, got %d", lanes)
	}
	return &FrameReader{r: r, lanes: lanes}, nil
}

// NextFrame returns the next frame, or io.EOF after the trace's last burst.
func (fr *FrameReader) NextFrame() (bus.Frame, error) {
	if fr.done {
		return nil, io.EOF
	}
	f := make(bus.Frame, fr.lanes)
	for i := range f {
		b, err := fr.r.Read()
		if err == io.EOF {
			if i == 0 {
				fr.done = true
				return nil, io.EOF
			}
			// Fill the remaining lanes of a short final frame with
			// zero-beat bursts: cost-free, unlike phantom payload.
			for ; i < fr.lanes; i++ {
				f[i] = bus.Burst{}
			}
			fr.done = true
			return f, nil
		}
		if err != nil {
			return nil, err
		}
		f[i] = b
	}
	return f, nil
}

// NextFrameView is the in-place form of FrameReader over a ParseBlob body:
// it points f's lanes at the next len(f) bursts of body — burst i onto lane
// i%len(f), exactly as FrameReader groups a Reader's bursts — and returns
// the bytes after them. A short final frame's missing lanes get zero-beat
// bursts, as FrameReader pads them. The bursts are views into body, so f
// is valid only as long as body is. body must be a whole number of beats-
// byte bursts.
func NextFrameView(f bus.Frame, body []byte, beats int) (rest []byte) {
	for l := range f {
		if len(body) == 0 {
			f[l] = bus.Burst(body) // zero beats: drives no wires
			continue
		}
		f[l], body = bus.Burst(body[:beats:beats]), body[beats:]
	}
	return body
}
