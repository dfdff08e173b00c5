package dbi

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"dbiopt/internal/bus"
)

// randomFrames builds a deterministic multi-lane workload.
func randomFrames(seed int64, frames, lanes, beats int) []bus.Frame {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bus.Frame, frames)
	for i := range out {
		f := make(bus.Frame, lanes)
		for l := range f {
			f[l] = randomBurst(rng, beats)
		}
		out[i] = f
	}
	return out
}

// replaySerial is the reference: the exact LaneSet path the pipeline must
// reproduce bit-identically.
func replaySerial(enc Encoder, frames []bus.Frame, lanes int) bus.Cost {
	ls := NewLaneSet(enc, lanes)
	for _, f := range frames {
		ls.Transmit(f)
	}
	return ls.TotalCost()
}

// TestPipelineMatchesLaneSetAllSchemes: for every scheme name the library
// accepts, the pipeline total is bit-identical to a serial LaneSet replay,
// across worker counts and deliberately odd lane/chunk combinations.
func TestPipelineMatchesLaneSetAllSchemes(t *testing.T) {
	for _, name := range Names() {
		enc, err := New(name, FixedWeights)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		// Exhaustive is O(2^beats) per burst; keep the workload small
		// enough that the full scheme sweep stays fast.
		const frames, lanes, beats = 9, 5, 8
		fs := randomFrames(42, frames, lanes, beats)
		want := replaySerial(enc, fs, lanes)
		for _, workers := range []int{0, 1, 2, 3, lanes, lanes + 7} {
			for _, chunk := range []int{0, 1, 2, 7} {
				p := NewPipeline(enc, lanes, WithWorkers(workers), WithChunkFrames(chunk))
				res, err := p.Run(FramesOf(fs))
				if err != nil {
					t.Fatalf("%s workers=%d chunk=%d: %v", name, workers, chunk, err)
				}
				if res.Total != want {
					t.Fatalf("%s workers=%d chunk=%d: total %+v != serial %+v",
						name, workers, chunk, res.Total, want)
				}
				if res.Frames != frames || res.Beats != frames*beats*lanes {
					t.Fatalf("%s: accounting frames=%d beats=%d, want %d, %d",
						name, res.Frames, res.Beats, frames, frames*beats*lanes)
				}
			}
		}
	}
}

// TestPipelinePerLaneMatchesStreams: the per-lane breakdown equals each
// lane's individual Stream accounting, not just the total.
func TestPipelinePerLaneMatchesStreams(t *testing.T) {
	const frames, lanes = 33, 8
	fs := randomFrames(7, frames, lanes, bus.BurstLength)
	enc := OptFixed()
	ls := NewLaneSet(enc, lanes)
	for _, f := range fs {
		ls.Transmit(f)
	}
	p := NewPipeline(enc, lanes, WithWorkers(3), WithChunkFrames(5))
	res, err := p.Run(FramesOf(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lanes; i++ {
		if res.PerLane[i] != ls.Lane(i).TotalCost() {
			t.Fatalf("lane %d: pipeline %+v != stream %+v", i, res.PerLane[i], ls.Lane(i).TotalCost())
		}
	}
}

// TestPipelineStateContinuity: the pipeline must carry line state across
// chunk boundaries. A constant all-zeros workload makes the first burst of
// each lane pay 8 DQ transitions from the idle state and every later burst
// pay none, so any state reset at a chunk boundary is visible in the count.
func TestPipelineStateContinuity(t *testing.T) {
	const frames, lanes = 16, 4
	fs := make([]bus.Frame, frames)
	for i := range fs {
		f := make(bus.Frame, lanes)
		for l := range f {
			f[l] = make(bus.Burst, bus.BurstLength)
		}
		fs[i] = f
	}
	p := NewPipeline(Raw{}, lanes, WithWorkers(2), WithChunkFrames(3))
	res, err := p.Run(FramesOf(fs))
	if err != nil {
		t.Fatal(err)
	}
	want := replaySerial(Raw{}, fs, lanes)
	if res.Total != want {
		t.Fatalf("total %+v != serial %+v", res.Total, want)
	}
	// 8 DQ wires drop high->low once per lane, then never move again.
	if wantTr := lanes * 8; res.Total.Transitions != wantTr {
		t.Fatalf("transitions = %d, want %d (state was reset mid-stream)", res.Total.Transitions, wantTr)
	}
}

// TestPipelineRunLanes: RunLanes must continue an existing LaneSet exactly —
// interleaving single Transmits with pipelined batches over the same lane
// set is bit-identical to one long serial replay, for any worker count.
func TestPipelineRunLanes(t *testing.T) {
	const frames, lanes = 40, 6
	fs := randomFrames(13, frames, lanes, bus.BurstLength)
	enc := OptFixed()
	want := replaySerial(enc, fs, lanes)
	for _, workers := range []int{1, 3, lanes} {
		p := NewPipeline(enc, lanes, WithWorkers(workers), WithChunkFrames(4))
		ls := NewLaneSet(enc, lanes)
		// Singles, a batch, more singles, another batch — one continuous
		// per-lane state throughout.
		for _, f := range fs[:5] {
			ls.Transmit(f)
		}
		if n, err := p.RunLanes(FramesOf(fs[5:25]), ls); err != nil || n != 20 {
			t.Fatalf("workers=%d: RunLanes = %d, %v", workers, n, err)
		}
		for _, f := range fs[25:30] {
			ls.Transmit(f)
		}
		if n, err := p.RunLanes(FramesOf(fs[30:]), ls); err != nil || n != 10 {
			t.Fatalf("workers=%d: RunLanes = %d, %v", workers, n, err)
		}
		if got := ls.TotalCost(); got != want {
			t.Fatalf("workers=%d: interleaved total %+v != serial %+v", workers, got, want)
		}
	}
}

// TestPipelineRunLanesMismatch: a lane set of the wrong width is an error.
func TestPipelineRunLanesMismatch(t *testing.T) {
	p := NewPipeline(DC{}, 4)
	if _, err := p.RunLanes(FramesOf(nil), NewLaneSet(DC{}, 3)); err == nil {
		t.Fatal("lane-set width mismatch not reported")
	}
}

// TestPipelineEmptySource: zero frames is a valid, empty run.
func TestPipelineEmptySource(t *testing.T) {
	p := NewPipeline(DC{}, 4)
	res, err := p.Run(FramesOf(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 0 || res.Beats != 0 || res.Total != (bus.Cost{}) {
		t.Fatalf("empty run produced %+v", res)
	}
}

// errAfter yields n frames, then a non-EOF error.
type errAfter struct {
	frames []bus.Frame
	next   int
	err    error
}

func (s *errAfter) NextFrame() (bus.Frame, error) {
	if s.next >= len(s.frames) {
		return nil, s.err
	}
	f := s.frames[s.next]
	s.next++
	return f, nil
}

// TestPipelineSourceError: a mid-stream source error stops the run cleanly
// and is returned verbatim.
func TestPipelineSourceError(t *testing.T) {
	const lanes = 4
	fs := randomFrames(3, 10, lanes, bus.BurstLength)
	boom := errors.New("disk on fire")
	for _, workers := range []int{1, 3} {
		p := NewPipeline(AC{}, lanes, WithWorkers(workers), WithChunkFrames(4))
		res, err := p.Run(&errAfter{frames: fs, err: boom})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if res != nil {
			t.Fatalf("workers=%d: partial result %+v returned with error", workers, res)
		}
	}
}

// TestPipelineLaneMismatch: a frame of the wrong width is an error, not a
// panic, in both the serial and the sharded path.
func TestPipelineLaneMismatch(t *testing.T) {
	good := randomFrames(5, 3, 4, bus.BurstLength)
	bad := randomFrames(6, 1, 3, bus.BurstLength)
	mixed := append(append([]bus.Frame{}, good...), bad...)
	for _, workers := range []int{1, 2} {
		p := NewPipeline(DC{}, 4, WithWorkers(workers), WithChunkFrames(2))
		if _, err := p.Run(FramesOf(mixed)); err == nil {
			t.Fatalf("workers=%d: lane mismatch not reported", workers)
		}
	}
}

// TestPipelineAccessors: effective option values are observable and
// clamped/defaulted as documented.
func TestPipelineAccessors(t *testing.T) {
	p := NewPipeline(DC{}, 4, WithWorkers(64), WithChunkFrames(0))
	if got := p.Workers(); got != 4 {
		t.Errorf("Workers() = %d, want clamp to 4 lanes", got)
	}
	if got := p.ChunkFrames(); got != DefaultChunkFrames {
		t.Errorf("ChunkFrames() = %d, want default %d", got, DefaultChunkFrames)
	}
	if p.Encoder().Name() != (DC{}).Name() || p.Lanes() != 4 {
		t.Errorf("accessor mismatch: %s, %d lanes", p.Encoder().Name(), p.Lanes())
	}
}

// TestPipelineFramesOfEOF: the slice adapter keeps returning io.EOF once
// drained.
func TestPipelineFramesOfEOF(t *testing.T) {
	src := FramesOf(randomFrames(1, 1, 2, 4))
	if _, err := src.NextFrame(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := src.NextFrame(); err != io.EOF {
			t.Fatalf("read past end: err = %v, want io.EOF", err)
		}
	}
}
