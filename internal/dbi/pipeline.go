package dbi

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"dbiopt/internal/bus"
)

// FrameSource yields the successive frames of a multi-lane streaming
// workload. NextFrame returns io.EOF after the last frame. Implementations
// need not be safe for concurrent use: the pipeline pulls frames from a
// single goroutine, in order. The returned frame must not be mutated or
// recycled by the source until the pipeline run completes.
type FrameSource interface {
	NextFrame() (bus.Frame, error)
}

// frameSlice adapts an in-memory frame sequence to a FrameSource.
type frameSlice struct {
	frames []bus.Frame
	next   int
}

// FramesOf returns a FrameSource replaying the given frames in order.
func FramesOf(frames []bus.Frame) FrameSource {
	return &frameSlice{frames: frames}
}

// NextFrame implements FrameSource.
func (s *frameSlice) NextFrame() (bus.Frame, error) {
	if s.next >= len(s.frames) {
		return nil, io.EOF
	}
	f := s.frames[s.next]
	s.next++
	return f, nil
}

// DefaultChunkFrames is the number of frames batched per shard hand-off when
// WithChunkFrames is not given: large enough to amortise channel traffic,
// small enough to keep only a few chunks in flight.
const DefaultChunkFrames = 64

// Pipeline encodes a multi-lane streaming workload concurrently while
// reproducing the serial LaneSet semantics exactly. Each lane's burst
// sequence is an independent Markov chain over the lane's LineState — lane
// i's encoding never observes lane j — so the pipeline shards lanes across
// workers with zero coordination: every worker owns a contiguous lane range
// and drives one persistent Stream per owned lane. Frames are pulled from a
// FrameSource in chunks, so whole traces never need to be materialised, and
// all accounting is integer Cost, which makes the totals bit-identical to a
// serial LaneSet replay of the same source regardless of scheduling.
type Pipeline struct {
	enc     Encoder
	kern    *Kernel // enc compiled for the pipeline's lane geometry
	lanes   int
	workers int
	chunk   int
}

// PipelineOption configures a Pipeline at construction.
type PipelineOption func(*Pipeline)

// WithWorkers sets the number of encoding goroutines. n <= 0 (the default)
// selects GOMAXPROCS. The effective count never exceeds the lane count,
// since lanes are the unit of sharding.
func WithWorkers(n int) PipelineOption {
	return func(p *Pipeline) { p.workers = n }
}

// WithChunkFrames sets how many frames are batched per shard hand-off.
// n <= 0 selects DefaultChunkFrames. Smaller chunks reduce memory in
// flight; larger chunks reduce synchronisation overhead. The choice never
// affects results, only throughput.
func WithChunkFrames(n int) PipelineOption {
	return func(p *Pipeline) { p.chunk = n }
}

// NewPipeline returns a pipeline encoding frames of the given lane count
// with enc. Like NewLaneSet it panics on a non-positive lane count; the
// encoder value is shared across workers, which the registration contract
// (encoders are pure) makes safe.
func NewPipeline(enc Encoder, lanes int, opts ...PipelineOption) *Pipeline {
	if lanes <= 0 {
		panic(fmt.Sprintf("dbi: lane count must be positive, got %d", lanes))
	}
	return newPipelineKernel(CompileEncoder(enc, Geometry{Lanes: lanes}), lanes, opts...)
}

// newPipelineKernel builds a pipeline around an already-compiled kernel.
func newPipelineKernel(k *Kernel, lanes int, opts ...PipelineOption) *Pipeline {
	if lanes <= 0 {
		panic(fmt.Sprintf("dbi: lane count must be positive, got %d", lanes))
	}
	p := &Pipeline{enc: k.enc, kern: k, lanes: lanes}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Encoder returns the coding policy the pipeline applies.
func (p *Pipeline) Encoder() Encoder { return p.enc }

// Lanes returns the lane count the pipeline expects of every frame.
func (p *Pipeline) Lanes() int { return p.lanes }

// Workers returns the effective worker count Run will use.
func (p *Pipeline) Workers() int {
	w := p.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > p.lanes {
		w = p.lanes
	}
	return w
}

// ChunkFrames returns the effective frames-per-chunk batch size.
func (p *Pipeline) ChunkFrames() int {
	if p.chunk <= 0 {
		return DefaultChunkFrames
	}
	return p.chunk
}

// PipelineResult is the exact activity accounting of one pipeline run.
type PipelineResult struct {
	// Frames is the number of frames consumed from the source.
	Frames int
	// Beats is the total number of beats transmitted, summed over all
	// lanes. Lanes need not transmit equally many beats (a frame source may
	// pad a short final frame with zero-beat bursts), so a per-lane figure
	// would be ill-defined.
	Beats int
	// PerLane holds each lane's accumulated cost, in lane order.
	PerLane []bus.Cost
	// Total is the sum over PerLane, accumulated in lane order exactly as
	// LaneSet.TotalCost does.
	Total bus.Cost
}

// Run consumes src to io.EOF, encoding every frame, and returns the
// accumulated activity counts. The totals are bit-identical to replaying
// the same frames through a serial LaneSet. On a source error, or on a
// frame whose lane count does not match the pipeline's, the run stops and
// the error is returned; partial counts are discarded.
func (p *Pipeline) Run(src FrameSource) (*PipelineResult, error) {
	streams := make([]*Stream, p.lanes)
	for i := range streams {
		streams[i] = p.kern.NewStream()
	}
	var frames int
	var err error
	if workers := p.Workers(); workers <= 1 {
		frames, err = p.runSerial(src, streams)
	} else {
		frames, err = p.runSharded(src, streams, p.kern, workers)
	}
	if err != nil {
		return nil, err
	}
	res := &PipelineResult{Frames: frames, PerLane: make([]bus.Cost, p.lanes)}
	for i, s := range streams {
		res.PerLane[i] = s.TotalCost()
		res.Total = res.Total.Add(res.PerLane[i])
		res.Beats += s.Beats()
	}
	return res, nil
}

// RunLanes consumes src to io.EOF, encoding every frame into the per-lane
// streams of an existing LaneSet instead of fresh ones. The lane set keeps
// its wire state and accumulated totals across calls, so successive batches
// encode exactly as one long serial LaneSet replay would, so a caller may
// interleave single-frame transmits (LaneSet.Transmit) with pipelined
// batches over one continuous per-lane state. The number of frames consumed
// from src is returned.
//
// Single-worker pipelines run serially in LaneSet evaluation order.
// Adaptive lane sets shard like static ones — each lane's adapter is
// confined to its stream, so its window accounting and switch points carry
// across chunk boundaries on the worker that owns the lane, and sharded
// totals (and switch decisions) stay bit-identical to the serial replay.
// On an error the lane set must be discarded: some lanes may have advanced
// past the failing frame while others have not.
func (p *Pipeline) RunLanes(src FrameSource, ls *LaneSet) (int, error) {
	if ls.Lanes() != p.lanes {
		return 0, fmt.Errorf("dbi: lane set has %d lanes, pipeline has %d", ls.Lanes(), p.lanes)
	}
	workers := p.Workers()
	if workers <= 1 {
		return p.runSerial(src, ls.lanes)
	}
	// ls.kern is nil for adaptive lane sets, which routes every frame
	// through the per-lane path inside the workers — adapters must observe
	// their own lane's bursts one at a time.
	return p.runSharded(src, ls.lanes, ls.kern, workers)
}

// checkFrame validates one frame's geometry against the pipeline.
func (p *Pipeline) checkFrame(n int, f bus.Frame) error {
	if f.Lanes() != p.lanes {
		return fmt.Errorf("dbi: frame %d has %d lanes, pipeline has %d", n, f.Lanes(), p.lanes)
	}
	return nil
}

// runSerial is the single-goroutine path: frame-major, lane-minor, the
// exact evaluation order of LaneSet.Transmit.
func (p *Pipeline) runSerial(src FrameSource, streams []*Stream) (int, error) {
	frames := 0
	for {
		f, err := src.NextFrame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		if err := p.checkFrame(frames, f); err != nil {
			return frames, err
		}
		for i, b := range f {
			streams[i].Transmit(b)
		}
		frames++
	}
}

// frameBatch is one chunk of frames in flight, shared by every worker. refs
// counts the workers still reading it; the last one done returns the batch
// to the free list so the producer can refill it instead of allocating.
type frameBatch struct {
	frames []bus.Frame
	refs   atomic.Int32
}

// shardWorker drains one worker's chunk channel, transmitting every frame's
// bursts on the worker's contiguous lane range [lo, hi) and recycling fully
// consumed batches through the free list. With a uniform compiled policy
// (k non-nil) each frame's lane range encodes as one struct-of-arrays
// LaneBatch — no per-lane dispatch, no wire images — through a batch
// recycled in laneBatchPool across runs; adaptive lane sets (k nil) and
// ragged frames fall back to per-lane Transmit. This is the sharded
// pipeline's steady-state loop: per chunk it must allocate nothing, which
// the escape gate pins.
//
//dbi:hotpath
func shardWorker(k *Kernel, streams []*Stream, lo, hi int, ch <-chan *frameBatch, free chan<- *frameBatch) {
	lb := getLaneBatch()
	defer putLaneBatch(lb)
	for batch := range ch {
		for _, f := range batch.frames {
			if k != nil && transmitBatch(k, streams, f, lo, hi, lb) {
				continue
			}
			for i := lo; i < hi; i++ {
				streams[i].Transmit(f[i])
			}
		}
		if batch.refs.Add(-1) == 0 {
			// Drop the frame references before recycling so the batch does
			// not pin source frames past their chunk.
			clear(batch.frames)
			batch.frames = batch.frames[:0]
			select {
			case free <- batch:
			default:
			}
		}
	}
}

// runSharded fans chunks of frames out to workers, each owning a contiguous
// lane range. Every worker receives every chunk, in order, through its own
// channel, so each lane's stream still sees its bursts in source order.
// Chunk buffers are recycled through a refcounted free list, so a
// steady-state run allocates nothing per chunk.
func (p *Pipeline) runSharded(src FrameSource, streams []*Stream, k *Kernel, workers int) (int, error) {
	chunkFrames := p.ChunkFrames()
	chans := make([]chan *frameBatch, workers)
	// At most workers*(cap+1)+1 batches can be in flight (queued, being
	// processed, or being filled); the free list only ever needs a few
	// slots, and a full list simply drops the batch for GC.
	free := make(chan *frameBatch, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Balanced contiguous lane ranges: the first (lanes % workers)
		// shards take one extra lane.
		lo := w * p.lanes / workers
		hi := (w + 1) * p.lanes / workers
		ch := make(chan *frameBatch, 2)
		chans[w] = ch
		wg.Add(1)
		go func(lo, hi int, ch <-chan *frameBatch) {
			defer wg.Done()
			shardWorker(k, streams, lo, hi, ch, free)
		}(lo, hi, ch)
	}

	stop := func() {
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
	}

	newBatch := func() *frameBatch {
		select {
		case b := <-free:
			return b
		default:
			return &frameBatch{frames: make([]bus.Frame, 0, chunkFrames)}
		}
	}

	frames := 0
	batch := newBatch()
	flush := func() {
		if len(batch.frames) == 0 {
			return
		}
		// The refcount must cover every worker before the first send: a
		// fast worker may finish the batch while we are still fanning out.
		batch.refs.Store(int32(workers))
		for _, ch := range chans {
			ch <- batch
		}
		batch = newBatch()
	}
	for {
		f, err := src.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			stop()
			return frames, err
		}
		if err := p.checkFrame(frames, f); err != nil {
			stop()
			return frames, err
		}
		batch.frames = append(batch.frames, f)
		frames++
		if len(batch.frames) >= chunkFrames {
			flush()
		}
	}
	flush()
	stop()
	return frames, nil
}
