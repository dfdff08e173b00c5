package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"dbiopt/internal/adapt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/server"
	"dbiopt/internal/trace"
)

// The offline rungs time each layer's public entry point on the workload's
// own correctness-phase inputs, from the kernel up to the socket, so the
// difference between adjacent rungs is one layer's cost. Each rung is the
// median of reps timed repetitions, each passing over the inputs often
// enough to encode at least rungMinBeats beats.

// rungSession is one session's rung inputs: its configuration and frames as
// bus.Frames, grouped into the batches the server would receive, and each
// batch as the DBIT blob that carries it.
type rungSession struct {
	cfg     sessCfg
	kern    *dbi.Kernel // nil for adaptive sessions
	batches [][]bus.Frame
	blobs   [][]byte
}

type rungs struct {
	wl       workload
	sessions []rungSession
	bursts   int // bursts per pass over every session
	reps     int
	passes   int
	out      map[string]float64
}

// sink keeps the compiler from discarding the timed calls' results.
var sink bus.Cost

func newRungs(wl workload, plans []*connPlan, o runOpts) (*rungs, error) {
	r := &rungs{wl: wl, reps: o.rungReps, out: map[string]float64{}}
	nsess := 0
	for _, p := range plans {
		nsess += len(p.sessions)
	}
	perSession := o.rungMaxBeats / (nsess * wl.lanes * wl.beats)
	per := wl.batchFrames
	if per == 0 {
		per = wl.rounds
	}
	for _, p := range plans {
		for _, s := range p.sessions {
			frames := s.frames[:max(1, min(len(s.frames), perSession))]
			rs := rungSession{cfg: s.cfg}
			if s.cfg.adapt == nil {
				k, err := dbi.LookupKernel(s.cfg.scheme, dbi.Weights{Alpha: s.cfg.alpha, Beta: s.cfg.beta},
					dbi.Geometry{Lanes: wl.lanes, Beats: wl.beats})
				if err != nil {
					return nil, err
				}
				rs.kern = k
			}
			for len(frames) > 0 {
				n := min(per, len(frames))
				rs.blobs = append(rs.blobs, dbitBlob(wl.beats, frames[:n]))
				batch := make([]bus.Frame, n)
				for i, f := range frames[:n] {
					batch[i] = make(bus.Frame, wl.lanes)
					for l := range batch[i] {
						batch[i][l] = f[l*wl.beats : (l+1)*wl.beats]
					}
				}
				rs.batches = append(rs.batches, batch)
				frames = frames[n:]
				r.bursts += n * wl.lanes
			}
			r.sessions = append(r.sessions, rs)
		}
	}
	beats := r.bursts * wl.beats
	r.passes = max(1, (o.rungMinBeats+beats-1)/beats)
	return r, nil
}

// each calls f on every frame of every session (or of the static ones).
func (r *rungs) each(static bool, f func(i int, fr bus.Frame)) {
	for i, s := range r.sessions {
		if static && s.kern == nil {
			continue
		}
		for _, b := range s.batches {
			for _, fr := range b {
				f(i, fr)
			}
		}
	}
}

// staticBursts is the per-pass burst count of the static sessions.
func (r *rungs) staticBursts() int {
	n := 0
	r.each(true, func(_ int, fr bus.Frame) { n += len(fr) })
	return n
}

// time records the median over reps of pass's ns per unit.
func (r *rungs) time(name string, units int, pass func()) {
	ds := make([]float64, r.reps)
	for i := range ds {
		t0 := time.Now()
		for p := 0; p < r.passes; p++ {
			pass()
		}
		ds[i] = float64(time.Since(t0).Nanoseconds()) / float64(r.passes*units)
	}
	r.out[name] = median(ds)
}

// laneStates returns fresh per-session, per-lane line states.
func (r *rungs) laneStates() [][]bus.LineState {
	st := make([][]bus.LineState, len(r.sessions))
	for i := range st {
		st[i] = make([]bus.LineState, r.wl.lanes)
		for l := range st[i] {
			st[i][l] = bus.InitialLineState
		}
	}
	return st
}

func (r *rungs) run() error {
	static := r.staticBursts()
	geom := dbi.Geometry{Lanes: r.wl.lanes, Beats: r.wl.beats}

	st := r.laneStates()
	r.time("dbi.kernel_advance_ns_per_burst", static, func() {
		r.each(true, func(i int, fr bus.Frame) {
			for l, b := range fr {
				var c bus.Cost
				c, st[i][l] = r.sessions[i].kern.Advance(st[i][l], b)
				sink = sink.Add(c)
			}
		})
	})

	for j, label := range staticLabels {
		cfg := rotation[j]
		k, err := dbi.LookupKernel(cfg.scheme, dbi.Weights{Alpha: cfg.alpha, Beta: cfg.beta}, geom)
		if err != nil {
			return err
		}
		lb := new(dbi.LaneBatch)
		st := r.laneStates()
		r.time("dbi.kernel_batch_ns_per_burst."+label, r.bursts, func() {
			r.each(false, func(i int, fr bus.Frame) {
				lb.Reset(len(fr), r.wl.beats)
				for l, b := range fr {
					lb.SetPrev(l, st[i][l])
					lb.SetLane(l, b)
				}
				k.EncodeBatch(lb)
				for l := range fr {
					st[i][l] = lb.Next(l)
				}
				sink = sink.Add(lb.TotalCost())
			})
		})
	}

	streams := make([][]*dbi.Stream, len(r.sessions))
	lanesets := make([]*dbi.LaneSet, len(r.sessions))
	adaptive := make([][]*dbi.Stream, len(r.sessions))
	ctrls := []*adapt.Controller{}
	for i, s := range r.sessions {
		adaptive[i] = make([]*dbi.Stream, r.wl.lanes)
		for l := range adaptive[i] {
			c, err := adapt.New(adapt.Config{Candidates: rotation[6].adapt, Weights: dbi.FixedWeights})
			if err != nil {
				return err
			}
			ctrls = append(ctrls, c)
			adaptive[i][l] = dbi.NewAdaptiveStream(c)
		}
		if s.kern == nil {
			mk, err := adapt.Factory(adapt.Config{Candidates: s.cfg.adapt, Weights: dbi.Weights{Alpha: s.cfg.alpha, Beta: s.cfg.beta}})
			if err != nil {
				return err
			}
			lanesets[i] = dbi.NewAdaptiveLaneSet(mk, r.wl.lanes)
			continue
		}
		lanesets[i] = s.kern.NewLaneSet(r.wl.lanes)
		streams[i] = make([]*dbi.Stream, r.wl.lanes)
		for l := range streams[i] {
			streams[i][l] = s.kern.NewStream()
		}
	}
	r.time("dbi.stream_ns_per_burst", static, func() {
		r.each(true, func(i int, fr bus.Frame) {
			for l, b := range fr {
				streams[i][l].Transmit(b)
			}
		})
	})
	r.time("dbi.laneset_batch_ns_per_burst", r.bursts, func() {
		r.each(false, func(i int, fr bus.Frame) { sink = sink.Add(lanesets[i].TransmitBatch(fr).TotalCost()) })
	})
	r.time("adapt.stream_ns_per_burst", r.bursts, func() {
		r.each(false, func(i int, fr bus.Frame) {
			for l, b := range fr {
				adaptive[i][l].Transmit(b)
			}
		})
	})
	switches := 0
	for _, c := range ctrls {
		switches += c.Switches()
	}
	r.out["adapt.switches_per_kburst"] = 1000 * float64(switches) / float64(r.reps*r.passes*r.bursts)

	if err := r.traceDecode(); err != nil {
		return err
	}

	for _, rung := range []struct {
		name string
		opts []dbi.PipelineOption
	}{{"dbi.pipeline_ns_per_burst", nil}, {"dbi.pipeline_w1_ns_per_burst", []dbi.PipelineOption{dbi.WithWorkers(1)}}} {
		pipes := make([]*dbi.Pipeline, len(r.sessions))
		sets := make([]*dbi.LaneSet, len(r.sessions))
		for i, s := range r.sessions {
			if s.kern != nil {
				pipes[i] = s.kern.NewPipeline(r.wl.lanes, rung.opts...)
				sets[i] = s.kern.NewLaneSet(r.wl.lanes)
			}
		}
		var err error
		r.time(rung.name, static, func() {
			for i, s := range r.sessions {
				if pipes[i] == nil {
					continue
				}
				for _, b := range s.batches {
					if _, e := pipes[i].RunLanes(dbi.FramesOf(b), sets[i]); e != nil {
						err = e
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}

	st = r.laneStates()
	r.time("bus.plain_cost_ns_per_burst", r.bursts, func() {
		r.each(false, func(i int, fr bus.Frame) {
			for l, b := range fr {
				sink = sink.Add(bus.PlainCost(st[i][l], b))
				st[i][l] = bus.Advance(st[i][l], b[len(b)-1], false)
			}
		})
	})

	return r.compile(geom)
}

// traceDecode times the batch parse the server runs per batch message:
// trace.NewReader, NewFrameReader and NextFrame to EOF over each batch
// serialised as a DBIT blob, and counts its heap allocations per blob.
func (r *rungs) traceDecode() error {
	var blobs [][]byte
	for _, s := range r.sessions {
		blobs = append(blobs, s.blobs...)
	}
	var err error
	decode := func() {
		for _, blob := range blobs {
			tr, e := trace.NewReader(bytes.NewReader(blob))
			if e != nil {
				err = e
				return
			}
			fr, e := trace.NewFrameReader(tr, r.wl.lanes)
			if e != nil {
				err = e
				return
			}
			for {
				if _, e := fr.NextFrame(); e != nil {
					if !errors.Is(e, io.EOF) {
						err = e
					}
					break
				}
			}
		}
	}
	r.time("trace.decode_ns_per_burst", r.bursts, decode)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decode()
	runtime.ReadMemStats(&m1)
	r.out["trace.decode_allocs_per_batch"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(blobs))
	return err
}

// compile times kernel lookup (cached) and compilation over the static
// schemes of the rotation at the workload's geometry.
func (r *rungs) compile(geom dbi.Geometry) error {
	const lookups, compiles = 2000, 200
	var err error
	for _, rung := range []struct {
		name string
		n    int
		f    func(string, dbi.Weights, dbi.Geometry) (*dbi.Kernel, error)
	}{{"dbi.lookup_kernel_ns", lookups, dbi.LookupKernel}, {"dbi.compile_ns", compiles, dbi.Compile}} {
		ds := make([]float64, r.reps)
		for i := range ds {
			t0 := time.Now()
			for n := 0; n < rung.n; n++ {
				cfg := rotation[n%len(staticLabels)]
				if _, e := rung.f(cfg.scheme, dbi.Weights{Alpha: cfg.alpha, Beta: cfg.beta}, geom); e != nil {
					err = e
				}
			}
			ds[i] = float64(time.Since(t0).Nanoseconds()) / float64(rung.n)
		}
		r.out[rung.name] = median(ds)
	}
	return err
}

// pipeListener is a net.Listener over in-memory net.Pipe connections: the
// server rung with no socket underneath.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(string) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// roundTrip returns the median µs of calls MuxSession.EncodeFrame ping-pongs
// of frame under cfg, over a net.Pipe listener (pipe) or loopback TCP.
func roundTrip(pipe bool, cfg sessCfg, frame bus.Frame, calls int) (float64, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return 0, err
	}
	def := server.SessionConfig{Lanes: cfg.lanes, Beats: cfg.beats}
	var opts server.MuxOptions
	addr := "pipe"
	served := make(chan error, 1)
	if pipe {
		lis := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
		opts.Dial = lis.dial
		go func() { served <- srv.Serve(lis) }()
	} else {
		if err := srv.Start(); err != nil {
			return 0, err
		}
		addr = srv.Addr().String()
		served <- nil
	}
	defer func() {
		srv.Close() //nolint:errcheck // always nil
		<-served
	}()
	c, err := server.DialMuxOpts(addr, def, opts)
	if err != nil {
		return 0, err
	}
	defer c.Close() //nolint:errcheck // the measurement is already taken
	s, err := c.Open(server.SessionConfig{Scheme: cfg.scheme, Alpha: cfg.alpha, Beta: cfg.beta,
		Lanes: cfg.lanes, Beats: cfg.beats, Adapt: cfg.adapt != nil, AdaptCandidates: cfg.adapt})
	if err != nil {
		return 0, err
	}
	lat := make([]float64, calls)
	for i := -calls / 10; i < calls; i++ {
		t0 := time.Now()
		if _, err := s.EncodeFrame(frame); err != nil {
			return 0, fmt.Errorf("round trip %d: %w", i, err)
		}
		if i >= 0 {
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
	}
	return median(lat), nil
}
