package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/racetag"
)

// newLoopConn builds a connection with one open session the way newConn
// does, but wired to an in-memory reader/writer so the encode path can be
// exercised without a network (and therefore measured by AllocsPerRun
// deterministically). mux selects the multiplexed framing.
func newLoopConn(t testing.TB, srv *Server, cfg SessionConfig, mux bool, w io.Writer) (*conn, *sessState) {
	t.Helper()
	c := &conn{
		srv:     srv,
		m:       srv.metrics.shard(),
		w:       bufio.NewWriter(w),
		version: protocolVersion,
		mux:     mux,
		def:     SessionConfig{Alpha: srv.cfg.Alpha, Beta: srv.cfg.Beta},
	}
	enc, err := dbi.Lookup(cfg.Scheme, dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta})
	if err != nil {
		t.Fatal(err)
	}
	var sid uint64
	if mux {
		sid = 7
	}
	st := &sessState{
		id:        sid,
		m:         c.m,
		cfg:       cfg,
		scheme:    cfg.Scheme,
		ls:        dbi.NewLaneSet(enc, cfg.Lanes),
		frameBuf:  make([]byte, cfg.Lanes*cfg.Beats),
		frame:     make(bus.Frame, cfg.Lanes),
		maskBuf:   make([]byte, cfg.Lanes*maskBytes(cfg.Beats)),
		rawStates: make([]bus.LineState, cfg.Lanes),
	}
	for l := range st.frame {
		st.frame[l] = bus.Burst(st.frameBuf[l*cfg.Beats : (l+1)*cfg.Beats])
	}
	for l := range st.rawStates {
		st.rawStates[l] = bus.InitialLineState
	}
	if mux {
		c.sessions = map[uint64]*sessState{sid: st}
	} else {
		c.single = st
	}
	return c, st
}

// frameMessage serialises one msgFrame for the given workload frame; sid
// adds the mux session-id prefix when nonzero.
func frameMessage(t testing.TB, f bus.Frame, lanes, beats int, sid uint64) []byte {
	t.Helper()
	var prefix []byte
	if sid != 0 {
		var sb [binary.MaxVarintLen64]byte
		prefix = sb[:binary.PutUvarint(sb[:], sid)]
	}
	var hdr [5]byte
	putHeader(&hdr, msgFrame, len(prefix)+lanes*beats)
	msg := append([]byte(nil), hdr[:]...)
	msg = append(msg, prefix...)
	for _, b := range f {
		msg = append(msg, b...)
	}
	return msg
}

// runFrameAllocs replays pre-serialised frame or batch messages through
// the connection's dispatch path, exactly as the message loops route them,
// and returns AllocsPerRun over it.
func runFrameAllocs(t *testing.T, c *conn, msgs [][]byte) float64 {
	t.Helper()
	br := bytes.NewReader(nil)
	c.r = bufio.NewReader(br)
	i := 0
	return testing.AllocsPerRun(400, func() {
		br.Reset(msgs[i%len(msgs)])
		c.r.Reset(br)
		typ, n, err := readHeader(c.r, &c.hdr)
		if err != nil {
			t.Fatalf("header: %v", err)
		}
		switch {
		case typ == msgFrame && c.mux:
			err = c.muxFrame(n)
		case typ == msgFrame:
			err = c.handleFrame(c.single, n)
		case typ == msgBatch && c.mux:
			err = c.muxTarget(n, func(st *sessState, rem int) error { return c.handleBatch(st, rem) })
		case typ == msgBatch:
			err = c.handleBatch(c.single, n)
		default:
			t.Fatalf("unexpected message type %q", typ)
		}
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// batchMessage serialises one msgBatch carrying frames as a DBIT blob; sid
// adds the mux session-id prefix when nonzero.
func batchMessage(t testing.TB, frames []bus.Frame, beats int, sid uint64) []byte {
	t.Helper()
	blob, err := encodeTraceBlob(frames, beats)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []byte
	if sid != 0 {
		var sb [binary.MaxVarintLen64]byte
		prefix = sb[:binary.PutUvarint(sb[:], sid)]
	}
	var hdr [5]byte
	putHeader(&hdr, msgBatch, len(prefix)+len(blob))
	msg := append([]byte(nil), hdr[:]...)
	msg = append(msg, prefix...)
	return append(msg, blob...)
}

// TestServeBatchZeroAlloc pins the in-place batch path: once warmed, a
// session answering a 256-frame OPT-FIXED 8x8 batch — blob validation,
// frame views, raw baseline, the fused BL8 batch kernel, metrics and the
// totals reply — performs zero heap allocations per batch, on the
// single-session and the mux path alike.
func TestServeBatchZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats, frames = 8, bus.BurstLength, 256
	for _, mux := range []bool{false, true} {
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, mux, io.Discard)
		msgs := [][]byte{
			batchMessage(t, randomFrames(61, frames, lanes, beats), beats, st.id),
			batchMessage(t, randomFrames(62, frames, lanes, beats), beats, st.id),
		}
		if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
			t.Errorf("mux=%v: steady-state batch path allocates %.1f times per batch, want 0", mux, allocs)
		}
		if st.totals.Frames%frames != 0 || st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
			t.Fatalf("mux=%v: batch work not done: %+v", mux, st.totals)
		}
	}
}

// TestServeFrameZeroAlloc pins the serving property the acceptance criteria
// ask for: the steady-state single-frame path — payload read, raw baseline,
// LaneSet encode, mask packing, reply write, metrics — performs zero heap
// allocations per frame.
func TestServeFrameZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats = 8, bus.BurstLength
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, false, io.Discard)

	fs := randomFrames(21, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		msgs[i] = frameMessage(t, f, lanes, beats, 0)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("steady-state frame path allocates %.1f times per frame, want 0", allocs)
	}
	if st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
		t.Fatal("no work was actually done")
	}
}

// TestServeMuxFrameZeroAlloc pins the same property on the multiplexed
// path: session-id varint read, shard-map lookup, sid-prefixed reply — all
// on top of the encode — still zero heap allocations per frame.
func TestServeMuxFrameZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats = 8, bus.BurstLength
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, true, io.Discard)

	fs := randomFrames(33, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		msgs[i] = frameMessage(t, f, lanes, beats, st.id)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("steady-state mux frame path allocates %.1f times per frame, want 0", allocs)
	}
	if st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
		t.Fatal("no work was actually done")
	}
}

// deadlineConn counts SetRead/WriteDeadline calls; everything else is the
// embedded (nil, never touched) net.Conn.
type deadlineConn struct {
	net.Conn
	sets int
}

func (c *deadlineConn) SetReadDeadline(time.Time) error  { c.sets++; return nil }
func (c *deadlineConn) SetWriteDeadline(time.Time) error { c.sets++; return nil }

// TestServeFrameDeadlinesZeroAlloc pins that arming the idle/write
// deadlines adds no allocations to the steady-state frame path — with
// armEvery forced to zero, so every single reply re-arms both deadlines
// (the worst case; the amortised production path arms far less often).
func TestServeFrameDeadlinesZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats = 8, bus.BurstLength
	srv, err := New(Config{IdleTimeout: time.Minute, WriteTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, true, io.Discard)
	nc := &deadlineConn{}
	c.nc = nc
	c.idle, c.writeTO = srv.cfg.IdleTimeout, srv.cfg.WriteTimeout

	fs := randomFrames(47, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		msgs[i] = frameMessage(t, f, lanes, beats, st.id)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("deadline-armed frame path allocates %.1f times per frame, want 0", allocs)
	}
	if nc.sets == 0 {
		t.Fatal("deadlines were never armed")
	}
	if st.totals.Frames == 0 {
		t.Fatal("no work was actually done")
	}
}
