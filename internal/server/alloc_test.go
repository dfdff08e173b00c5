package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/racetag"
)

// newLoopConn builds a connection with one open session (id 7) the way
// newConn and msgOpen do, but wired to an in-memory reader/writer so the
// encode path can be exercised without a network (and therefore measured
// by AllocsPerRun deterministically). The caller installs c.r.
func newLoopConn(t testing.TB, srv *Server, cfg SessionConfig, w io.Writer) (*conn, *sessState) {
	t.Helper()
	c := &conn{
		srv:      srv,
		m:        srv.metrics.shard(),
		w:        bufio.NewWriter(w),
		def:      SessionConfig{Alpha: srv.cfg.Alpha, Beta: srv.cfg.Beta},
		sessions: map[uint64]*sessState{},
		mark:     time.Now(),
	}
	return c, addLoopSession(t, c, 7, cfg)
}

// addLoopSession opens one more session, id sid, on a newLoopConn
// connection, with the state msgOpen would give it.
func addLoopSession(t testing.TB, c *conn, sid uint64, cfg SessionConfig) *sessState {
	t.Helper()
	enc, err := dbi.Lookup(cfg.Scheme, dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta})
	if err != nil {
		t.Fatal(err)
	}
	st := &sessState{
		id:        sid,
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
	c.sessions[sid] = st
	return st
}

// frameMessage serialises one msgFrame for the given workload frame,
// addressed to session sid.
func frameMessage(t testing.TB, f bus.Frame, lanes, beats int, sid uint64) []byte {
	t.Helper()
	var sb [binary.MaxVarintLen64]byte
	prefix := sb[:binary.PutUvarint(sb[:], sid)]
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
// the message loop's step and returns AllocsPerRun over it. Each message
// starts on an empty read buffer, so every run passes a drain point: the
// counters settle, the deadlines arm and the replies flush.
func runFrameAllocs(t *testing.T, c *conn, msgs [][]byte) float64 {
	t.Helper()
	br := bytes.NewReader(nil)
	c.r = bufio.NewReader(br)
	i := 0
	return testing.AllocsPerRun(400, func() {
		br.Reset(msgs[i%len(msgs)])
		if !c.step() {
			t.Fatalf("message %d ended the connection", i)
		}
		i++
	})
}

// batchMessage serialises one msgBatch carrying frames as a DBIT blob,
// addressed to session sid.
func batchMessage(t testing.TB, frames []bus.Frame, beats int, sid uint64) []byte {
	t.Helper()
	blob, err := encodeTraceBlob(frames, beats)
	if err != nil {
		t.Fatal(err)
	}
	var sb [binary.MaxVarintLen64]byte
	prefix := sb[:binary.PutUvarint(sb[:], sid)]
	var hdr [5]byte
	putHeader(&hdr, msgBatch, len(prefix)+len(blob))
	msg := append([]byte(nil), hdr[:]...)
	msg = append(msg, prefix...)
	return append(msg, blob...)
}

// TestServeBatchZeroAlloc pins the in-place batch path: once warmed, a
// session answering a 256-frame OPT-FIXED 8x8 batch — session routing,
// blob validation, frame views, raw baseline, the fused BL8 batch kernel,
// metrics and the totals reply — performs zero heap allocations per batch.
func TestServeBatchZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats, frames = 8, bus.BurstLength, 256
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, io.Discard)
	msgs := [][]byte{
		batchMessage(t, randomFrames(61, frames, lanes, beats), beats, st.id),
		batchMessage(t, randomFrames(62, frames, lanes, beats), beats, st.id),
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("steady-state batch path allocates %.1f times per batch, want 0", allocs)
	}
	if st.totals.Frames%frames != 0 || st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
		t.Fatalf("batch work not done: %+v", st.totals)
	}
}

// TestServeFrameZeroAlloc pins the serving property the acceptance
// criteria ask for: the steady-state single-frame path — session-id varint
// read, session-map lookup, payload read, raw baseline, LaneSet encode,
// mask packing, sid-prefixed reply write, metrics — performs zero heap
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
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, io.Discard)

	fs := randomFrames(21, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		msgs[i] = frameMessage(t, f, lanes, beats, st.id)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("steady-state frame path allocates %.1f times per frame, want 0", allocs)
	}
	if st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
		t.Fatal("no work was actually done")
	}
}

// TestServeMuxFrameZeroAlloc pins the same property with several sessions
// multiplexed on one connection: frames interleaved between two sessions
// of different schemes, one with a multi-byte session-id varint, still
// cost zero heap allocations per frame, and each session does its own work.
func TestServeMuxFrameZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats = 8, bus.BurstLength
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, a := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, io.Discard)
	b := addLoopSession(t, c, 300, SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats})

	fs := randomFrames(33, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		sid := a.id
		if i%2 == 1 {
			sid = b.id
		}
		msgs[i] = frameMessage(t, f, lanes, beats, sid)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("steady-state mux frame path allocates %.1f times per frame, want 0", allocs)
	}
	for _, st := range []*sessState{a, b} {
		if st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
			t.Fatalf("session %d: no work was actually done", st.id)
		}
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
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, io.Discard)
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

// BenchmarkRouteFrame is the in-process handler rung: OPT-FIXED frames
// served through the message loop's step — header, session routing,
// payload read, raw baseline, LaneSet.TransmitBatch, mask packing, reply
// write — from a long in-memory stream, with no socket. The drain-point
// bookkeeping runs once per replay of the 256-frame stream.
func BenchmarkRouteFrame(b *testing.B) {
	for _, g := range []struct{ lanes, beats int }{{1, 8}, {8, 128}} {
		b.Run(fmt.Sprintf("%dx%d", g.lanes, g.beats), func(b *testing.B) {
			srv, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			c, st := newLoopConn(b, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: g.lanes, Beats: g.beats}, io.Discard)
			var stream []byte
			for _, f := range randomFrames(5, 256, g.lanes, g.beats) {
				stream = append(stream, frameMessage(b, f, g.lanes, g.beats, st.id)...)
			}
			src := bytes.NewReader(nil)
			c.r = bufio.NewReader(src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if src.Len() == 0 && c.r.Buffered() == 0 {
					src.Reset(stream) // a message boundary: replay the stream
				}
				if !c.step() {
					b.Fatalf("frame %d ended the connection", i)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
		})
	}
}
