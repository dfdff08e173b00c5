package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dbiopt/internal/adapt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/trace"
)

// startServer boots a server on an ephemeral loopback port and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// randomFrames builds a deterministic multi-lane workload.
func randomFrames(seed int64, frames, lanes, beats int) []bus.Frame {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bus.Frame, frames)
	for i := range out {
		f := make(bus.Frame, lanes)
		for l := range f {
			b := make(bus.Burst, beats)
			rng.Read(b)
			f[l] = b
		}
		out[i] = f
	}
	return out
}

// waitMetric polls a metrics predicate until it holds or a deadline
// expires. Session-teardown counters (active, rejected) update after the
// reply the client read, so assertions on them must be
// eventually-consistent rather than immediate.
func waitMetric(t *testing.T, m *Metrics, what string, pred func(MetricsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred(m.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s not observed within deadline: %+v", what, m.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replayOffline is the reference the served path must match bit for bit:
// the same frames through a local LaneSet with the same scheme.
func replayOffline(t *testing.T, scheme string, w dbi.Weights, frames []bus.Frame, lanes int) *dbi.LaneSet {
	t.Helper()
	enc, err := dbi.Lookup(scheme, w)
	if err != nil {
		t.Fatal(err)
	}
	ls := dbi.NewLaneSet(enc, lanes)
	for _, f := range frames {
		ls.Transmit(f)
	}
	return ls
}

// TestServeEquivalence pins the acceptance criterion: a session that
// interleaves single frames and pipelined batches produces wire images and
// totals bit-identical to the offline LaneSet path, and its raw baseline
// equals an offline RAW replay.
func TestServeEquivalence(t *testing.T) {
	const lanes, beats, frames = 4, 8, 36
	s := startServer(t, Config{})
	fs := randomFrames(1, frames, lanes, beats)

	c, err := Dial(s.Addr().String(), SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	offline := replayOffline(t, "OPT-FIXED", dbi.FixedWeights, nil, lanes)

	// Singles (checking each wire image), then a batch, then more singles.
	checkFrame := func(f bus.Frame) {
		t.Helper()
		got, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want := offline.Transmit(f)
		for l := range want {
			if got[l].String() != want[l].String() {
				t.Fatalf("lane %d: served wire %s != offline %s", l, got[l], want[l])
			}
		}
	}
	for _, f := range fs[:8] {
		checkFrame(f)
	}
	if _, err := c.EncodeBatch(fs[8:28]); err != nil {
		t.Fatal(err)
	}
	for _, f := range fs[8:28] {
		offline.Transmit(f)
	}
	for _, f := range fs[28:] {
		checkFrame(f)
	}

	totals, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if totals.Coded != offline.TotalCost() {
		t.Fatalf("served totals %+v != offline %+v", totals.Coded, offline.TotalCost())
	}
	if totals.Frames != frames || totals.Beats != frames*lanes*beats {
		t.Fatalf("volume accounting: %d frames, %d beats; want %d, %d",
			totals.Frames, totals.Beats, frames, frames*lanes*beats)
	}
	raw := replayOffline(t, "RAW", dbi.Weights{}, fs, lanes)
	if totals.Raw != raw.TotalCost() {
		t.Fatalf("raw baseline %+v != offline RAW replay %+v", totals.Raw, raw.TotalCost())
	}
	if totals.TogglesSaved() != raw.TotalCost().Transitions-totals.Coded.Transitions {
		t.Fatalf("TogglesSaved inconsistent: %d", totals.TogglesSaved())
	}
}

// TestServeConcurrentSessionsMixedSchemes drives one session per scheme in
// parallel; every session's totals must match its own offline replay, which
// also proves sessions do not share encode state.
func TestServeConcurrentSessionsMixedSchemes(t *testing.T) {
	s := startServer(t, Config{})
	type job struct {
		scheme      string
		alpha, beta float64
	}
	jobs := []job{
		{"RAW", 0, 0}, {"DC", 0, 0}, {"AC", 0, 0}, {"ACDC", 0, 0},
		{"OPT-FIXED", 0, 0}, {"GREEDY", 2, 3}, {"OPT", 2, 3}, {"QUANTISED", 3, 5},
	}
	const lanes, beats, frames = 3, 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			fail := func(err error) { errs <- fmt.Errorf("%s: %w", j.scheme, err) }
			fs := randomFrames(int64(100+i), frames, lanes, beats)
			c, err := Dial(s.Addr().String(), SessionConfig{
				Scheme: j.scheme, Alpha: j.alpha, Beta: j.beta, Lanes: lanes, Beats: beats,
			})
			if err != nil {
				fail(err)
				return
			}
			if got := c.Scheme(); got != j.scheme {
				fail(fmt.Errorf("resolved scheme %q", got))
				return
			}
			// Half singles, half batch.
			for _, f := range fs[:frames/2] {
				if _, err := c.EncodeFrame(f); err != nil {
					fail(err)
					return
				}
			}
			if _, err := c.EncodeBatch(fs[frames/2:]); err != nil {
				fail(err)
				return
			}
			totals, err := c.Close()
			if err != nil {
				fail(err)
				return
			}
			w := dbi.FixedWeights
			if j.alpha != 0 || j.beta != 0 {
				w = dbi.Weights{Alpha: j.alpha, Beta: j.beta}
			}
			enc, err := dbi.Lookup(j.scheme, w)
			if err != nil {
				fail(err)
				return
			}
			ls := dbi.NewLaneSet(enc, lanes)
			for _, f := range fs {
				ls.Transmit(f)
			}
			if totals.Coded != ls.TotalCost() {
				fail(fmt.Errorf("served %+v != offline %+v", totals.Coded, ls.TotalCost()))
			}
		}(i, j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeDefaultScheme: a handshake naming no scheme resolves to the
// server's configured default.
func TestServeDefaultScheme(t *testing.T) {
	s := startServer(t, Config{Scheme: "DC"})
	c, err := Dial(s.Addr().String(), SessionConfig{Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Scheme() != "DC" {
		t.Fatalf("resolved scheme %q, want server default DC", c.Scheme())
	}
}

// TestServeHandshakeRejects covers the session-refusal surface: unknown
// schemes, invalid weights for weighted schemes, and non-protocol bytes.
func TestServeHandshakeRejects(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()

	if _, err := Dial(addr, SessionConfig{Scheme: "BOGUS", Lanes: 1, Beats: 8}); err == nil {
		t.Error("unknown scheme accepted")
	} else if !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown-scheme error does not say so: %v", err)
	}
	if _, err := Dial(addr, SessionConfig{Scheme: "OPT", Alpha: -1, Beta: 0, Lanes: 1, Beats: 8}); err == nil {
		t.Error("invalid weights accepted")
	}
	if _, err := Dial(addr, SessionConfig{Lanes: MaxLanes + 1, Beats: 8}); err == nil {
		t.Error("oversized lane count accepted client-side")
	}

	// Garbage instead of a handshake: the server must answer with a
	// rejection reply, not hang or crash.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n padding to cover the fixed handshake length")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := readReply(conn); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("garbage handshake: err = %v, want rejection", err)
	}
	waitMetric(t, s.Metrics(), "rejected session count", func(m MetricsSnapshot) bool {
		return m.Rejected > 0
	})
}

// TestServeFrameGeometryError: a frame payload of the wrong size is a
// protocol error the client sees verbatim, addressed to the session it
// concerns; the session and its connection keep serving.
func TestServeFrameGeometryError(t *testing.T) {
	const lanes, beats = 2, 8
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHandshake(conn, SessionConfig{Lanes: lanes, Beats: beats}); err != nil {
		t.Fatal(err)
	}
	if err := readReply(conn); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [5]byte
	send := func(typ byte, payload []byte) {
		t.Helper()
		putHeader(&hdr, typ, len(payload))
		if _, err := conn.Write(append(hdr[:], payload...)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() (byte, []byte) {
		t.Helper()
		typ, n, err := readHeader(conn, &hdr)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		return typ, buf
	}
	send(msgOpen, append([]byte{1}, appendConfigBody(nil, SessionConfig{Lanes: lanes, Beats: beats})...))
	if typ, body := recv(); typ != msgOpenReply || body[1] != statusOK {
		t.Fatalf("open reply %q %x, want an accepted %q", typ, body, msgOpenReply)
	}

	send(msgFrame, []byte{1, 1, 2, 3}) // session 1 needs 16 payload bytes
	typ, buf := recv()
	if typ != msgError {
		t.Fatalf("reply type %q, want error", typ)
	}
	if buf[0] != 1 {
		t.Errorf("error addressed to session %d, want 1", buf[0])
	}
	if !strings.Contains(string(buf[1:]), "frame payload") {
		t.Errorf("error text %q does not name the problem", buf[1:])
	}

	send(msgFrame, append([]byte{1}, make([]byte, lanes*beats)...))
	if typ, body := recv(); typ != msgMasks || len(body) != 1+lanes*maskBytes(beats) {
		t.Fatalf("frame after the geometry error: reply %q of %d bytes, want masks", typ, len(body))
	}
}

// TestServeBatchBeatsMismatch: a batch trace whose beat count disagrees
// with the session geometry is refused.
func TestServeBatchBeatsMismatch(t *testing.T) {
	s := startServer(t, Config{})
	c, err := Dial(s.Addr().String(), SessionConfig{Lanes: 2, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A 4-beat blob on an 8-beat session must be refused.
	blob, err := encodeTraceBlob(randomFrames(9, 2, 2, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EncodeTrace(blob); err == nil || !strings.Contains(err.Error(), "beats per burst") {
		t.Fatalf("beat mismatch not refused: %v", err)
	}
}

// TestServeMalformedBatchIsSessionScoped: a truncated batch blob on one mux
// session is refused before any lane state moves. The error reaches that
// session alone, every other session on the connection keeps serving, and
// the failed session's totals and wire state are exactly as before — its
// next frame encodes as if the batch had never been sent.
func TestServeMalformedBatchIsSessionScoped(t *testing.T) {
	const lanes, beats = 2, 8
	s := startServer(t, Config{})
	mc, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	cfg := SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}
	a, err := mc.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := randomFrames(77, 6, lanes, beats)
	for _, f := range fs[:3] {
		if _, err := a.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	before, err := a.Totals()
	if err != nil {
		t.Fatal(err)
	}

	// Five whole frames and then half a burst: the reader would have
	// encoded the whole frames before meeting the truncation.
	blob, err := encodeTraceBlob(randomFrames(78, 5, lanes, beats), beats)
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, 1, 2, 3, 4)
	if _, err := a.EncodeTrace(blob); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated batch: err = %v, want a truncation error", err)
	}

	if _, err := b.EncodeFrame(fs[0]); err != nil {
		t.Fatalf("other session broken by a malformed batch: %v", err)
	}
	after, err := a.Totals()
	if err != nil {
		t.Fatalf("failed session no longer serves: %v", err)
	}
	if after != before {
		t.Fatalf("malformed batch moved the session totals: %+v -> %+v", before, after)
	}
	ref := replayOffline(t, "OPT-FIXED", dbi.FixedWeights, fs[:3], lanes)
	for _, f := range fs[3:] {
		got, err := a.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Transmit(f)
		for l := range want {
			if !reflect.DeepEqual(got[l], want[l]) {
				t.Fatalf("lane %d after the refused batch: served %+v, offline %+v", l, got[l], want[l])
			}
		}
	}
}

// TestServeGracefulDrain: Shutdown stops accepting but lets the in-flight
// session finish its work and close on its own terms.
func TestServeGracefulDrain(t *testing.T) {
	const lanes, beats = 2, 8
	s := startServer(t, Config{})
	c, err := Dial(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	fs := randomFrames(2, 4, lanes, beats)
	if _, err := c.EncodeFrame(fs[0]); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// The listener closes promptly; give it a moment, then prove the live
	// session still serves while new connections are refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := net.DialTimeout("tcp", s.Addr().String(), 100*time.Millisecond); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, f := range fs[1:] {
		if _, err := c.EncodeFrame(f); err != nil {
			t.Fatalf("in-flight session broken during drain: %v", err)
		}
	}
	totals, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if totals.Frames != len(fs) {
		t.Fatalf("drained session encoded %d frames, want %d", totals.Frames, len(fs))
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServeMaxConnsBackpressure: with MaxConns=1 a second connection is not
// admitted (its handshake gets no reply) until the first one ends.
func TestServeMaxConnsBackpressure(t *testing.T) {
	s := startServer(t, Config{MaxConns: 1})
	c1, err := Dial(s.Addr().String(), SessionConfig{Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHandshake(conn, SessionConfig{Lanes: 1, Beats: 8}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	var nerr net.Error
	if err := readReply(conn); err == nil {
		t.Fatal("second session admitted past MaxConns=1")
	} else if !errors.As(err, &nerr) || !nerr.Timeout() {
		// The failure must be the deadline expiring while queued behind
		// the cap, not a refusal.
		t.Fatalf("expected timeout waiting behind MaxConns, got %v", err)
	}

	if _, err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := readReply(conn); err != nil {
		t.Fatalf("second session not admitted after the first closed: %v", err)
	}
}

// TestServeMetrics: the counters add up after known traffic and the
// Prometheus exposition names them.
func TestServeMetrics(t *testing.T) {
	const lanes, beats = 2, 8
	s := startServer(t, Config{})
	fs := randomFrames(4, 6, lanes, beats)
	c, err := Dial(s.Addr().String(), SessionConfig{Scheme: "DC", Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EncodeFrame(fs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EncodeBatch(fs[1:]); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := s.Metrics().Snapshot().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{
		"dbiserve_bursts_encoded_total", "dbiserve_coded_transitions_total", "dbiserve_raw_transitions_total",
		"dbiserve_encode_ns_total", "dbiserve_sessions_active",
	} {
		if !strings.Contains(text.String(), counter) {
			t.Errorf("exposition missing %q:\n%s", counter, text.String())
		}
	}
	totals, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics().Snapshot()
	if m.Frames != int64(len(fs)) || m.Batches != 1 || m.Bursts != int64(len(fs)*lanes) {
		t.Errorf("volume counters frames=%d batches=%d bursts=%d, want %d, 1, %d",
			m.Frames, m.Batches, m.Bursts, len(fs), len(fs)*lanes)
	}
	if m.Coded != totals.Coded || m.Raw != totals.Raw {
		t.Errorf("metrics activity %+v/%+v != session totals %+v/%+v", m.Coded, m.Raw, totals.Coded, totals.Raw)
	}
	if m.TogglesSaved != int64(totals.TogglesSaved()) {
		t.Errorf("TogglesSaved = %d, want %d", m.TogglesSaved, totals.TogglesSaved())
	}
	waitMetric(t, s.Metrics(), "active count returning to zero", func(m MetricsSnapshot) bool {
		return m.Active == 0
	})
}

// slowWriteListener hands the server connections whose Write returns only
// a pause after the bytes are on the wire: the connection goroutine
// descheduled between a reply reaching the client and whatever it runs
// next. Counters published after a write would be caught lagging.
type slowWriteListener struct{ net.Listener }

func (l slowWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowWriteConn{c}, nil
}

type slowWriteConn struct{ net.Conn }

func (c slowWriteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	time.Sleep(2 * time.Millisecond)
	return n, err
}

// TestMetricsMatchReplies pins the publication contract: a Snapshot taken
// the moment a reply arrives already counts everything that reply reports.
// One client drives a frame session and a batch session over one socket
// and, after every reply, compares the server's volume and activity
// counters with the running sums of the totals it has received. A rebuild
// leg then kills the socket, lets the parked frame session expire and
// resumes it: the rebuilt session must add only its new frames, so the
// server-wide Coded/Raw still equal the two sessions' final totals.
func TestMetricsMatchReplies(t *testing.T) {
	const lanes, beats = 2, 8
	s, err := New(Config{ParkTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(slowWriteListener{lis}) //nolint:errcheck
	t.Cleanup(func() { s.Close() })

	mc, err := DialMuxOpts(lis.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats},
		MuxOptions{Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	fsess, err := mc.Open(SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats, ResumeToken: 0xfeed})
	if err != nil {
		t.Fatal(err)
	}
	bsess, err := mc.Open(SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}

	var batches int64
	var bt Totals // the batch session's totals, as last received
	check := func(what string) {
		t.Helper()
		ft := fsess.MirroredTotals() // the frame session's, as of its last reply
		frames := int64(ft.Frames + bt.Frames)
		coded, raw := ft.Coded.Add(bt.Coded), ft.Raw.Add(bt.Raw)
		m := s.Metrics().Snapshot()
		if m.Frames != frames || m.Batches != batches || m.Bursts != frames*lanes ||
			m.Beats != int64(ft.Beats+bt.Beats) || m.Coded != coded || m.Raw != raw {
			t.Fatalf("after %s: snapshot frames=%d batches=%d bursts=%d beats=%d coded=%+v raw=%+v; "+
				"replies say frames=%d batches=%d bursts=%d beats=%d coded=%+v raw=%+v",
				what, m.Frames, m.Batches, m.Bursts, m.Beats, m.Coded, m.Raw,
				frames, batches, frames*lanes, ft.Beats+bt.Beats, coded, raw)
		}
	}
	fs := randomFrames(8080, 40, lanes, beats)
	bf := randomFrames(8081, 64, lanes, beats)
	encodeFrames := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := fsess.EncodeFrame(fs[i]); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			check(fmt.Sprintf("frame %d", i))
		}
	}
	next := 0
	for n := 1; n <= 6; n++ {
		encodeFrames(3*(n-1), 3*n)
		if bt, err = bsess.EncodeBatch(bf[next : next+n]); err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		next += n
		batches++
		check(fmt.Sprintf("batch %d", n))
	}

	// Rebuild leg: drop the socket and wait until the parked frame session
	// has expired (its MaxSessions slot is the last one held), so the next
	// frame resumes it by rebuilding from the client's claim.
	mc.mu.Lock()
	mc.conn.Close()
	mc.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for s.sessions.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions still held after the connection died: %d", s.sessions.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	encodeFrames(18, len(fs))
	if m := s.Metrics().Snapshot(); m.Resumes != 1 {
		t.Fatalf("server resumed %d sessions, want 1 (the rebuild)", m.Resumes)
	}
	final, err := fsess.Totals()
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics().Snapshot()
	if m.Coded != final.Coded.Add(bt.Coded) || m.Raw != final.Raw.Add(bt.Raw) {
		t.Fatalf("after the rebuild: server coded %+v raw %+v, sessions' final totals sum to coded %+v raw %+v",
			m.Coded, m.Raw, final.Coded.Add(bt.Coded), final.Raw.Add(bt.Raw))
	}
}

// phaseFrames materialises a deterministic phase-shifting multi-lane
// workload (sparse then correlated phases, per lane), the traffic class
// adaptive sessions exist for.
func phaseFrames(seed int64, frames, lanes, beats, period int) []bus.Frame {
	srcs := make([]trace.Source, lanes)
	for l := range srcs {
		s := seed + int64(100*l)
		srcs[l] = trace.NewPhaseShift(period, trace.NewSparse(s, 0.10), trace.NewMarkov(s+1, 0.05))
	}
	out := make([]bus.Frame, frames)
	for i := range out {
		f := make(bus.Frame, lanes)
		for l := range f {
			f[l] = srcs[l].Next(beats)
		}
		out[i] = f
	}
	return out
}

// adaptSession is the adaptive handshake the renegotiation tests run:
// small window so switches happen within a short test workload.
func adaptSession(lanes, beats int) SessionConfig {
	return SessionConfig{
		Adapt: true, AdaptWindow: 32, AdaptMargin: 0.05,
		AdaptCandidates: []string{"DC", "AC", "RAW"},
		Alpha:           4, Beta: 1,
		Lanes: lanes, Beats: beats,
	}
}

// offlineAdaptive replays frames through a local adaptive LaneSet built
// from the same configuration an adaptive session resolves to.
func offlineAdaptive(t *testing.T, cfg SessionConfig, lanes int) *dbi.LaneSet {
	t.Helper()
	mk, err := adapt.Factory(adapt.Config{
		Candidates: cfg.AdaptCandidates,
		Weights:    dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta},
		Window:     cfg.AdaptWindow,
		Margin:     cfg.AdaptMargin,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dbi.NewAdaptiveLaneSet(mk, lanes)
}

// TestServeAdaptiveEquivalence pins mid-stream scheme renegotiation
// against the offline re-encode: an adaptive session interleaving single
// frames and a pipelined batch produces wire images, totals and switch
// counts bit-identical to a local adaptive LaneSet with the same
// configuration, and the SWITCH notices the client received describe
// exactly the switches the offline controllers performed.
func TestServeAdaptiveEquivalence(t *testing.T) {
	const lanes, beats, frames, period = 2, 8, 1536, 256
	s := startServer(t, Config{})
	cfg := adaptSession(lanes, beats)
	fs := phaseFrames(31, frames, lanes, beats, period)

	c, err := Dial(s.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Scheme(); got != "ADAPTIVE(DC,AC,RAW)" {
		t.Fatalf("resolved scheme %q", got)
	}
	offline := offlineAdaptive(t, cfg, lanes)

	// Singles across the first phase boundary (checking every wire image),
	// then a batch across two more, then singles again.
	checkFrame := func(f bus.Frame) {
		t.Helper()
		got, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want := offline.Transmit(f)
		for l := range want {
			if got[l].String() != want[l].String() {
				t.Fatalf("lane %d: served wire %s != offline %s", l, got[l], want[l])
			}
		}
	}
	for _, f := range fs[:400] {
		checkFrame(f)
	}
	if _, err := c.EncodeBatch(fs[400:1200]); err != nil {
		t.Fatal(err)
	}
	for _, f := range fs[400:1200] {
		offline.Transmit(f)
	}
	for _, f := range fs[1200:] {
		checkFrame(f)
	}

	totals, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if totals.Coded != offline.TotalCost() {
		t.Fatalf("served totals %+v != offline adaptive re-encode %+v", totals.Coded, offline.TotalCost())
	}

	// The offline controllers must agree with the served switch log.
	wantSwitches := 0
	for l := 0; l < lanes; l++ {
		ctl := offline.Lane(l).Adapter().(*adapt.Controller)
		wantSwitches += ctl.Switches()
	}
	if wantSwitches == 0 {
		t.Fatal("offline controllers never switched; renegotiation not exercised")
	}
	if totals.Switches != wantSwitches {
		t.Errorf("session totals report %d switches, offline controllers %d", totals.Switches, wantSwitches)
	}
	notes := c.Switches()
	if len(notes) != wantSwitches {
		t.Fatalf("client received %d SWITCH notices, want %d", len(notes), wantSwitches)
	}
	perLane := map[int]int{}
	for i, n := range notes {
		if n.Lane < 0 || n.Lane >= lanes {
			t.Fatalf("notice %d names lane %d", i, n.Lane)
		}
		perLane[n.Lane]++
		if n.Ordinal != perLane[n.Lane] {
			t.Errorf("notice %d: lane %d ordinal %d, want %d", i, n.Lane, n.Ordinal, perLane[n.Lane])
		}
		if n.From == n.To || n.From == "" || n.To == "" {
			t.Errorf("notice %d: degenerate switch %q -> %q", i, n.From, n.To)
		}
	}
	for l := 0; l < lanes; l++ {
		ctl := offline.Lane(l).Adapter().(*adapt.Controller)
		if perLane[l] != ctl.Switches() {
			t.Errorf("lane %d: %d notices, offline controller switched %d times", l, perLane[l], ctl.Switches())
		}
	}

	m := s.Metrics().Snapshot()
	if m.AdaptiveSessions != 1 {
		t.Errorf("adaptive session counter %d, want 1", m.AdaptiveSessions)
	}
	if m.SchemeSwitches != int64(wantSwitches) {
		t.Errorf("scheme_switches counter %d, want %d", m.SchemeSwitches, wantSwitches)
	}
}

// TestServeAdaptiveDefault: with the server's -adapt default on, a
// handshake naming no scheme becomes adaptive with the server's candidate
// set; naming a scheme stays fixed.
func TestServeAdaptiveDefault(t *testing.T) {
	s := startServer(t, Config{Adapt: true, AdaptCandidates: []string{"DC", "AC"}})
	c, err := Dial(s.Addr().String(), SessionConfig{Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Scheme(); got != "ADAPTIVE(DC,AC)" {
		t.Errorf("scheme-less session resolved %q, want ADAPTIVE(DC,AC)", got)
	}
	c2, err := Dial(s.Addr().String(), SessionConfig{Scheme: "OPT-FIXED", Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Scheme(); got != "OPT-FIXED" {
		t.Errorf("explicit scheme resolved %q, want OPT-FIXED", got)
	}
	// The exposition names the adaptive counters.
	var text bytes.Buffer
	if err := s.Metrics().Snapshot().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{"dbiserve_sessions_adaptive_total", "dbiserve_scheme_switches_total"} {
		if !strings.Contains(text.String(), counter) {
			t.Errorf("exposition missing %q", counter)
		}
	}
}

// TestServeAdaptiveHandshakeRejects: unusable adaptive requests are
// refused at handshake time with a telling error.
func TestServeAdaptiveHandshakeRejects(t *testing.T) {
	s := startServer(t, Config{})
	if _, err := Dial(s.Addr().String(), SessionConfig{
		Adapt: true, AdaptCandidates: []string{"DC", "BOGUS"}, Lanes: 1, Beats: 8,
	}); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown adaptive candidate not refused: %v", err)
	}
	if _, err := Dial(s.Addr().String(), SessionConfig{
		Adapt: true, AdaptMargin: 0.5, AdaptCandidates: []string{"DC"}, Lanes: 1, Beats: 8,
	}); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Errorf("single-candidate adaptive session not refused: %v", err)
	}
}

// TestHandshakeRoundTripAdapt: the handshake carries the adaptive block
// verbatim.
func TestHandshakeRoundTripAdapt(t *testing.T) {
	for _, cfg := range []SessionConfig{
		{Lanes: 4, Beats: 8, Scheme: "DC", Alpha: 2, Beta: 3},
		{Lanes: 1, Beats: 16, Adapt: true},
		{Lanes: 7, Beats: 8, Adapt: true, AdaptWindow: 128, AdaptMargin: 0.25,
			AdaptCandidates: []string{"DC", "AC", "OPT-FIXED"}, Alpha: 4, Beta: 1},
	} {
		var buf bytes.Buffer
		if err := writeHandshake(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		if v, flags := buf.Bytes()[4], buf.Bytes()[5+configFlagsOff]; v != protocolVersion || flags&flagMux == 0 {
			t.Errorf("handshake wrote version %d flags %#x, want v3 with the mux flag", v, flags)
		}
		got, err := readHandshake(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Errorf("handshake round trip %+v != %+v", got, cfg)
		}
	}
}

// TestHandshakeRejectsUnknownFlags: a flag bit this version does not know
// implies an appended block it would not consume, so the handshake is
// refused outright instead of desyncing the message stream.
func TestHandshakeRejectsUnknownFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHandshake(&buf, SessionConfig{Lanes: 1, Beats: 8}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := readHandshake(bytes.NewReader(raw)); err != nil {
		t.Fatalf("mux handshake refused: %v", err)
	}
	// An unknown bit beyond the known flags is refused.
	raw[25] |= 0x08
	if _, err := readHandshake(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "unsupported handshake flags") {
		t.Errorf("unknown flag bit not refused: %v", err)
	}
	// 0x04 is flagResume — a known bit, but resume tokens are per-session
	// (msgOpen), so a handshake carrying one is refused on those grounds
	// rather than as an unknown flag. With the flag set but no token bytes
	// the config body is simply truncated; either way the handshake must
	// not parse.
	raw[25] = (raw[25] &^ 0x08) | 0x04
	if _, err := readHandshake(bytes.NewReader(raw)); err == nil {
		t.Errorf("handshake with the resume flag parsed; want refusal")
	}
	withToken := append(append([]byte(nil), raw...), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(withToken[len(withToken)-8:], 7)
	if _, err := readHandshake(bytes.NewReader(withToken)); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Errorf("handshake with a resume token not refused as such: %v", err)
	}
}

// TestHandshakeRejectsLegacyWithoutHanging: every handshake but v3 with
// the mux flag is answered promptly with a rejection that names what to
// speak instead. A v1 handshake is one byte shorter (no flags byte) and a
// v2 one carries no session ids, so the server must reject both on the
// version byte instead of blocking on bytes that will never arrive; a v3
// handshake without the mux flag is refused once parsed.
func TestHandshakeRejectsLegacyWithoutHanging(t *testing.T) {
	s := startServer(t, Config{})
	var buf bytes.Buffer
	if err := writeHandshake(&buf, SessionConfig{Lanes: 1, Beats: 8}); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	legacy := func(version byte, mux bool, n int) []byte {
		raw := append([]byte(nil), v3[:n]...)
		raw[4] = version
		if !mux && n > 5+configFlagsOff {
			raw[5+configFlagsOff] &^= flagMux
		}
		return raw
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		// v1: 25 bytes with an empty scheme name, then the client waits.
		{"v1", legacy(1, false, handshakeLen-1), "unsupported protocol version 1"},
		{"v2", legacy(2, false, len(v3)), "unsupported protocol version 2"},
		{"v3-without-mux", legacy(protocolVersion, false, len(v3)), "without the mux flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			err = readReply(conn)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "protocol v3 with the mux flag") {
				t.Errorf("err = %v, want a prompt rejection saying %q and naming protocol v3 with the mux flag", err, tc.want)
			}
		})
	}
}
