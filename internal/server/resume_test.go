package server

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbiopt/internal/bus"
)

// fastRetry is the reconnect policy the fault tests run: many cheap
// attempts so a test never stalls on production-scale backoff.
func fastRetry() RetryConfig {
	return RetryConfig{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 99}
}

// lossyConn drops the connection on the first Read after the shared trap
// is armed: the deterministic way to lose a reply (the request was written
// in full, so the server processes the frame; the client never sees the
// answer). The small sleep before the close lets the server finish its
// side, biasing recovery toward the replayed-masks path — though either
// reconciliation path must preserve equivalence.
type lossyConn struct {
	net.Conn
	trap *atomic.Bool
}

func (c *lossyConn) Read(p []byte) (int, error) {
	if c.trap.CompareAndSwap(true, false) {
		time.Sleep(10 * time.Millisecond)
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Read(p)
}

// TestKillAndResumeEquivalence pins the tentpole acceptance criterion: a
// resumable session whose connection is repeatedly killed mid-stream —
// both between frames (the re-send path) and after a frame was delivered
// but before its reply arrived (the lost-reply replay path) — produces
// wire images and totals bit-identical to the same workload on an
// unbroken connection. Static and adaptive sessions both.
func TestKillAndResumeEquivalence(t *testing.T) {
	const lanes, beats = 2, 8
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
		fs   []bus.Frame
	}{
		{"static", SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats},
			randomFrames(5150, 60, lanes, beats)},
		{"adaptive", adaptSession(lanes, beats),
			phaseFrames(6160, 96, lanes, beats, 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, Config{})

			// Baseline: the same workload on an unbroken connection.
			bc, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
			if err != nil {
				t.Fatal(err)
			}
			defer bc.Close()
			bs, err := bc.Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseWires := make([][]bus.Wire, len(tc.fs))
			for i, f := range tc.fs {
				if baseWires[i], err = bs.EncodeFrame(f); err != nil {
					t.Fatalf("baseline frame %d: %v", i, err)
				}
			}
			baseTotals, err := bs.Close()
			if err != nil {
				t.Fatal(err)
			}

			// Faulted run: resumable session, connection killed on a fixed
			// schedule.
			trap := &atomic.Bool{}
			opts := MuxOptions{
				Retry: fastRetry(),
				Dial: func(addr string) (net.Conn, error) {
					nc, err := net.Dial("tcp", addr)
					if err != nil {
						return nil, err
					}
					return &lossyConn{Conn: nc, trap: trap}, nil
				},
			}
			cfg := tc.cfg
			cfg.ResumeToken = 0xfeed
			fc, err := DialMuxOpts(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			fs2, err := fc.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kills := 0
			for i, f := range tc.fs {
				switch {
				case i > 0 && i%17 == 0:
					// Lose this frame's reply: the request lands, the answer
					// does not, and the resume must replay the masks.
					trap.Store(true)
					kills++
				case i > 0 && i%7 == 0:
					// Kill the transport between frames: the server never
					// sees the next frame, and recovery re-sends it.
					fc.mu.Lock()
					fc.conn.Close()
					fc.mu.Unlock()
					kills++
				}
				w, err := fs2.EncodeFrame(f)
				if err != nil {
					t.Fatalf("faulted frame %d: %v", i, err)
				}
				for l := range w {
					if w[l].String() != baseWires[i][l].String() {
						t.Fatalf("frame %d lane %d: faulted wire %s != baseline %s", i, l, w[l], baseWires[i][l])
					}
				}
			}
			faultTotals, err := fs2.Close()
			if err != nil {
				t.Fatal(err)
			}
			if faultTotals != baseTotals {
				t.Fatalf("faulted totals %+v != baseline %+v", faultTotals, baseTotals)
			}
			st := fc.Stats()
			if st.TransientErrors < kills || st.Resumes < kills {
				t.Fatalf("stats %+v after %d scheduled kills", st, kills)
			}
			waitMetric(t, s.Metrics(), "resume counters", func(ms MetricsSnapshot) bool {
				return ms.Resumes >= int64(kills) && ms.Parked == 0
			})
		})
	}
}

// TestResumeRebuildAfterExpiry: once the park grace period lapses the
// session's live state is gone, and a resume rebuilds a fresh one seeded
// at the claimed wire state. For static schemes the rebuild must still be
// bit-identical.
func TestResumeRebuildAfterExpiry(t *testing.T) {
	const lanes, beats = 2, 8
	fs := randomFrames(7170, 24, lanes, beats)
	s := startServer(t, Config{ParkTimeout: 30 * time.Millisecond})

	bc, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bs, err := bc.Open(SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	baseWires := make([][]bus.Wire, len(fs))
	for i, f := range fs {
		if baseWires[i], err = bs.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}

	fc, err := DialMuxOpts(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats},
		MuxOptions{Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	ms, err := fc.Open(SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats, ResumeToken: 0xdead})
	if err != nil {
		t.Fatal(err)
	}
	half := len(fs) / 2
	check := func(i int, f bus.Frame) {
		t.Helper()
		w, err := ms.EncodeFrame(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for l := range w {
			if w[l].String() != baseWires[i][l].String() {
				t.Fatalf("frame %d lane %d: wire %s != baseline %s", i, l, w[l], baseWires[i][l])
			}
		}
	}
	for i, f := range fs[:half] {
		check(i, f)
	}
	fc.mu.Lock()
	fc.conn.Close()
	fc.mu.Unlock()
	// Wait out the park timeout: the parked session must expire and release
	// its slot, forcing the next resume down the rebuild path.
	waitMetric(t, s.Metrics(), "parked session expiry", func(ms MetricsSnapshot) bool {
		return ms.Parked == 0 && ms.Active == 1 // baseline session only
	})
	for i, f := range fs[half:] {
		check(half+i, f)
	}
	if st := fc.Stats(); st.Resumes != 1 {
		t.Fatalf("stats %+v, want exactly one resume (the rebuild)", st)
	}
}

// TestShedPromptBusyRejection: with shedding enabled a dialer past
// MaxConns gets an immediate typed ErrBusy instead of queueing without an
// answer until the test deadline (the hang TestServeMaxConnsBackpressure
// documents for the default backpressure mode).
func TestShedPromptBusyRejection(t *testing.T) {
	s := startServer(t, Config{MaxConns: 1, Shed: true})
	c1, err := Dial(s.Addr().String(), SessionConfig{Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	done := make(chan error, 1)
	go func() {
		_, err := Dial(s.Addr().String(), SessionConfig{Lanes: 1, Beats: 8})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("over-limit dial returned %v, want ErrBusy", err)
		}
		if !IsTransient(err) {
			t.Fatal("busy rejection must classify as transient")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("over-limit dial still queued after 5s with shedding enabled")
	}
	waitMetric(t, s.Metrics(), "busy rejection counter", func(ms MetricsSnapshot) bool {
		return ms.BusyRejections >= 1
	})
}

// TestMalformedResumeLeavesSessionsIntact: garbage, truncated and
// token-stealing msgResume payloads must each be answered with an error
// frame — not a panic, not a dropped connection — and must leave an
// attached session's lane state untouched.
func TestMalformedResumeLeavesSessionsIntact(t *testing.T) {
	const lanes, beats = 2, 8
	fs := randomFrames(8180, 8, lanes, beats)
	s := startServer(t, Config{})

	// Victim: an attached resumable session mid-stream.
	vc, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	vs, err := vc.Open(SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats, ResumeToken: 0xabcd})
	if err != nil {
		t.Fatal(err)
	}
	victimWires := make([][]bus.Wire, 0, len(fs))
	for _, f := range fs[:4] {
		w, err := vs.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		victimWires = append(victimWires, w)
	}

	// Attacker: a raw v3 connection throwing malformed resumes.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeHandshake(nc, SessionConfig{Lanes: lanes, Beats: beats}); err != nil {
		t.Fatal(err)
	}
	if err := readReply(nc); err != nil {
		t.Fatal(err)
	}
	sendResume := func(payload []byte) (sid uint64, status byte, msg string) {
		t.Helper()
		var hdr [5]byte
		putHeader(&hdr, msgResume, len(payload))
		if _, err := nc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(payload); err != nil {
			t.Fatal(err)
		}
		typ, n, err := readHeader(nc, &hdr)
		if err != nil {
			t.Fatal(err)
		}
		if typ != msgResumeReply {
			t.Fatalf("reply type %q, want msgResumeReply", typ)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(nc, buf); err != nil {
			t.Fatal(err)
		}
		sid, status, _, msg, _, err = parseResumeReply(buf)
		if err != nil {
			t.Fatalf("resume reply does not parse: %v", err)
		}
		return sid, status, msg
	}

	// Garbage bytes: rejected under the reserved session id 0.
	if sid, status, _ := sendResume([]byte("\xff\xfe\xfd\xfc garbage")); sid != 0 || status != statusError {
		t.Fatalf("garbage resume: sid=%d status=%d, want 0/statusError", sid, status)
	}
	// A well-formed claim for the victim's token while it is attached:
	// transiently refused, never handed over.
	claim := resumeClaim{
		sid: 9, cfg: SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats, ResumeToken: 0xabcd},
		totals: Totals{Frames: 4, Beats: 4 * lanes * beats},
		coded:  make([]bus.LineState, lanes), raw: make([]bus.LineState, lanes),
	}
	for l := range claim.coded {
		claim.coded[l] = bus.InitialLineState
		claim.raw[l] = bus.InitialLineState
	}
	payload, err := appendResume(nil, claim)
	if err != nil {
		t.Fatal(err)
	}
	if sid, status, msg := sendResume(payload); sid != 9 || status != statusBusy {
		t.Fatalf("attached-token steal: sid=%d status=%d msg=%q, want 9/statusBusy", sid, status, msg)
	}
	// The same claim with its trailing checksum flipped: must not even
	// reach the token registry.
	payload[len(payload)-1] ^= 0xff
	if sid, status, msg := sendResume(payload); sid != 0 || status != statusError {
		t.Fatalf("bad checksum: sid=%d status=%d msg=%q, want 0/statusError", sid, status, msg)
	}
	// Truncated mid-claim (checksum recomputed over the prefix so only the
	// structural validation can reject it).
	trunc := payload[:len(payload)-12]
	var sum uint64 = 14695981039346656037
	for _, b := range trunc {
		sum = (sum ^ uint64(b)) * 1099511628211
	}
	trunc = binary.LittleEndian.AppendUint64(trunc, sum)
	if sid, status, _ := sendResume(trunc); sid != 0 || status != statusError {
		t.Fatalf("truncated claim: sid=%d status=%d, want 0/statusError", sid, status)
	}

	// The victim's chain must be exactly where it would be untouched: the
	// remaining frames match a clean replay of the full workload.
	cleanc, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanc.Close()
	clean, err := cleanc.Open(SessionConfig{Scheme: "ACDC", Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		cw, err := clean.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			for l := range cw {
				if cw[l].String() != victimWires[i][l].String() {
					t.Fatalf("frame %d lane %d diverged before the attack", i, l)
				}
			}
			continue
		}
		vw, err := vs.EncodeFrame(f)
		if err != nil {
			t.Fatalf("victim frame %d after malformed resumes: %v", i, err)
		}
		for l := range vw {
			if vw[l].String() != cw[l].String() {
				t.Fatalf("frame %d lane %d: victim wire %s != clean %s after malformed resumes", i, l, vw[l], cw[l])
			}
		}
	}
}

// TestIdleTimeoutClosesConnection: an idle connection past IdleTimeout is
// torn down by the server and counted.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	s := startServer(t, Config{IdleTimeout: 80 * time.Millisecond})
	c, err := Dial(s.Addr().String(), SessionConfig{Scheme: "DC", Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EncodeFrame(randomFrames(1, 1, 1, 8)[0]); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, s.Metrics(), "idle timeout", func(ms MetricsSnapshot) bool {
		return ms.ConnTimeouts >= 1
	})
	// The next use of the connection must fail — the server hung up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.EncodeFrame(randomFrames(1, 1, 1, 8)[0]); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection still alive long after the idle deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestIdleTimeoutSparesBusyConnection: the idle budget bounds the silence
// between messages, not a connection's lifetime. A client that keeps
// talking well inside the budget is served for several budgets in a row,
// with no write deadline in play (WriteTimeout zero disables it).
func TestIdleTimeoutSparesBusyConnection(t *testing.T) {
	const idle = 80 * time.Millisecond
	s := startServer(t, Config{IdleTimeout: idle})
	c, err := Dial(s.Addr().String(), SessionConfig{Scheme: "DC", Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := randomFrames(2, 1, 1, 8)[0]
	for start := time.Now(); time.Since(start) < 5*idle; time.Sleep(idle / 8) {
		if _, err := c.EncodeFrame(f); err != nil {
			t.Fatalf("after %v of steady traffic: %v", time.Since(start).Round(time.Millisecond), err)
		}
	}
	if m := s.Metrics().Snapshot(); m.ConnTimeouts != 0 {
		t.Fatalf("%d connections timed out under steady traffic", m.ConnTimeouts)
	}
}

// TestResumableSessionRejectsBatch: batch replies carry only totals, which
// cannot keep a resume mirror coherent, so both ends refuse them.
func TestResumableSessionRejectsBatch(t *testing.T) {
	const lanes, beats = 1, 8
	s := startServer(t, Config{})
	c, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ms, err := c.Open(SessionConfig{Scheme: "DC", Lanes: lanes, Beats: beats, ResumeToken: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.EncodeBatch(randomFrames(2, 3, lanes, beats)); err == nil {
		t.Fatal("batch accepted on a resumable session")
	}
	// The session itself survives the rejection.
	if _, err := ms.EncodeFrame(randomFrames(3, 1, lanes, beats)[0]); err != nil {
		t.Fatalf("session dead after batch rejection: %v", err)
	}
}

// TestResumableAdaptiveMustBeExplicit: a resumable session that would
// resolve adaptive via the server default must be refused at Open — the
// client cannot mirror adaptive state it did not ask for.
func TestResumableAdaptiveMustBeExplicit(t *testing.T) {
	s := startServer(t, Config{Adapt: true})
	c, err := DialMux(s.Addr().String(), SessionConfig{Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open(SessionConfig{Lanes: 1, Beats: 8, ResumeToken: 6}); err == nil {
		t.Fatal("implicitly-adaptive resumable session accepted")
	} else if !strings.Contains(err.Error(), "Adapt") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
	// The explicit form is accepted.
	cfg := adaptSession(1, 8)
	cfg.ResumeToken = 6
	if _, err := c.Open(cfg); err != nil {
		t.Fatalf("explicit adaptive resumable open: %v", err)
	}
}
