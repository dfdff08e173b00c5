package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"dbiopt/internal/bus"
)

// fuzzStream serialises a well-formed client byte stream to seed the fuzzer
// with conversations whose mutations land near valid protocol shapes.
func fuzzStream(hs func(w io.Writer) error, msgs ...[]byte) []byte {
	var buf bytes.Buffer
	if hs != nil {
		if err := hs(&buf); err != nil {
			panic(err)
		}
	}
	for _, m := range msgs {
		var hdr [5]byte
		putHeader(&hdr, m[0], len(m)-1)
		buf.Write(hdr[:])
		buf.Write(m[1:])
	}
	return buf.Bytes()
}

// FuzzProtocolRoundTrip fuzzes the protocol at two levels. The parsers are
// checked for serialisation round-trips: any input a parser accepts must
// re-serialise to bytes the parser maps to the same value (compared in
// serialised form, so NaN weight payloads are held bit-exact rather than
// tripping float equality). And a live server is fed the input as a raw
// client byte stream — bare, or behind one of two valid handshakes (with
// and without connection-default scheme) so mutations reach the framing,
// session-id varint, batch and config-body paths — and must answer every
// malformation with a clean error or close: a panic crashes the fuzz
// worker, a hang trips the read deadline.
func FuzzProtocolRoundTrip(f *testing.F) {
	srv, err := New(Config{Addr: "127.0.0.1:0", MaxConns: 32})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	static := SessionConfig{Scheme: "DC", Lanes: 2, Beats: 8}
	staticHs := func(w io.Writer) error { return writeHandshake(w, static) }
	bareHs := func(w io.Writer) error { return writeHandshake(w, SessionConfig{Lanes: 2, Beats: 8}) }
	payload := make([]byte, 2*8)
	for i := range payload {
		payload[i] = byte(i * 37)
	}

	f.Add(byte(0), fuzzStream(staticHs))
	f.Add(byte(0), fuzzStream(bareHs))
	f.Add(byte(0), fuzzStream(staticHs,
		append([]byte{msgOpen, 1}, appendConfigBody(nil, SessionConfig{Lanes: 2, Beats: 8})...),
		append([]byte{msgFrame, 1}, payload...),
		[]byte{msgTotals, 1},
		[]byte{msgQuit}))
	f.Add(byte(2), fuzzStream(nil,
		append([]byte{msgOpen, 1}, appendConfigBody(nil, static)...),
		append([]byte{msgFrame, 1}, payload...),
		[]byte{msgCloseSess, 1},
		[]byte{msgQuit}))
	f.Add(byte(1), fuzzStream(nil, append([]byte{msgBatch}, "DBIT"...)))
	f.Add(byte(0), appendOpenReply(nil, 9, statusError, "nope"))
	f.Add(byte(1), appendBusyFrame(nil, statusBusy, "server: connection limit reached"))
	f.Add(byte(1), appendSwitchNote(nil, SwitchNote{Lane: 1, Ordinal: 2, Burst: 3, From: "DC", To: "AC"}))

	// Resume claims — static and adaptive — both as parser seeds and as a
	// live-server stream (the claim names a token the server never parked,
	// driving the rebuild path; mutations reach the checksum, varint and
	// lane-state validation).
	states := []bus.LineState{{Data: 0x5a, DBI: false}, {Data: 0xa5, DBI: true}}
	claim := resumeClaim{
		sid: 7,
		cfg: SessionConfig{Scheme: "DC", Lanes: 2, Beats: 8, ResumeToken: 0x55},
		totals: Totals{Frames: 3, Beats: 48,
			Coded: Cost{Zeros: 10, Transitions: 20}, Raw: Cost{Zeros: 30, Transitions: 40}},
		coded: states, raw: states,
	}
	staticClaim, err := appendResume(nil, claim)
	if err != nil {
		f.Fatal(err)
	}
	claim.cfg = SessionConfig{Adapt: true, AdaptWindow: 32, AdaptCandidates: []string{"DC", "AC"},
		Alpha: 4, Beta: 1, Lanes: 2, Beats: 8, ResumeToken: 0x56}
	claim.live, claim.laneSwitches = []uint8{0, 1}, []uint32{0, 2}
	claim.totals.Switches = 2
	adaptClaim, err := appendResume(nil, claim)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(byte(0), staticClaim)
	f.Add(byte(0), adaptClaim)
	f.Add(byte(2), fuzzStream(nil,
		append([]byte{msgResume}, staticClaim...),
		append([]byte{msgResume}, adaptClaim...),
		[]byte{msgQuit}))
	f.Add(byte(0), appendResumeReply(nil, 7, statusOK, resumeReattached, "DC",
		resumeReplyState{totals: claim.totals, masks: []byte{0xf0, 0x0f},
			live: []uint8{0, 1}, laneSwitches: []uint32{0, 2}}))
	f.Add(byte(0), appendResumeReply(nil, 7, statusBusy, 0, "server: busy", resumeReplyState{}))

	f.Fuzz(func(t *testing.T, variant byte, data []byte) {
		fuzzParsers(t, data)
		fuzzServer(t, addr, variant%3, data)
	})
}

// fuzzParsers checks every stateless parser for the round-trip property on
// one input.
func fuzzParsers(t *testing.T, data []byte) {
	if c, err := readHandshake(bytes.NewReader(data)); err == nil {
		var b1, b2 bytes.Buffer
		if err := writeHandshake(&b1, c); err != nil {
			t.Fatalf("accepted handshake does not re-serialise: %v", err)
		}
		c2, err := readHandshake(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-serialised handshake rejected: %v", err)
		}
		if err := writeHandshake(&b2, c2); err != nil || !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("handshake round-trip diverged:\n %x\n %x (%v)", b1.Bytes(), b2.Bytes(), err)
		}
	}
	if c, err := parseConfigBody(data); err == nil {
		b1 := appendConfigBody(nil, c)
		c2, err := parseConfigBody(b1)
		if err != nil {
			t.Fatalf("re-serialised config body rejected: %v", err)
		}
		if b2 := appendConfigBody(nil, c2); !bytes.Equal(b1, b2) {
			t.Fatalf("config body round-trip diverged:\n %x\n %x", b1, b2)
		}
	}
	if sid, status, msg, err := parseOpenReply(data); err == nil {
		b1 := appendOpenReply(nil, sid, status, msg)
		sid2, status2, msg2, err := parseOpenReply(b1)
		if err != nil || sid2 != sid || status2 != status || msg2 != msg {
			t.Fatalf("open-reply round-trip diverged: (%d %v %q) -> (%d %v %q), %v",
				sid, status, msg, sid2, status2, msg2, err)
		}
	}
	if n, err := parseSwitchNote(data); err == nil {
		b1 := appendSwitchNote(nil, n)
		n2, err := parseSwitchNote(b1)
		if err != nil || n2 != n {
			t.Fatalf("switch-note round-trip diverged: %+v -> %+v, %v", n, n2, err)
		}
	}
	if len(data) >= totalsLen {
		tot := parseTotals(data)
		buf := make([]byte, totalsLen)
		putTotals(buf, tot)
		if got := parseTotals(buf); got != tot {
			t.Fatalf("totals round-trip diverged: %+v -> %+v", tot, got)
		}
	}
	if rc, err := parseResume(data); err == nil {
		b1, err := appendResume(nil, rc)
		if err != nil {
			t.Fatalf("accepted resume claim does not re-serialise: %v", err)
		}
		rc2, err := parseResume(b1)
		if err != nil {
			t.Fatalf("re-serialised resume claim rejected: %v", err)
		}
		b2, err := appendResume(nil, rc2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("resume claim round-trip diverged:\n %x\n %x (%v)", b1, b2, err)
		}
	}
	if sid, status, mode, msg, rs, err := parseResumeReply(data); err == nil {
		b1 := appendResumeReply(nil, sid, status, mode, msg, rs)
		sid2, status2, mode2, msg2, rs2, err := parseResumeReply(b1)
		if err != nil || sid2 != sid || status2 != status || mode2 != mode || msg2 != msg {
			t.Fatalf("resume reply round-trip diverged: (%d %d %d %q) -> (%d %d %d %q), %v",
				sid, status, mode, msg, sid2, status2, mode2, msg2, err)
		}
		if b2 := appendResumeReply(nil, sid2, status2, mode2, msg2, rs2); !bytes.Equal(b1, b2) {
			t.Fatalf("resume reply round-trip diverged:\n %x\n %x", b1, b2)
		}
	}
}

// fuzzServer feeds one byte stream to a live server — optionally behind a
// known-good handshake — and requires the connection to wind down cleanly
// once the stream ends.
func fuzzServer(t *testing.T, addr string, variant byte, data []byte) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// Drain concurrently so server replies never fill the socket buffers
	// and stall the write side.
	drained := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, nc)
		drained <- err
	}()

	var buf bytes.Buffer
	switch variant {
	case 1:
		writeHandshake(&buf, SessionConfig{Scheme: "DC", Lanes: 2, Beats: 8}) //nolint:errcheck
	case 2:
		writeHandshake(&buf, SessionConfig{Lanes: 2, Beats: 8}) //nolint:errcheck
	}
	buf.Write(data)
	if _, err := nc.Write(buf.Bytes()); err != nil {
		// The server is allowed to slam the door on garbage mid-write;
		// it just may not hang or crash.
		return
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck
	}
	// EOF (or a reset from an aborted connection) must arrive well before
	// the deadline; a deadline error here means the server hung on input.
	if err := <-drained; err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server did not wind down the connection: %v", err)
	}
}
