package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/racetag"
)

// TestServeMuxEquivalence pins the multiplexing contract: one hundred
// sessions sharing a single socket produce wire images, totals and switch
// notices bit-identical to one hundred dedicated one-session connections
// (Dial) running the same workloads against the same server — static and
// adaptive sessions mixed, drives interleaved by a worker pool so session
// frames genuinely mingle on the shared connection.
func TestServeMuxEquivalence(t *testing.T) {
	const sessions, lanes, beats = 100, 2, 8
	schemes := []string{"OPT-FIXED", "DC", "AC", "ACDC", "GREEDY"}
	s := startServer(t, Config{})

	mc, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	runOne := func(i int) error {
		var cfg SessionConfig
		var fs []bus.Frame
		if i%10 == 0 {
			cfg = adaptSession(lanes, beats)
			fs = phaseFrames(int64(1000+i), 96, lanes, beats, 32)
		} else {
			cfg = SessionConfig{Scheme: schemes[i%len(schemes)], Lanes: lanes, Beats: beats}
			fs = randomFrames(int64(2000+i), 16, lanes, beats)
		}

		ms, err := mc.Open(cfg)
		if err != nil {
			return fmt.Errorf("session %d: mux open: %w", i, err)
		}
		ded, err := Dial(s.Addr().String(), cfg)
		if err != nil {
			return fmt.Errorf("session %d: dedicated dial: %w", i, err)
		}
		if ms.Scheme() != ded.Scheme() {
			return fmt.Errorf("session %d: resolved scheme %q (mux) != %q (dedicated)", i, ms.Scheme(), ded.Scheme())
		}

		// Singles (comparing every wire image), one batch in the middle,
		// then singles again.
		batchLo, batchHi := len(fs)/3, 2*len(fs)/3
		check := func(f bus.Frame) error {
			mw, err := ms.EncodeFrame(f)
			if err != nil {
				return fmt.Errorf("mux frame: %w", err)
			}
			dw, err := ded.EncodeFrame(f)
			if err != nil {
				return fmt.Errorf("dedicated frame: %w", err)
			}
			for l := range dw {
				if mw[l].String() != dw[l].String() {
					return fmt.Errorf("lane %d: mux wire %s != dedicated wire %s", l, mw[l], dw[l])
				}
			}
			return nil
		}
		for _, f := range fs[:batchLo] {
			if err := check(f); err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		}
		if _, err := ms.EncodeBatch(fs[batchLo:batchHi]); err != nil {
			return fmt.Errorf("session %d: mux batch: %w", i, err)
		}
		if _, err := ded.EncodeBatch(fs[batchLo:batchHi]); err != nil {
			return fmt.Errorf("session %d: dedicated batch: %w", i, err)
		}
		for _, f := range fs[batchHi:] {
			if err := check(f); err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		}

		mt, err := ms.Close()
		if err != nil {
			return fmt.Errorf("session %d: mux close: %w", i, err)
		}
		dt, err := ded.Close()
		if err != nil {
			return fmt.Errorf("session %d: dedicated close: %w", i, err)
		}
		if mt != dt {
			return fmt.Errorf("session %d: mux totals %+v != dedicated totals %+v", i, mt, dt)
		}
		if !reflect.DeepEqual(ms.Switches(), ded.Switches()) {
			return fmt.Errorf("session %d: mux switches %v != dedicated switches %v", i, ms.Switches(), ded.Switches())
		}
		return nil
	}

	workers := 8
	if racetag.Enabled {
		workers = 4
	}
	idx := make(chan int)
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := runOne(i); err != nil {
					errs <- err
				}
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeWireBytes pins the protocol at the byte level: a hand-rolled
// conversation — handshake, open, frames, totals, close, quit, every
// request byte written literally — round-trips with byte-for-byte expected
// replies, the reply bytes derived independently from an offline LaneSet
// replay rather than from any client code. The session id is 300, so every
// prefix is a two-byte uvarint. If a single wire byte shifts, this test
// names its offset.
func TestServeWireBytes(t *testing.T) {
	const lanes, beats = 2, 8
	s := startServer(t, Config{})
	fs := randomFrames(77, 3, lanes, beats)
	sid := []byte{0xac, 0x02} // uvarint 300

	// The handshake, spelled out: magic, version 3, geometry, zero weights
	// (= server default), no default scheme, the mux flag.
	hs := []byte{'D', 'B', 'I', 'S', 3, beats}
	hs = append(hs, byte(lanes), 0) // lanes u16 LE
	hs = append(hs, make([]byte, 16)...)
	hs = append(hs, 0, flagMux) // schemeLen, flags

	// Pin the client-side writer to the same bytes before using them.
	var hw strings.Builder
	if err := writeHandshake(&hw, SessionConfig{Lanes: lanes, Beats: beats}); err != nil {
		t.Fatal(err)
	}
	if hw.String() != string(hs) {
		t.Fatalf("writeHandshake bytes drifted:\n got %x\nwant %x", hw.String(), hs)
	}

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	mustRead := func(n int, what string) []byte {
		t.Helper()
		buf := make([]byte, n)
		if _, err := io.ReadFull(nc, buf); err != nil {
			t.Fatalf("reading %s: %v", what, err)
		}
		return buf
	}
	// msg frames one request: type, payload length u32 LE, payload.
	msg := func(typ byte, payload ...[]byte) []byte {
		var body []byte
		for _, p := range payload {
			body = append(body, p...)
		}
		return append(binary.LittleEndian.AppendUint32([]byte{typ}, uint32(len(body))), body...)
	}
	exchange := func(req, want []byte, what string) {
		t.Helper()
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(len(want), what); string(got) != string(want) {
			t.Fatalf("%s:\n got %x\nwant %x", what, got, want)
		}
	}

	// Handshake reply: magic, version 3, ok, empty text.
	exchange(hs, []byte{'D', 'B', 'I', 'O', 3, 0, 0, 0}, "handshake reply")

	// Open: session id, then a config body in the handshake layout naming
	// OPT-FIXED. The reply leads with the id, then ok and the scheme name.
	cfg := []byte{beats, byte(lanes), 0}
	cfg = append(cfg, make([]byte, 16)...)
	cfg = append(cfg, byte(len("OPT-FIXED")), 0)
	cfg = append(cfg, "OPT-FIXED"...)
	openReply := append(append([]byte{}, sid...), 0, byte(len("OPT-FIXED")), 0)
	exchange(msg(msgOpen, sid, cfg), msg(msgOpenReply, openReply, []byte("OPT-FIXED")), "open reply")

	// Frames: id-prefixed lane-major payload; the expected msgMasks reply
	// bytes come from an offline replay — mask bit k set iff the offline
	// wire drove beat k inverted (DBI low).
	offline := replayOffline(t, "OPT-FIXED", dbi.FixedWeights, nil, lanes)
	raw := replayOffline(t, "RAW", dbi.Weights{}, nil, lanes)
	var total Totals
	for fi, f := range fs {
		var payload, masks []byte
		for _, b := range f {
			payload = append(payload, b...)
		}
		for _, w := range offline.Transmit(f) {
			mb := make([]byte, maskBytes(beats))
			for k, ni := range w.DBI {
				if !ni {
					mb[k>>3] |= 1 << (k & 7)
				}
			}
			masks = append(masks, mb...)
		}
		exchange(msg(msgFrame, sid, payload), msg(msgMasks, sid, masks), fmt.Sprintf("frame %d masks reply", fi))
		raw.Transmit(f)
		total.Frames++
		total.Beats += lanes * beats
	}
	total.Coded = offline.TotalCost()
	total.Raw = raw.TotalCost()

	// Totals, then close: both reply with the session's 56-byte record.
	tb := make([]byte, totalsLen)
	putTotals(tb, total)
	exchange(msg(msgTotals, sid), msg(msgTotalsReply, sid, tb), "totals reply")
	exchange(msg(msgCloseSess, sid), msg(msgTotalsReply, sid, tb), "close reply")

	// Quit: the aggregate over the still-open sessions — none — under
	// session id 0, then the server closes the connection.
	exchange(msg(msgQuit), msg(msgTotalsReply, []byte{0}, make([]byte, totalsLen)), "quit reply")
	if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after quit: read %d bytes, err %v; want EOF", n, err)
	}
}

// TestMuxSessionConcurrentEncodeFrame: a MuxSession is safe for concurrent
// use, so goroutines sharing one session must each get back the wire
// images of their own payloads. Under DC every served beat then drives at
// most four of its nine lines (eight DQ plus DBI) low; a payload swapped in
// the shared send buffer mid-call would apply another frame's masks and
// break that.
func TestMuxSessionConcurrentEncodeFrame(t *testing.T) {
	const lanes, beats, workers, frames = 2, 8, 4, 200
	s := startServer(t, Config{})
	mc, err := DialMux(s.Addr().String(), SessionConfig{Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ms, err := mc.Open(SessionConfig{Scheme: "DC", Lanes: lanes, Beats: beats})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, f := range randomFrames(int64(900+w), frames, lanes, beats) {
				wires, err := ms.EncodeFrame(f)
				if err != nil {
					errs <- err
					return
				}
				for l, wire := range wires {
					for k, d := range wire.Data {
						zeros := 8 - bits.OnesCount8(d)
						if !wire.DBI[k] {
							zeros++
						}
						if zeros > 4 {
							errs <- fmt.Errorf("worker %d frame %d lane %d beat %d: %d of 9 lines low under DC", w, i, l, k, zeros)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tot, err := ms.Totals(); err != nil || tot.Frames != workers*frames {
		t.Fatalf("session totals %+v (%v), want %d frames", tot, err, workers*frames)
	}
}

// TestLoadManySessions runs the load generator's session-scale scenario
// in-process: 100 000 multiplexed sessions over 8 connections against one
// server, every frame accounted for (RunLoad cross-checks the server's
// aggregate totals against frames sent) and latency percentiles reported.
// Scaled down an order of magnitude under the race detector.
func TestLoadManySessions(t *testing.T) {
	if testing.Short() {
		t.Skip("session-scale load run")
	}
	s := startServer(t, Config{MaxConns: 16})
	cfg := LoadConfig{
		Addr: s.Addr().String(), Conns: 8, SessionsPerConn: 12500,
		Frames: 2, Lanes: 1, Beats: 8, Scheme: "DC", Window: 256,
	}
	if racetag.Enabled {
		cfg.Conns, cfg.SessionsPerConn = 4, 2500
	}
	rep, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSessions := cfg.Conns * cfg.SessionsPerConn
	if rep.Sessions != wantSessions {
		t.Fatalf("sessions %d, want %d", rep.Sessions, wantSessions)
	}
	if rep.Totals.Frames != wantSessions*cfg.Frames {
		t.Fatalf("server accounted %d frames, want %d", rep.Totals.Frames, wantSessions*cfg.Frames)
	}
	if rep.P50Ns <= 0 || rep.P99Ns < rep.P50Ns || rep.MaxNs < rep.P99Ns {
		t.Fatalf("implausible percentiles: p50=%d p99=%d max=%d", rep.P50Ns, rep.P99Ns, rep.MaxNs)
	}
	if rep.FramesPerSec <= 0 {
		t.Fatalf("throughput %f", rep.FramesPerSec)
	}
	t.Logf("%d sessions: p50=%dns p99=%dns %.0f frames/s", rep.Sessions, rep.P50Ns, rep.P99Ns, rep.FramesPerSec)
}
