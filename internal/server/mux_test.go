package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/racetag"
)

// TestServeMuxEquivalence pins the tentpole acceptance criterion: one
// hundred multiplexed v3 sessions sharing a single socket produce wire
// images, totals and switch notices bit-identical to one hundred separate
// v2 connections running the same workloads against the same server —
// static and adaptive sessions mixed, drives interleaved by a worker pool
// so session frames genuinely mingle on the shared connection.
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
		v2, err := Dial(s.Addr().String(), cfg)
		if err != nil {
			return fmt.Errorf("session %d: v2 dial: %w", i, err)
		}
		if ms.Scheme() != v2.Scheme() {
			return fmt.Errorf("session %d: resolved scheme %q (mux) != %q (v2)", i, ms.Scheme(), v2.Scheme())
		}

		// Singles (comparing every wire image), one batch in the middle,
		// then singles again.
		batchLo, batchHi := len(fs)/3, 2*len(fs)/3
		check := func(f bus.Frame) error {
			mw, err := ms.EncodeFrame(f)
			if err != nil {
				return fmt.Errorf("mux frame: %w", err)
			}
			vw, err := v2.EncodeFrame(f)
			if err != nil {
				return fmt.Errorf("v2 frame: %w", err)
			}
			for l := range vw {
				if mw[l].String() != vw[l].String() {
					return fmt.Errorf("lane %d: mux wire %s != v2 wire %s", l, mw[l], vw[l])
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
		if _, err := v2.EncodeBatch(fs[batchLo:batchHi]); err != nil {
			return fmt.Errorf("session %d: v2 batch: %w", i, err)
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
		vt, err := v2.Close()
		if err != nil {
			return fmt.Errorf("session %d: v2 close: %w", i, err)
		}
		if mt != vt {
			return fmt.Errorf("session %d: mux totals %+v != v2 totals %+v", i, mt, vt)
		}
		if !reflect.DeepEqual(ms.Switches(), v2.Switches()) {
			return fmt.Errorf("session %d: mux switches %v != v2 switches %v", i, ms.Switches(), v2.Switches())
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

// TestServeV2WireBytes pins the backward-compatibility acceptance
// criterion at the byte level: a hand-rolled v2 conversation — handshake,
// frame, totals, quit, every request byte written literally — round-trips
// against the v3 server with byte-for-byte identical replies, the reply
// bytes derived independently from an offline LaneSet replay rather than
// from any client code. If the v3 rework shifted a single v2 wire byte,
// this test names its offset.
func TestServeV2WireBytes(t *testing.T) {
	const lanes, beats = 2, 8
	s := startServer(t, Config{})
	fs := randomFrames(77, 3, lanes, beats)

	// The handshake, spelled out: magic, version 2, geometry, OPT-FIXED
	// weights (zero = server default), scheme, no flags.
	hs := []byte{'D', 'B', 'I', 'S', 2, beats}
	hs = append(hs, byte(lanes), 0) // lanes u16 LE
	hs = append(hs, make([]byte, 16)...)
	hs = append(hs, byte(len("OPT-FIXED")), 0) // schemeLen, flags
	hs = append(hs, "OPT-FIXED"...)

	// Pin the client-side writer to the same bytes before using them.
	var hw strings.Builder
	if err := writeHandshake(&hw, protocolV2, false, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}); err != nil {
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
	if _, err := nc.Write(hs); err != nil {
		t.Fatal(err)
	}

	// Handshake reply: magic, the *negotiated* version (a v2 client must
	// see 2 echoed back, not the server's own 3), ok, and the scheme name.
	wantReply := []byte{'D', 'B', 'I', 'O', 2, 0, byte(len("OPT-FIXED")), 0}
	wantReply = append(wantReply, "OPT-FIXED"...)
	if got := mustRead(len(wantReply), "handshake reply"); string(got) != string(wantReply) {
		t.Fatalf("handshake reply:\n got %x\nwant %x", got, wantReply)
	}

	// Frames: 5-byte header (type, payload len u32 LE), lane-major payload;
	// the expected msgMasks reply bytes come from an offline replay — mask
	// bit k set iff the offline wire drove beat k inverted (DBI low).
	offline := replayOffline(t, "OPT-FIXED", dbi.FixedWeights, nil, lanes)
	var total Totals
	raw := replayOffline(t, "RAW", dbi.Weights{}, nil, lanes)
	for fi, f := range fs {
		msg := []byte{msgFrame}
		msg = binary.LittleEndian.AppendUint32(msg, uint32(lanes*beats))
		for _, b := range f {
			msg = append(msg, b...)
		}
		if _, err := nc.Write(msg); err != nil {
			t.Fatal(err)
		}
		want := []byte{msgMasks}
		want = binary.LittleEndian.AppendUint32(want, uint32(lanes*maskBytes(beats)))
		for _, w := range offline.Transmit(f) {
			mb := make([]byte, maskBytes(beats))
			for k, ni := range w.DBI {
				if !ni {
					mb[k>>3] |= 1 << (k & 7)
				}
			}
			want = append(want, mb...)
		}
		if got := mustRead(len(want), "masks reply"); string(got) != string(want) {
			t.Fatalf("frame %d masks reply:\n got %x\nwant %x", fi, got, want)
		}
		raw.Transmit(f)
		total.Frames++
		total.Beats += lanes * beats
	}
	total.Coded = offline.TotalCost()
	total.Raw = raw.TotalCost()

	// Totals request then quit: both reply with the same 56-byte record.
	wantTotals := []byte{msgTotalsReply}
	wantTotals = binary.LittleEndian.AppendUint32(wantTotals, totalsLen)
	tb := make([]byte, totalsLen)
	putTotals(tb, total)
	wantTotals = append(wantTotals, tb...)
	for _, req := range []byte{msgTotals, msgQuit} {
		if _, err := nc.Write([]byte{req, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(len(wantTotals), "totals reply"); string(got) != string(wantTotals) {
			t.Fatalf("%q totals reply:\n got %x\nwant %x", req, got, wantTotals)
		}
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
