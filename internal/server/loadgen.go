package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"dbiopt/internal/bus"
	"dbiopt/internal/chaos"
)

// LoadConfig configures one load-generation run against a dbiserve
// instance: Conns multiplexed v3 connections, each carrying SessionsPerConn
// logical sessions, each session encoding Frames single-frame messages of
// Lanes×Beats geometry.
type LoadConfig struct {
	// Addr is the target server's address. Required (cmd/dbiload spins up
	// an in-process server when invoked without one).
	Addr string
	// Conns is the connection count; <= 0 selects 4.
	Conns int
	// SessionsPerConn is the multiplexed session count per connection;
	// <= 0 selects 25.
	SessionsPerConn int
	// Frames is the frame count per session; <= 0 selects 50.
	Frames int
	// Lanes and Beats are the per-session geometry; <= 0 select 1 and 8.
	Lanes, Beats int
	// Scheme and the weights are the session coding parameters; all zero
	// defers to the server defaults.
	Scheme      string
	Alpha, Beta float64
	// Window is the per-connection in-flight frame budget: the writer
	// pipelines up to Window unanswered messages before blocking, which is
	// what turns one connection into a throughput instrument instead of a
	// ping-pong latency one. <= 0 selects 128.
	Window int
	// Warmup is the per-connection count of leading frame replies excluded
	// from the latency histogram, so queue-fill transients do not pollute
	// the percentiles. <= 0 records everything.
	Warmup int
	// Seed seeds the workload generator; 0 selects 1.
	Seed int64
	// ChaosSeed, when nonzero, turns the run into a fault-injection soak:
	// every connection dials through a seeded chaos injector that kills the
	// transport at scheduled byte offsets, sessions are opened resumable,
	// and the retry layer reconnects and resumes them mid-stream. Chaos
	// runs drive strict request/response traffic (the recovery protocol
	// reconciles one in-flight frame, so the pipelined window does not
	// apply) and report fault and recovery counters alongside the usual
	// latency figures. The same seed replays the same fault schedule.
	ChaosSeed int64
}

// fill resolves the defaults.
func (c *LoadConfig) fill() {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.SessionsPerConn <= 0 {
		c.SessionsPerConn = 25
	}
	if c.Frames <= 0 {
		c.Frames = 50
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.Beats <= 0 {
		c.Beats = 8
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// LoadReport is the result of one RunLoad: volume, wall time, throughput
// and the per-frame latency percentiles, JSON-shaped for dbibenchdiff's
// latency gate.
type LoadReport struct {
	// Scenario names the preset (or "custom"); dbibenchdiff matches it
	// against the bench_baseline.json latency entries.
	Scenario string `json:"scenario"`
	// Conns, Sessions, Lanes and Beats echo the run shape; Sessions is the
	// total over all connections.
	Conns    int `json:"conns"`
	Sessions int `json:"sessions"`
	Lanes    int `json:"lanes"`
	Beats    int `json:"beats"`
	// Frames is the total frame count encoded (excluding nothing — warmup
	// frames are encoded too, they just skip the histogram).
	Frames int64 `json:"frames"`
	// DurationNs is the wall time of the whole run, session opens
	// included; OpenNs is the slowest connection's open phase alone.
	DurationNs int64 `json:"duration_ns"`
	OpenNs     int64 `json:"open_ns"`
	// FramesPerSec is Frames over DurationNs.
	FramesPerSec float64 `json:"frames_per_sec"`
	// MeanNs and the percentiles summarise the per-frame round-trip
	// latency histogram (~6% bucket resolution); MaxNs is exact.
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`

	// Chaos counters, present only on chaos runs (ChaosSeed echoes the
	// fault schedule's seed). FaultsInjected and TransientErrors and
	// Resumes are deterministic for a given seed and workload; Retries
	// also counts reconnect attempts burned on timing races (claiming a
	// session the server has not yet parked), so it is reproducible only
	// as a lower bound. Older report consumers (dbibenchdiff -load)
	// ignore these fields.
	ChaosSeed       int64 `json:"chaos_seed,omitempty"`
	FaultsInjected  int   `json:"faults_injected,omitempty"`
	TransientErrors int   `json:"transient_errors,omitempty"`
	Retries         int   `json:"retries,omitempty"`
	Resumes         int   `json:"resumes,omitempty"`

	// Totals is the aggregate server-side accounting over every session,
	// cross-checked by RunLoad against the frame volume it sent — the load
	// generator doubles as an end-to-end correctness check.
	Totals Totals `json:"-"`
}

// errLoadAborted signals a writer unblocked by a failing reader.
var errLoadAborted = errors.New("server: load run aborted")

// loadConn is the per-connection state of one load worker.
type loadConn struct {
	hist   Histogram
	openNs int64
	totals Totals
	stats  MuxStats
	faults int
	err    error
}

// RunLoad drives one load run and reports throughput plus the per-frame
// latency distribution. Each connection runs a pipelined writer/reader
// pair: the writer keeps up to Window messages in flight (flushing exactly
// when it would block), the reader matches replies — in order, as the
// protocol guarantees per connection — against a ring of send timestamps,
// so the measurement path allocates nothing per frame.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg.fill()
	if cfg.Addr == "" {
		return LoadReport{}, fmt.Errorf("server: load config needs an address")
	}
	if err := (SessionConfig{Lanes: cfg.Lanes, Beats: cfg.Beats, Scheme: cfg.Scheme}).Validate(); err != nil {
		return LoadReport{}, err
	}

	workers := make([]loadConn, cfg.Conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cfg.ChaosSeed != 0 {
				runChaosConn(cfg, i, &workers[i])
			} else {
				runLoadConn(cfg, cfg.Seed+int64(i)*7919, &workers[i])
			}
		}(i)
	}
	wg.Wait()
	duration := time.Since(start)

	rep := LoadReport{
		Scenario: "custom",
		Conns:    cfg.Conns,
		Sessions: cfg.Conns * cfg.SessionsPerConn,
		Lanes:    cfg.Lanes,
		Beats:    cfg.Beats,
	}
	var hist Histogram
	for i := range workers {
		w := &workers[i]
		if w.err != nil && !errors.Is(w.err, errLoadAborted) {
			return LoadReport{}, fmt.Errorf("server: load conn %d: %w", i, w.err)
		}
		hist.Merge(&w.hist)
		rep.Totals.add(w.totals)
		if w.openNs > rep.OpenNs {
			rep.OpenNs = w.openNs
		}
		rep.FaultsInjected += w.faults
		rep.TransientErrors += w.stats.TransientErrors
		rep.Retries += w.stats.Retries
		rep.Resumes += w.stats.Resumes
	}
	rep.ChaosSeed = cfg.ChaosSeed
	wantFrames := int64(cfg.Conns) * int64(cfg.SessionsPerConn) * int64(cfg.Frames)
	if int64(rep.Totals.Frames) != wantFrames {
		return LoadReport{}, fmt.Errorf("server: server accounted %d frames, load sent %d", rep.Totals.Frames, wantFrames)
	}
	rep.Frames = wantFrames
	rep.DurationNs = duration.Nanoseconds()
	if rep.DurationNs > 0 {
		rep.FramesPerSec = float64(rep.Frames) / duration.Seconds()
	}
	rep.MeanNs = int64(hist.Mean())
	rep.P50Ns = hist.Quantile(0.50)
	rep.P90Ns = hist.Quantile(0.90)
	rep.P95Ns = hist.Quantile(0.95)
	rep.P99Ns = hist.Quantile(0.99)
	rep.MaxNs = hist.Max()
	return rep, nil
}

// runLoadConn runs one connection's open → encode → quit lifecycle.
func runLoadConn(cfg LoadConfig, seed int64, res *loadConn) {
	nc, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		res.err = err
		return
	}
	defer nc.Close()
	r := bufio.NewReaderSize(nc, 1<<16)
	w := bufio.NewWriterSize(nc, 1<<16)
	def := SessionConfig{
		Scheme: cfg.Scheme, Alpha: cfg.Alpha, Beta: cfg.Beta,
		Lanes: cfg.Lanes, Beats: cfg.Beats,
	}
	if err := writeHandshake(w, def); err != nil {
		res.err = err
		return
	}
	if err := w.Flush(); err != nil {
		res.err = err
		return
	}
	if err := readReply(r); err != nil {
		res.err = err
		return
	}

	M := cfg.SessionsPerConn
	frames := M * cfg.Frames
	total := M + frames // windowed messages: opens, then frames
	window := cfg.Window
	if window > total {
		window = total
	}

	// Pre-serialise every message once: msgOpen per session, and one
	// reusable msgFrame per session (the payload bytes repeat frame to
	// frame; the per-lane wire state still walks, which is what is being
	// served). Nothing allocates per message after this point.
	rng := rand.New(rand.NewSource(seed))
	openMsgs := make([][]byte, M)
	frameMsgs := make([][]byte, M)
	var sidBuf [binary.MaxVarintLen64]byte
	var hdr [5]byte
	for s := 0; s < M; s++ {
		sid := sidBuf[:binary.PutUvarint(sidBuf[:], uint64(s+1))]
		body := appendConfigBody(nil, SessionConfig{Lanes: cfg.Lanes, Beats: cfg.Beats})
		putHeader(&hdr, msgOpen, len(sid)+len(body))
		openMsgs[s] = append(append(append([]byte(nil), hdr[:]...), sid...), body...)

		payload := make([]byte, cfg.Lanes*cfg.Beats)
		rng.Read(payload) //nolint:errcheck // never fails
		putHeader(&hdr, msgFrame, len(sid)+len(payload))
		frameMsgs[s] = append(append(append([]byte(nil), hdr[:]...), sid...), payload...)
	}

	base := time.Now()
	sem := make(chan struct{}, window)
	ring := make([]int64, window)
	abort := make(chan struct{})
	var failOnce sync.Once
	fail := func(err error) {
		failOnce.Do(func() {
			res.err = err
			close(abort)
			nc.Close() // unblock both sides
		})
	}

	readerDone := make(chan struct{})
	go func() { // reader: match replies in order against the send ring
		defer close(readerDone)
		var hdr [5]byte
		payload := make([]byte, 4096)
		read := func() (byte, []byte, error) {
			for {
				typ, n, err := readHeader(r, &hdr)
				if err != nil {
					return 0, nil, err
				}
				if cap(payload) < n {
					payload = make([]byte, n)
				}
				buf := payload[:n]
				if _, err := io.ReadFull(r, buf); err != nil {
					return 0, nil, err
				}
				if typ == msgSwitch {
					continue // adaptive notice; not a windowed reply
				}
				if typ == msgError {
					body := buf
					if _, k := binary.Uvarint(buf); k > 0 {
						body = buf[k:]
					}
					return 0, nil, fmt.Errorf("server error: %s", body)
				}
				return typ, buf, nil
			}
		}
		for seq := 0; seq < total; seq++ {
			typ, buf, err := read()
			if err != nil {
				fail(err)
				return
			}
			if seq < M {
				if typ != msgOpenReply {
					fail(fmt.Errorf("reply %d: type %q, want open reply", seq, typ))
					return
				}
				if _, status, text, err := parseOpenReply(buf); err != nil || status != statusOK {
					if err == nil {
						err = statusErr(status, text)
					}
					fail(err)
					return
				}
				if seq == M-1 {
					res.openNs = int64(time.Since(base))
				}
			} else {
				if typ != msgMasks {
					fail(fmt.Errorf("reply %d: type %q, want masks", seq, typ))
					return
				}
				lat := int64(time.Since(base)) - ring[seq%window]
				if seq-M >= cfg.Warmup {
					res.hist.Observe(lat)
				}
			}
			<-sem
		}
		// The quit reply: aggregate totals under session id 0.
		typ, buf, err := read()
		if err != nil {
			fail(err)
			return
		}
		if typ != msgTotalsReply {
			fail(fmt.Errorf("final reply type %q, want totals", typ))
			return
		}
		sid, k := binary.Uvarint(buf)
		if k <= 0 || sid != 0 || len(buf[k:]) != totalsLen {
			fail(fmt.Errorf("malformed aggregate totals reply"))
			return
		}
		res.totals = parseTotals(buf[k:])
	}()

	// Writer: opens, then frames round-robin over the sessions, flushing
	// exactly when the window would block (bufio flushes itself when its
	// buffer fills mid-window).
	send := func(seq int, msg []byte) error {
		select {
		case sem <- struct{}{}:
		default:
			if err := w.Flush(); err != nil {
				return err
			}
			select {
			case sem <- struct{}{}:
			case <-abort:
				return errLoadAborted
			}
		}
		ring[seq%window] = int64(time.Since(base))
		_, err := w.Write(msg)
		return err
	}
	aborted := func() bool {
		select {
		case <-abort:
			return true
		default:
			return false
		}
	}
	seq := 0
	for s := 0; s < M && !aborted(); s++ {
		if err := send(seq, openMsgs[s]); err != nil {
			fail(err)
			break
		}
		seq++
	}
	for i := 0; i < frames && !aborted(); i++ {
		if err := send(seq, frameMsgs[i%M]); err != nil {
			fail(err)
			break
		}
		seq++
	}
	quit := func() error {
		putHeader(&hdr, msgQuit, 0)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		return w.Flush()
	}
	if seq == total {
		if err := quit(); err != nil {
			fail(err)
		}
	}
	<-readerDone
}

// runChaosConn runs one connection of a chaos soak: resumable sessions
// over a fault-injected transport, strict request/response so the retry
// layer's one-in-flight-frame reconciliation applies. Totals come from the
// client-side mirror — the server validates that mirror against its own
// chain on every resume, and a fault can land inside the final close
// exchange, which makes the graceful-close totals unreliable by design.
func runChaosConn(cfg LoadConfig, connIdx int, res *loadConn) {
	inj := chaos.New(chaos.Config{Seed: cfg.ChaosSeed + int64(connIdx)*911})
	opts := MuxOptions{
		Retry: RetryConfig{
			MaxAttempts: 12,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Seed:        cfg.ChaosSeed + int64(connIdx),
		},
		Dial: inj.Dial(nil),
	}
	def := SessionConfig{
		Scheme: cfg.Scheme, Alpha: cfg.Alpha, Beta: cfg.Beta,
		Lanes: cfg.Lanes, Beats: cfg.Beats,
	}
	base := time.Now()
	c, err := DialMuxOpts(cfg.Addr, def, opts)
	if err != nil {
		res.err = err
		return
	}
	defer c.Close() //nolint:errcheck // best-effort: a fault may outlive the traffic

	M := cfg.SessionsPerConn
	sessions := make([]*MuxSession, M)
	for s := range sessions {
		scfg := def
		// Tokens are client-chosen and must be unique per server: key them
		// on (connection, session).
		scfg.ResumeToken = uint64(connIdx+1)<<32 | uint64(s+1)
		if sessions[s], err = c.Open(scfg); err != nil {
			res.err = fmt.Errorf("chaos open %d: %w", s, err)
			return
		}
	}
	res.openNs = int64(time.Since(base))

	// One deterministic frame per session, reused every round — the same
	// workload shape the pipelined path drives.
	rng := rand.New(rand.NewSource(cfg.Seed + int64(connIdx)*7919))
	frames := make([]bus.Frame, M)
	for s := range frames {
		f := make(bus.Frame, cfg.Lanes)
		for l := range f {
			b := make(bus.Burst, cfg.Beats)
			rng.Read(b) //nolint:errcheck // never fails
			f[l] = b
		}
		frames[s] = f
	}

	for i := 0; i < M*cfg.Frames; i++ {
		s := i % M
		t0 := time.Now()
		if _, err := sessions[s].EncodeFrame(frames[s]); err != nil {
			res.err = fmt.Errorf("chaos frame %d session %d: %w", i/M, s, err)
			return
		}
		if i >= cfg.Warmup {
			res.hist.Observe(int64(time.Since(t0)))
		}
	}

	for _, ms := range sessions {
		res.totals.add(ms.MirroredTotals())
		ms.Close() //nolint:errcheck // best-effort; parked leftovers expire server-side
	}
	res.stats = c.Stats()
	res.faults = inj.Faults()
}
