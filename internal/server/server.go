package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbiopt/internal/adapt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
)

// Cost is the activity accounting unit of the serving layer, re-exported so
// server callers read totals in the same vocabulary as the offline drivers.
type Cost = bus.Cost

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:8421". Empty selects
	// DefaultAddr.
	Addr string
	// MetricsAddr, when non-empty, binds an HTTP listener exporting the
	// server counters in Prometheus text format at /metrics (plus a
	// /healthz probe that turns 503 during a drain). The listener stays up
	// through Shutdown so a drain can be watched from outside.
	MetricsAddr string
	// Scheme is the default scheme name for sessions whose handshake names
	// none. Empty selects DefaultScheme.
	Scheme string
	// Alpha and Beta are the default weights for sessions that send none
	// (both zero in the handshake). Both zero here selects 1, 1.
	Alpha, Beta float64
	// MaxConns caps the concurrently served connections; <= 0 selects
	// DefaultMaxConns. Connections beyond the cap are not accepted until
	// one ends — they queue in the kernel backlog, which is the
	// connection-level half of the backpressure contract. A multiplexed
	// connection counts once however many sessions it carries; MaxSessions
	// bounds those.
	MaxConns int
	// MaxSessions caps the logical sessions open at once over all
	// connections; <= 0 selects DefaultMaxSessions. Opens beyond the cap
	// are rejected with a busy msgOpenReply rather than queued: a client
	// saturating the session table gets told, not stalled.
	MaxSessions int

	// IdleTimeout bounds how long a connection may sit between messages
	// (including mid-message stalls: the deadline covers every read).
	// Zero disables the read deadline — the seed behaviour.
	IdleTimeout time.Duration
	// WriteTimeout is the extra headroom a reply gets past the idle
	// budget to drain to the client. Zero disables the write deadline.
	WriteTimeout time.Duration
	// Shed switches the overload answer from queueing to telling: with
	// Shed set, a dialer beyond MaxConns is accepted just long enough to
	// receive a typed busy frame and is then closed, instead of waiting
	// indefinitely in the kernel backlog; connections arriving during a
	// drain get a draining frame the same way. Off by default — the
	// backpressure contract of the zero Config is unchanged.
	Shed bool
	// ParkTimeout bounds how long a resumable session stays claimable
	// after its connection dies before its state (and MaxSessions slot)
	// is released. <= 0 selects DefaultParkTimeout.
	ParkTimeout time.Duration

	// Adapt makes sessions that request no scheme adaptive by default:
	// they run the internal/adapt windowed controller per lane over the
	// server's candidate set instead of one fixed scheme. Sessions that
	// set SessionConfig.Adapt are adaptive regardless of this flag.
	Adapt bool
	// AdaptWindow, AdaptMargin and AdaptCandidates are the server-side
	// defaults for adaptive sessions that leave the corresponding
	// handshake fields zero. Their own zero values defer to the
	// internal/adapt defaults (window 64, margin 0.05, candidates
	// DC/AC/OPT-FIXED).
	AdaptWindow     int
	AdaptMargin     float64
	AdaptCandidates []string
}

// Defaults for the zero Config.
const (
	DefaultAddr        = "127.0.0.1:8421"
	DefaultScheme      = "OPT-FIXED"
	DefaultMaxConns    = 64
	DefaultMaxSessions = 1 << 20
)

// connShard is one shard of the live-connection table. Connections are
// assigned round-robin at accept time; after that a connection only ever
// touches its own shard, so the per-shard mutexes never see cross-core
// contention on the frame path (they are not on the frame path at all —
// only accept and teardown lock them). Padded so adjacent shards do not
// share cache lines.
type connShard struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	_     [112]byte
}

// Server is a long-lived encode service. Construct with New, start with
// Start (or Serve on an existing listener), stop with Shutdown or Close.
type Server struct {
	cfg     Config
	metrics Metrics

	shards    []connShard
	acceptSeq atomic.Uint64
	sessions  atomic.Int64 // open logical sessions, bounded by MaxSessions

	mu   sync.Mutex
	lis  net.Listener
	mlis net.Listener
	msrv *http.Server
	done chan struct{} // closed when the accept loop exits

	metricsOnce sync.Once // closes the metrics listener exactly once

	// resume is the token registry: every resumable session, attached or
	// parked, keyed by its ResumeToken. Guarded by resumeMu — resume
	// traffic is rare (reconnects), so one mutex suffices.
	resumeMu sync.Mutex
	resume   map[uint64]*resumeEntry

	wg sync.WaitGroup // live connection handlers
}

// nextPow2 rounds n up to a power of two (minimum 1), so shard selection
// is a mask instead of a modulo.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New validates cfg, fills its defaults and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = DefaultAddr
	}
	if cfg.Scheme == "" {
		cfg.Scheme = DefaultScheme
	}
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = 1, 1
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.ParkTimeout <= 0 {
		cfg.ParkTimeout = DefaultParkTimeout
	}
	// Fail at construction, not at the first handshake, if the default
	// scheme cannot be built.
	if _, err := dbi.Lookup(cfg.Scheme, dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta}); err != nil {
		return nil, fmt.Errorf("server: default scheme: %w", err)
	}
	// Same for the adaptive defaults: an unusable candidate set or margin
	// must not wait for a session to surface.
	if err := (adapt.Config{
		Candidates: cfg.AdaptCandidates,
		Weights:    dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta},
		Window:     cfg.AdaptWindow,
		Margin:     cfg.AdaptMargin,
	}).Validate(); err != nil {
		return nil, fmt.Errorf("server: adaptive defaults: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		shards: make([]connShard, nextPow2(runtime.GOMAXPROCS(0))),
		done:   make(chan struct{}),
		resume: make(map[uint64]*resumeEntry),
	}
	for i := range s.shards {
		s.shards[i].conns = make(map[net.Conn]struct{})
	}
	s.metrics.init(len(s.shards))
	return s, nil
}

// Metrics returns the server's live counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Addr returns the bound listen address, or nil before Start/Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// MetricsAddr returns the bound metrics-endpoint address, or nil when no
// MetricsAddr was configured (or before Start/Serve).
func (s *Server) MetricsAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mlis == nil {
		return nil
	}
	return s.mlis.Addr()
}

// Start binds the configured address and serves it on a background
// goroutine. It returns once the listener is bound and registered, so Addr
// is valid (and clients may dial) immediately after.
func (s *Server) Start() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := s.register(lis); err != nil {
		lis.Close()
		return err
	}
	go s.serve(lis)
	return nil
}

// Serve accepts connections on lis until the listener fails or
// Shutdown/Close is called. The accept loop admits at most MaxConns
// concurrent connections; excess connections wait in the kernel's accept
// backlog.
func (s *Server) Serve(lis net.Listener) error {
	if err := s.register(lis); err != nil {
		lis.Close()
		return err
	}
	return s.serve(lis)
}

// register installs the listener (a server serves exactly one listener in
// its lifetime) and, when configured, binds the metrics endpoint.
func (s *Server) register(lis net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics.draining.Load() {
		return errors.New("server: already shut down")
	}
	if s.lis != nil {
		return errors.New("server: already serving")
	}
	if s.cfg.MetricsAddr != "" && s.mlis == nil {
		mlis, err := net.Listen("tcp", s.cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("server: metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", s.serveMetricsHTTP)
		mux.HandleFunc("/healthz", s.serveHealthz)
		s.mlis = mlis
		s.msrv = &http.Server{Handler: mux}
		go s.msrv.Serve(mlis)
	}
	s.lis = lis
	return nil
}

// serveMetricsHTTP is the GET /metrics handler: the aggregated counter
// snapshot in Prometheus text exposition format.
func (s *Server) serveMetricsHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Snapshot().WritePrometheus(w)
}

// serveHealthz is the GET /healthz handler: 200 while serving, 503 once a
// drain begins (load balancers stop routing; scrapes keep working). The
// body carries the saturation gauges either way, so a probe shows how
// loaded — or how far through a drain — the server is.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.metrics.draining.Load() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		status = "draining"
	}
	conns := 0
	for i := range s.shards {
		shard := &s.shards[i]
		shard.mu.Lock()
		conns += len(shard.conns)
		shard.mu.Unlock()
	}
	snap := s.metrics.Snapshot()
	fmt.Fprintf(w, "%s\nconns %d\nsessions %d\nparked %d\nshed %d\n",
		status, conns, s.sessions.Load(), snap.Parked, snap.BusyRejections)
}

// serve is the accept loop over a registered listener.
func (s *Server) serve(lis net.Listener) error {
	defer close(s.done)

	sem := make(chan struct{}, s.cfg.MaxConns)
	for {
		if s.cfg.Shed {
			// Shedding mode: when the server is saturated, keep pulling
			// connections off the backlog and answer each with a typed
			// busy frame instead of letting dialers queue indefinitely
			// behind a semaphore nobody may ever release.
			select {
			case sem <- struct{}{}:
			default:
				conn, err := lis.Accept()
				if err != nil {
					if s.metrics.draining.Load() {
						return nil
					}
					return err
				}
				go s.shed(conn, statusBusy, "server: connection limit reached")
				continue
			}
		} else {
			// Admission control before Accept: a full server stops pulling
			// connections off the backlog entirely.
			sem <- struct{}{}
		}
		conn, err := lis.Accept()
		if err != nil {
			<-sem
			if s.metrics.draining.Load() {
				return nil
			}
			return err
		}
		shard := &s.shards[s.acceptSeq.Add(1)&uint64(len(s.shards)-1)]
		if !s.track(shard, conn) {
			if s.cfg.Shed {
				go s.shed(conn, statusDraining, "server: draining")
			} else {
				conn.Close()
			}
			<-sem
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer func() {
				s.untrack(shard, conn)
				conn.Close()
				s.wg.Done()
				<-sem
			}()
			s.handle(conn)
		}()
	}
}

// shed refuses one connection with a typed busy/draining frame: a bounded
// write under a short absolute deadline, then close. Runs on its own
// goroutine so a dialer that never reads cannot stall the accept loop.
func (s *Server) shed(conn net.Conn, status byte, msg string) {
	s.metrics.shard().noteBusy()
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	conn.Write(appendBusyFrame(nil, status, msg))          //nolint:errcheck
	conn.Close()
}

// track registers a live connection in its shard; it refuses (returning
// false) once the server is draining.
func (s *Server) track(shard *connShard, conn net.Conn) bool {
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if s.metrics.draining.Load() {
		return false
	}
	shard.conns[conn] = struct{}{}
	return true
}

// untrack removes a finished connection from its shard.
func (s *Server) untrack(shard *connShard, conn net.Conn) {
	shard.mu.Lock()
	defer shard.mu.Unlock()
	delete(shard.conns, conn)
}

// reserveSession claims one slot of the MaxSessions budget; the caller must
// releaseSession when the session ends.
func (s *Server) reserveSession() bool {
	if s.sessions.Add(1) > int64(s.cfg.MaxSessions) {
		s.sessions.Add(-1)
		return false
	}
	return true
}

// releaseSession returns one MaxSessions slot.
func (s *Server) releaseSession() { s.sessions.Add(-1) }

// Shutdown drains the server gracefully: it stops accepting, then waits for
// every in-flight connection to finish — a connection finishes when its
// client sends msgQuit or closes, so long-lived clients must be told to go
// away out of band (or the caller bounds the wait with ctx). When ctx
// expires the remaining connections are closed hard, as Close does. The
// metrics endpoint keeps answering until the drain completes, so the drain
// itself is observable; it is closed before Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeListener()
	defer s.closeMetricsListener()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		s.dropParked()
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-finished
		s.dropParked()
		return ctx.Err()
	}
}

// Close stops the server immediately: the listeners and every live
// connection are closed without waiting for in-flight work.
func (s *Server) Close() error {
	s.closeListener()
	s.closeConns()
	s.wg.Wait()
	s.dropParked()
	s.closeMetricsListener()
	return nil
}

// closeListener marks the server draining and closes the session listener,
// which unblocks the accept loop. The metrics listener is left up.
func (s *Server) closeListener() {
	s.metrics.draining.Store(true)
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
}

// closeMetricsListener tears down the metrics endpoint, if one was bound.
func (s *Server) closeMetricsListener() {
	s.metricsOnce.Do(func() {
		s.mu.Lock()
		msrv := s.msrv
		s.mu.Unlock()
		if msrv != nil {
			msrv.Close()
		}
	})
}

// closeConns closes every live connection, shard by shard.
func (s *Server) closeConns() {
	for i := range s.shards {
		shard := &s.shards[i]
		shard.mu.Lock()
		conns := make([]net.Conn, 0, len(shard.conns))
		for c := range shard.conns {
			conns = append(conns, c)
		}
		shard.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// handle runs one connection: handshake, then the message loop until quit,
// client close, or a connection-fatal protocol error. The connection's
// counter shard is chosen here, once, so everything the connection records
// lands on one shard; whatever it has not yet published when it ends is
// settled on the way out.
func (s *Server) handle(nc net.Conn) {
	m := s.metrics.shard()
	m.noteConn()
	if s.cfg.IdleTimeout > 0 {
		// The handshake gets one absolute deadline before any protocol
		// state exists; newConn re-arms the steady-state budgets after it.
		nc.SetDeadline(time.Now().Add(s.cfg.IdleTimeout)) //nolint:errcheck
	}
	c, err := s.newConn(nc, m)
	if err != nil {
		// A failed handshake counts as a refused session open: a client
		// whose handshake cannot be parsed never gets to open one.
		m.noteSession(false)
		return
	}
	defer func() { c.settle(time.Now()) }()
	defer c.closeAll()
	defer func() {
		// A panicking handler takes down its connection, not the server:
		// the panic is counted, the client told best-effort, and the
		// deferred closeAll tears the sessions down (poisoned vetoes
		// parking — a session that panicked mid-encode has unspecified
		// state and must not be resumed into).
		if r := recover(); r != nil {
			m.notePanic()
			c.poisoned = true
			nc.SetWriteDeadline(time.Now().Add(2 * time.Second))    //nolint:errcheck
			c.connFail(fmt.Errorf("server: internal panic: %v", r)) //nolint:errcheck
		}
	}()
	c.loop()
}
