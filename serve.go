package dbiopt

import (
	"dbiopt/internal/chaos"
	"dbiopt/internal/server"
)

// Serving layer: dbiserve as a library. Serve starts a batched streaming
// encode service; Dial opens a client session against one. See DESIGN.md §6
// for the wire protocol and the session/backpressure contracts, and
// cmd/dbiserve for the stand-alone binary.
type (
	// Server is a long-lived TCP encode service: per-session scheme
	// selection by registry name, persistent per-lane wire state, batch
	// messages parsed in place and encoded frame by frame, graceful drain
	// on shutdown.
	Server = server.Server
	// ServerConfig configures a Server (address, default scheme,
	// connection and session caps, deadlines, adaptive defaults).
	ServerConfig = server.Config
	// Client is one v2 session against a Server: one scheme, one
	// continuous per-lane wire state. Not safe for concurrent use; for
	// concurrency open more clients or multiplex with a MuxClient.
	Client = server.Client
	// MuxClient is a protocol-v3 multiplexed connection: thousands of
	// logical sessions — each with its own scheme, geometry and wire
	// state — share one socket, opened with Open. Safe for concurrent use.
	MuxClient = server.MuxClient
	// MuxSession is one logical session of a MuxClient; it speaks the
	// same encode surface as Client (EncodeFrame, EncodeBatch, Totals,
	// Close) and is bit-identical to a dedicated v2 connection.
	MuxSession = server.MuxSession
	// SessionConfig is the per-session handshake: scheme name, weights,
	// bus geometry (lanes × beats), and the optional adaptive-session
	// request (Adapt, AdaptWindow, AdaptMargin, AdaptCandidates).
	SessionConfig = server.SessionConfig
	// SessionTotals is a session's cumulative activity accounting, coded
	// versus the uncoded baseline (plus the adaptive switch count).
	SessionTotals = server.Totals
	// SessionSwitch is one SWITCH notice of an adaptive session: the
	// server renegotiated the live scheme on one lane mid-stream (see
	// Client.Switches).
	SessionSwitch = server.SwitchNote
	// ServerMetrics is the server-wide counter set (bursts, toggles
	// saved, ns/burst, session lifecycle), aggregated from the per-core
	// shards; WritePrometheus renders it in exposition format.
	ServerMetrics = server.MetricsSnapshot
	// LoadConfig parameterizes a load-generator run: connections,
	// multiplexed sessions per connection, frames, geometry, in-flight
	// window.
	LoadConfig = server.LoadConfig
	// LoadReport is a load run's outcome: throughput plus p50/p90/p95/p99
	// frame latency from an allocation-free fixed-bucket histogram.
	LoadReport = server.LoadReport
	// LatencyHistogram is the fixed-bucket log-linear histogram the load
	// generator records into (16 sub-buckets per power of two, ~6%
	// quantile resolution, allocation-free Observe).
	LatencyHistogram = server.Histogram
	// MuxOptions bundles DialMuxOpts's fault-tolerance knobs: the retry
	// policy and a dial override (the chaos harness's injection point).
	MuxOptions = server.MuxOptions
	// RetryConfig is a MuxClient's reconnect policy: attempt cap,
	// exponential backoff bounds, seeded jitter. The zero value disables
	// reconnection.
	RetryConfig = server.RetryConfig
	// MuxStats counts a MuxClient's brushes with failure: transient
	// errors entered, reconnect attempts, sessions resumed.
	MuxStats = server.MuxStats
	// ChaosConfig configures a ChaosInjector: schedule seed, byte-offset
	// gap bounds between injected connection kills, fault cap, delay cap.
	ChaosConfig = chaos.Config
	// ChaosInjector draws deterministic fault plans for the connections
	// it wraps; its Dial method adapts any dialer into MuxOptions.Dial.
	ChaosInjector = chaos.Injector
)

// The serving error taxonomy, re-exported so callers classify failures
// with errors.Is against the facade alone. The operational split is
// transient (worth a backoff-and-retry: ErrBusy, ErrDraining, ErrTimeout)
// versus fatal (identical on every retry: ErrResumeMismatch,
// ErrSessionLost) — IsTransient encodes it.
var (
	ErrBusy           = server.ErrBusy
	ErrDraining       = server.ErrDraining
	ErrTimeout        = server.ErrTimeout
	ErrResumeMismatch = server.ErrResumeMismatch
	ErrSessionLost    = server.ErrSessionLost
)

// IsTransient reports whether err is worth a backoff-and-retry: the typed
// transient sentinels plus anything that smells like a dead transport.
func IsTransient(err error) bool {
	return server.IsTransient(err)
}

// NewChaosInjector builds a seeded fault injector for resilience testing:
// wrap a MuxOptions.Dial with Injector.Dial and every connection the
// client makes (reconnects included) dies at deterministic, seed-replayable
// byte offsets. See cmd/dbiload -chaos for the packaged harness.
func NewChaosInjector(cfg ChaosConfig) *ChaosInjector {
	return chaos.New(cfg)
}

// Serve starts a dbiserve instance: it binds cfg.Addr (the zero config
// binds server.DefaultAddr with the OPT-FIXED default scheme) and accepts
// sessions on a background goroutine. The returned server reports its bound
// address via Addr and stops via Shutdown (graceful drain) or Close (hard).
func Serve(cfg ServerConfig) (*Server, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dial opens a session against a dbiserve instance. The session's encode
// results are bit-identical to running the same frames through a local
// LaneSet with the same scheme: the server is the offline path, served.
func Dial(addr string, cfg SessionConfig) (*Client, error) {
	return server.Dial(addr, cfg)
}

// DialMux opens a protocol-v3 multiplexed connection against a dbiserve
// instance. def sets the connection's default geometry and weights;
// sessions are then opened with MuxClient.Open, each bit-identical to a
// dedicated v2 connection with the same configuration.
func DialMux(addr string, def SessionConfig) (*MuxClient, error) {
	return server.DialMux(addr, def)
}

// DialMuxOpts is DialMux with fault tolerance: a reconnect policy and an
// optional dial override. With opts.Retry enabled and sessions opened with
// a nonzero SessionConfig.ResumeToken, a transient mid-stream failure is
// recovered transparently — the client redials with backoff, resumes every
// resumable session via its mirrored wire state, reconciles the one frame
// in flight, and the wire sequence continues bit-identically.
func DialMuxOpts(addr string, def SessionConfig, opts MuxOptions) (*MuxClient, error) {
	return server.DialMuxOpts(addr, def, opts)
}

// RunLoad drives a load-generation run against a dbiserve instance:
// cfg.Conns multiplexed connections × cfg.SessionsPerConn sessions each,
// frames pipelined under a bounded in-flight window, every frame's
// latency recorded allocation-free. See cmd/dbiload for the stand-alone
// binary and the CI-gated scenarios.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	return server.RunLoad(cfg)
}
