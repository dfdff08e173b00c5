// Command dbiserve runs the batched streaming encode service: a long-lived
// TCP server that encodes framed bursts with any registered DBI scheme,
// keeping per-session wire state so results are bit-identical to the
// offline Stream/LaneSet path.
//
// Usage:
//
//	dbiserve [-addr 127.0.0.1:8421] [-scheme OPT-FIXED]
//	         [-max-conns 64] [-max-sessions 1048576]
//	         [-metrics-addr host:port]
//	         [-idle-timeout 0] [-write-timeout 0] [-shed] [-park-timeout 0]
//	         [-adapt] [-adapt-window 64] [-adapt-margin 0.05]
//	         [-adapt-schemes DC,AC,OPT-FIXED]
//
// Clients pick their own scheme, weights and bus geometry per session when
// they open it (see DESIGN.md §6 for the protocol); -scheme and
// -alpha/-beta only set the defaults used when a session requests none.
// -scheme help lists the registered names. Batch messages are parsed in
// place and encoded frame by frame on their connection's goroutine, like
// single frames; -max-conns bounds the concurrently served connections (excess connections queue in the
// kernel backlog — the connection-level backpressure contract), and
// -max-sessions bounds the logical sessions across all of them: clients
// multiplex thousands of sessions onto one connection, so the two limits
// are separate knobs.
//
// With -metrics-addr, the counters are exported over HTTP in Prometheus
// text format at /metrics, next to a /healthz probe that flips
// to 503 the moment a drain starts (so load balancers stop routing while
// the drain is watched from outside) and reports the live connection,
// session, parked-session and shed counts in its body.
//
// -idle-timeout and -write-timeout arm per-connection deadlines: a
// connection idle past the former, or one whose peer stops draining
// replies past the latter, is torn down (with a typed timeout error frame
// when the transport still accepts it) instead of pinning its slot
// forever. -shed flips the overload answer from backpressure to rejection:
// a dialer past -max-conns gets an immediate typed busy frame rather than
// queueing in the kernel backlog. Both defaults preserve the historical
// behaviour (no deadlines, backpressure). -park-timeout bounds how long a
// resumable session's server-side state survives a dead connection waiting
// for the client to reconnect and resume (DESIGN.md §6, failure model).
//
// With -adapt, sessions that request no scheme are served adaptively: a
// windowed controller per lane (DESIGN.md §7) tracks every candidate
// scheme's cost in shadow and switches the live scheme online when the
// traffic shifts, announcing each renegotiation to the client with a
// SWITCH notice. -adapt-window, -adapt-margin and -adapt-schemes set the
// defaults for sessions that leave the adaptive handshake fields zero;
// /metrics gains sessions_adaptive and scheme_switches counters, and each
// session's own switch count travels in its totals.
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting, waits
// up to -drain for in-flight sessions to finish, then prints the final
// metrics in the same Prometheus text format. A second signal (or the -drain deadline) forces the remaining
// connections closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbiopt/internal/dbi"
	"dbiopt/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dbiserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", server.DefaultAddr, "TCP listen address")
	scheme := flag.String("scheme", server.DefaultScheme, "default scheme for sessions that request none, from the dbi registry; 'help' lists names")
	alpha := flag.Float64("alpha", 1, "default transition weight for weighted schemes")
	beta := flag.Float64("beta", 1, "default zero weight for weighted schemes")
	maxConns := flag.Int("max-conns", server.DefaultMaxConns, "maximum concurrently served connections")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrently open logical sessions over all connections")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for Prometheus /metrics and /healthz (empty = no HTTP endpoint)")
	idleTimeout := flag.Duration("idle-timeout", 0, "tear down connections idle this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "tear down connections whose peer stops draining replies for this long (0 = never)")
	shed := flag.Bool("shed", false, "answer dialers past -max-conns with an immediate busy rejection instead of queueing them")
	parkTimeout := flag.Duration("park-timeout", 0, "how long a resumable session's state survives its connection for reattach (0 = default 30s)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain deadline on shutdown")
	adaptDefault := flag.Bool("adapt", false, "serve scheme-less sessions adaptively: a windowed controller switches schemes online as the traffic shifts")
	adaptWindow := flag.Int("adapt-window", 0, "adaptive decision window in bursts; 0 = default (64)")
	adaptMargin := flag.Float64("adapt-margin", 0, "adaptive hysteresis margin in [0,1); 0 = default (0.05)")
	adaptSchemes := flag.String("adapt-schemes", "", "comma-separated adaptive candidate schemes; empty = DC,AC,OPT-FIXED")
	flag.Parse()

	if *scheme == "help" {
		fmt.Println("registered schemes:", strings.Join(dbi.Names(), " "))
		return nil
	}

	var candidates []string
	if *adaptSchemes != "" {
		for _, name := range strings.Split(*adaptSchemes, ",") {
			candidates = append(candidates, strings.TrimSpace(name))
		}
	}
	srv, err := server.New(server.Config{
		Addr:            *addr,
		Scheme:          *scheme,
		Alpha:           *alpha,
		Beta:            *beta,
		MaxConns:        *maxConns,
		MaxSessions:     *maxSessions,
		MetricsAddr:     *metricsAddr,
		IdleTimeout:     *idleTimeout,
		WriteTimeout:    *writeTimeout,
		Shed:            *shed,
		ParkTimeout:     *parkTimeout,
		Adapt:           *adaptDefault,
		AdaptWindow:     *adaptWindow,
		AdaptMargin:     *adaptMargin,
		AdaptCandidates: candidates,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	mode := fmt.Sprintf("default scheme %s", *scheme)
	if *adaptDefault {
		mode = "adaptive by default"
	}
	fmt.Printf("dbiserve: listening on %s (%s, max %d conns, %d sessions)\n",
		srv.Addr(), mode, *maxConns, *maxSessions)
	if ma := srv.MetricsAddr(); ma != nil {
		fmt.Printf("dbiserve: metrics on http://%s/metrics\n", ma)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	s := <-sig
	fmt.Printf("dbiserve: %v — draining (deadline %s; signal again to force)\n", s, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	go func() {
		<-sig
		cancel()
	}()
	err = srv.Shutdown(ctx)
	cancel()
	if perr := srv.Metrics().Snapshot().WritePrometheus(os.Stdout); perr != nil {
		fmt.Fprintln(os.Stderr, "dbiserve: rendering metrics:", perr)
	}
	if err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	return nil
}
