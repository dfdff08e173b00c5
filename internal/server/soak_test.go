package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbiopt/internal/racetag"
)

// TestServeSoakChurn is the serving tier's soak: several workers churn
// multiplexed connections — open sessions across all shards, encode,
// close some explicitly, tear the connection down — while the Prometheus
// endpoint is scraped continuously, by a dedicated scraper and by the
// churners themselves mid-traffic; then a graceful drain starts while a
// session is still open, the health probe flips to 503, and after
// everything settles the process is back to its pre-server goroutine count
// (nothing leaked per connection, session, shard, or scrape). Runtime is
// ~2s.
func TestServeSoakChurn(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, err := New(Config{Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0", MaxConns: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()
	addr := s.Addr().String()
	murl := "http://" + s.MetricsAddr().String()

	churn := 1500 * time.Millisecond
	if racetag.Enabled {
		churn = 1 * time.Second
	}
	deadline := time.Now().Add(churn)
	workers := 6
	if racetag.Enabled {
		workers = 4
	}

	httpc := &http.Client{Transport: &http.Transport{}}
	defer httpc.CloseIdleConnections()
	get := func(path string) (int, string, error) {
		resp, err := httpc.Get(murl + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}

	// Scraper: hammer /metrics for the whole churn phase; every response
	// must be a well-formed exposition with the core counters present.
	var scrapes atomic.Int64
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			code, body, err := get("/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if code != http.StatusOK {
				t.Errorf("scrape: status %d", code)
				return
			}
			for _, want := range []string{"dbiserve_frames_encoded_total", "dbiserve_sessions_active", "dbiserve_shard_sessions_active{shard=\"0\"}"} {
				if !strings.Contains(body, want) {
					t.Errorf("scrape: %q missing from exposition", want)
					return
				}
			}
			scrapes.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Churners: each iteration is a full connection lifecycle with enough
	// sessions to land on every shard, half closed explicitly and half
	// left for connection teardown to reap, plus a /metrics scrape while
	// the sessions are open.
	var frames atomic.Int64
	errs := make(chan error, workers)
	var churnWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			fs := randomFrames(int64(500+w), 4, 1, 8)
			one := func(it int) error {
				mc, err := DialMux(addr, SessionConfig{Lanes: 1, Beats: 8})
				if err != nil {
					return fmt.Errorf("dial: %w", err)
				}
				defer mc.Close()
				sessions := make([]*MuxSession, 0, 16)
				for i := 0; i < 16; i++ {
					cfg := SessionConfig{Scheme: "DC", Lanes: 1, Beats: 8}
					if i%5 == 0 {
						cfg = adaptSession(1, 8)
					}
					ms, err := mc.Open(cfg)
					if err != nil {
						return fmt.Errorf("open %d: %w", i, err)
					}
					sessions = append(sessions, ms)
				}
				for i, ms := range sessions {
					if _, err := ms.EncodeFrame(fs[i%len(fs)]); err != nil {
						return fmt.Errorf("frame: %w", err)
					}
					frames.Add(1)
				}
				if it%4 == 0 {
					code, body, err := get("/metrics")
					if err != nil || code != http.StatusOK || !strings.Contains(body, "dbiserve_sessions_active") {
						return fmt.Errorf("mid-traffic scrape: status %d, err %v", code, err)
					}
				}
				for i, ms := range sessions {
					if i%2 == 0 {
						if _, err := ms.Close(); err != nil {
							return fmt.Errorf("session close: %w", err)
						}
					}
				}
				return nil
			}
			for it := 0; time.Now().Before(deadline); it++ {
				if err := one(it); err != nil {
					errs <- fmt.Errorf("worker %d iteration %d: %w", w, it, err)
					return
				}
			}
		}(w)
	}
	churnWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if scrapes.Load() == 0 {
		t.Error("scraper never completed a scrape during churn")
	}
	if frames.Load() == 0 {
		t.Error("churners never encoded a frame")
	}

	// Drain while a session is still open: health must flip to 503 while
	// the drain is in progress, and Shutdown must complete once the last
	// client lets go.
	if code, _, err := get("/healthz"); err != nil || code != http.StatusOK {
		t.Fatalf("healthz before drain: %d, %v", code, err)
	}
	holder, err := DialMux(addr, SessionConfig{Lanes: 1, Beats: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Open(SessionConfig{Scheme: "DC", Lanes: 1, Beats: 8}); err != nil {
		t.Fatal(err)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for {
		code, body, err := get("/healthz")
		if err != nil {
			t.Fatalf("healthz during drain: %v", err)
		}
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "draining") {
				t.Fatalf("healthz 503 body %q", body)
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopScrape)
	scrapeWG.Wait()
	if _, err := holder.Close(); err != nil {
		t.Fatalf("holder close: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	closed = true

	// Everything torn down: the goroutine count must settle back to the
	// pre-server baseline (plus slack for runtime helpers that linger).
	httpc.CloseIdleConnections()
	settleBy := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(settleBy) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSoakWithLiveMetrics is the fault-injection soak: a chaos load
// run (seeded transport kills, resumable sessions, reconnect + resume)
// against a server with deadlines and shedding enabled, while /metrics is
// scraped continuously and /healthz reports the live occupancy counts.
// Every frame must complete despite the faults, and the fault/recovery
// counters must land in the Prometheus exposition. Race-clean by
// construction — run under -race in CI's chaos-smoke job.
func TestChaosSoakWithLiveMetrics(t *testing.T) {
	s, err := New(Config{
		Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0",
		MaxConns: 32, Shed: true,
		IdleTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second,
		ParkTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	murl := "http://" + s.MetricsAddr().String()

	httpc := &http.Client{Transport: &http.Transport{}}
	defer httpc.CloseIdleConnections()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := httpc.Get(murl + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	var scrapes atomic.Int64
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			if code, body := get("/metrics"); code != http.StatusOK ||
				!strings.Contains(body, "dbiserve_resumes_total") {
				t.Errorf("scrape: status %d", code)
				return
			}
			scrapes.Add(1)
		}
	}()

	frames := 400
	if racetag.Enabled {
		frames = 150
	}
	rep, err := RunLoad(LoadConfig{
		Addr: s.Addr().String(), Conns: 2, SessionsPerConn: 6,
		Frames: frames, Lanes: 4, Beats: 16, Scheme: "ACDC",
		ChaosSeed: 7,
	})
	close(stopScrape)
	scrapeWG.Wait()
	if err != nil {
		t.Fatalf("chaos load run: %v", err)
	}
	if rep.FaultsInjected == 0 || rep.Resumes == 0 {
		t.Fatalf("soak injected %d faults, %d resumes — schedule too sparse to test anything",
			rep.FaultsInjected, rep.Resumes)
	}
	if scrapes.Load() == 0 {
		t.Fatal("metrics endpoint was never scraped during the soak")
	}

	// The exposition and the health body must reflect the chaos traffic.
	_, body := get("/metrics")
	for _, want := range []string{"dbiserve_retries_total", "dbiserve_resumes_total", "dbiserve_sessions_parked"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Resumes < int64(rep.Resumes) {
		t.Errorf("server counted %d resumes, client %d", snap.Resumes, rep.Resumes)
	}
	code, hb := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	for _, want := range []string{"ok", "conns ", "sessions ", "parked ", "shed "} {
		if !strings.Contains(hb, want) {
			t.Errorf("healthz body %q lacks %q", hb, want)
		}
	}
}
