package server

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricsShard is one core's slice of the server counters. Connections are
// spread over the shards at accept time. The encode counters (switches
// through encodeNs) are written only when a connection settles its pending
// connAcct at a drain point — once per drain cycle, never per frame; the
// lifecycle counters move once per event. The struct is padded to two
// cache lines' worth of counters plus tail padding, keeping adjacent
// shards off each other's cache lines.
type metricsShard struct {
	conns    atomic.Int64 // connections accepted
	accepted atomic.Int64 // session opens attempted (handshake or msgOpen)
	rejected atomic.Int64 // session opens refused
	active   atomic.Int64 // sessions currently open
	adaptive atomic.Int64 // adaptive sessions opened
	switches atomic.Int64 // adaptive scheme switches, over all sessions and lanes
	frames   atomic.Int64 // frames encoded (single-frame messages)
	batches  atomic.Int64 // batch messages encoded
	bursts   atomic.Int64 // bursts encoded, over all lanes and messages
	beats    atomic.Int64 // beats encoded, over all lanes

	codedZeros  atomic.Int64
	codedToggle atomic.Int64
	rawZeros    atomic.Int64
	rawToggle   atomic.Int64

	encodeNs atomic.Int64 // connection busy time: wall time outside waits for input and drain-point flushes

	timeouts atomic.Int64 // connections killed by an idle/write deadline
	busy     atomic.Int64 // busy rejections: shed connections + refused opens
	retries  atomic.Int64 // resume attempts received (each one is a client retry)
	resumes  atomic.Int64 // sessions successfully resumed (reattached or rebuilt)
	parked   atomic.Int64 // resumable sessions currently parked
	panics   atomic.Int64 // handler panics recovered into clean teardowns

	_ [256 - 21*8%256]byte // pad to a 256-byte multiple
}

// noteConn records one accepted connection.
func (m *metricsShard) noteConn() { m.conns.Add(1) }

// noteSession records one accepted or rejected session open (a msgOpen,
// or a refused handshake).
func (m *metricsShard) noteSession(ok bool) {
	m.accepted.Add(1)
	if ok {
		m.active.Add(1)
	} else {
		m.rejected.Add(1)
	}
}

// noteClose records the end of an accepted session.
func (m *metricsShard) noteClose() { m.active.Add(-1) }

// noteAdaptive records the opening of an adaptive session.
func (m *metricsShard) noteAdaptive() { m.adaptive.Add(1) }

// noteTimeout records one connection killed by an idle/write deadline.
func (m *metricsShard) noteTimeout() { m.timeouts.Add(1) }

// noteBusy records one overload rejection (a shed connection or a refused
// session open at capacity).
func (m *metricsShard) noteBusy() { m.busy.Add(1) }

// noteResumeAttempt records one msgResume received — each is one client
// retry reaching the server, successful or not.
func (m *metricsShard) noteResumeAttempt() { m.retries.Add(1) }

// noteResumed records one session carried across a reconnect (reattached or
// rebuilt). The active gauge moves separately: a reattach pairs this with
// noteReattach, a rebuild with the ordinary noteSession.
func (m *metricsShard) noteResumed() { m.resumes.Add(1) }

// noteReattach returns a previously parked session to the active gauge.
func (m *metricsShard) noteReattach() { m.active.Add(1) }

// notePark moves a resumable session between the active and parked gauges
// (delta +1 parks, -1 unparks without reactivating — the expiry path).
func (m *metricsShard) notePark(delta int64) { m.parked.Add(delta) }

// notePanic records one handler panic recovered into a clean teardown.
func (m *metricsShard) notePanic() { m.panics.Add(1) }

// noteEncode publishes one connection's pending encode counters: one Add
// per nonzero field, once per drain cycle.
func (m *metricsShard) noteEncode(a *connAcct) {
	addNonzero(&m.frames, a.frames)
	addNonzero(&m.batches, a.batches)
	addNonzero(&m.bursts, a.bursts)
	addNonzero(&m.beats, a.beats)
	addNonzero(&m.switches, a.switches)
	addNonzero(&m.codedZeros, int64(a.coded.Zeros))
	addNonzero(&m.codedToggle, int64(a.coded.Transitions))
	addNonzero(&m.rawZeros, int64(a.raw.Zeros))
	addNonzero(&m.rawToggle, int64(a.raw.Transitions))
	addNonzero(&m.encodeNs, int64(a.busy))
}

// addNonzero adds v to c, skipping the atomic when there is nothing to add.
func addNonzero(c *atomic.Int64, v int64) {
	if v != 0 {
		c.Add(v)
	}
}

// Metrics aggregates the server-wide counters behind the HTTP /metrics
// endpoint. The counters are sharded per core (see metricsShard) and only
// summed at snapshot time; the per-scheme session counters are a
// mutex-guarded map touched once per session open, never on the frame
// path. Encode counters are published at every drain point, before the
// flush that sends the replies and the wait for more input, so a snapshot
// is exact at quiescence and never behind a reply that a client waiting
// for it holds.
type Metrics struct {
	shards []metricsShard
	next   atomic.Uint64 // round-robin shard assignment at accept

	draining atomic.Bool // set while a graceful drain is in progress

	mu       sync.Mutex
	byScheme map[string]int64 // sessions opened, by resolved scheme name
}

// init sizes the shard slice; n is rounded up to a power of two so shard
// selection is a mask, not a modulo.
func (m *Metrics) init(n int) {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	m.shards = make([]metricsShard, p)
	m.byScheme = make(map[string]int64)
}

// shard hands out the next accept's counter shard, round-robin.
func (m *Metrics) shard() *metricsShard {
	return &m.shards[m.next.Add(1)&uint64(len(m.shards)-1)]
}

// noteScheme records one session opened under the given resolved scheme
// name. Session-open granularity only: this takes a lock.
func (m *Metrics) noteScheme(scheme string) {
	m.mu.Lock()
	m.byScheme[scheme]++
	m.mu.Unlock()
}

// MetricsSnapshot is a consistent-enough point-in-time copy of the counters
// (each counter is read atomically; the set is not read under one lock,
// which is the usual contract of scrape-style metrics).
type MetricsSnapshot struct {
	// Conns counts connections accepted (each carries any number of
	// sessions).
	Conns int64
	// Accepted, Rejected and Active count session lifecycle events:
	// opens attempted, opens refused, and sessions currently open.
	Accepted, Rejected, Active int64
	// AdaptiveSessions counts adaptive sessions opened; SchemeSwitches
	// counts their controllers' scheme switches over all lanes (each
	// session's own count travels in its Totals).
	AdaptiveSessions, SchemeSwitches int64
	// Frames, Batches and Bursts count encode volume: frames encoded
	// (batch contents included), batch messages, and per-lane bursts.
	Frames, Batches, Bursts int64
	// Beats is the total beat count over all lanes and sessions.
	Beats int64
	// Coded and Raw accumulate the activity of the encoded transmissions
	// and of their uncoded baseline, over all sessions.
	Coded, Raw Cost
	// EncodeTime is connection busy time: the wall time connections spent
	// outside waiting for input and flushing replies at drain points
	// (parsing, encoding, buffering replies), summed over connections.
	EncodeTime time.Duration
	// TogglesSaved and ZerosSaved are Raw minus Coded, per component.
	TogglesSaved, ZerosSaved int64
	// NsPerBurst is EncodeTime divided by Bursts — busy nanoseconds per
	// burst served; TogglesSavedRatio is TogglesSaved over the raw
	// transition count.
	NsPerBurst, TogglesSavedRatio float64
	// ConnTimeouts counts connections killed by an idle/write deadline;
	// BusyRejections counts overload rejections (shed connections plus
	// session opens refused at capacity).
	ConnTimeouts, BusyRejections int64
	// Retries counts msgResume attempts received (every one is a client
	// retry reaching the server); Resumes counts the successful ones,
	// reattached or rebuilt. Parked is the gauge of resumable sessions
	// currently parked awaiting a resume.
	Retries, Resumes, Parked int64
	// PanicsRecovered counts handler panics converted into error frames and
	// clean session teardowns instead of crashes.
	PanicsRecovered int64
	// SessionsByScheme counts sessions opened per resolved scheme name.
	SessionsByScheme map[string]int64
	// ShardActive is the per-shard spread of Active, the load-balance
	// view /metrics exports per shard.
	ShardActive []int64
	// Draining reports whether a graceful drain is in progress.
	Draining bool
}

// Snapshot sums every shard and derives the rates.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		ShardActive: make([]int64, len(m.shards)),
		Draining:    m.draining.Load(),
	}
	for i := range m.shards {
		sh := &m.shards[i]
		s.Conns += sh.conns.Load()
		s.Accepted += sh.accepted.Load()
		s.Rejected += sh.rejected.Load()
		active := sh.active.Load()
		s.ShardActive[i] = active
		s.Active += active
		s.AdaptiveSessions += sh.adaptive.Load()
		s.SchemeSwitches += sh.switches.Load()
		s.Frames += sh.frames.Load()
		s.Batches += sh.batches.Load()
		s.Bursts += sh.bursts.Load()
		s.Beats += sh.beats.Load()
		s.Coded.Zeros += int(sh.codedZeros.Load())
		s.Coded.Transitions += int(sh.codedToggle.Load())
		s.Raw.Zeros += int(sh.rawZeros.Load())
		s.Raw.Transitions += int(sh.rawToggle.Load())
		s.EncodeTime += time.Duration(sh.encodeNs.Load())
		s.ConnTimeouts += sh.timeouts.Load()
		s.BusyRejections += sh.busy.Load()
		s.Retries += sh.retries.Load()
		s.Resumes += sh.resumes.Load()
		s.Parked += sh.parked.Load()
		s.PanicsRecovered += sh.panics.Load()
	}
	m.mu.Lock()
	s.SessionsByScheme = make(map[string]int64, len(m.byScheme))
	for k, v := range m.byScheme {
		s.SessionsByScheme[k] = v
	}
	m.mu.Unlock()
	s.TogglesSaved = int64(s.Raw.Transitions - s.Coded.Transitions)
	s.ZerosSaved = int64(s.Raw.Zeros - s.Coded.Zeros)
	if s.Bursts > 0 {
		s.NsPerBurst = float64(s.EncodeTime.Nanoseconds()) / float64(s.Bursts)
	}
	if s.Raw.Transitions > 0 {
		s.TogglesSavedRatio = float64(s.TogglesSaved) / float64(s.Raw.Transitions)
	}
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), the body of the HTTP /metrics endpoint. Only the
// stdlib is involved: the format is line-oriented text, and every value
// here is a counter or gauge — no histogram buckets to escape.
func (s MetricsSnapshot) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("dbiserve_connections_accepted_total", "Connections accepted.", s.Conns)
	counter("dbiserve_sessions_opened_total", "Session opens attempted (msgOpen and refused handshakes).", s.Accepted)
	counter("dbiserve_sessions_rejected_total", "Session opens refused.", s.Rejected)
	gauge("dbiserve_sessions_active", "Sessions currently open.", s.Active)
	counter("dbiserve_sessions_adaptive_total", "Adaptive sessions opened.", s.AdaptiveSessions)
	counter("dbiserve_scheme_switches_total", "Adaptive scheme switches over all sessions and lanes.", s.SchemeSwitches)
	counter("dbiserve_frames_encoded_total", "Frames encoded, batch contents included.", s.Frames)
	counter("dbiserve_batches_encoded_total", "Batch messages encoded.", s.Batches)
	counter("dbiserve_bursts_encoded_total", "Per-lane bursts encoded.", s.Bursts)
	counter("dbiserve_beats_encoded_total", "Beats encoded over all lanes.", s.Beats)
	counter("dbiserve_coded_zeros_total", "Transmitted zeros after coding.", int64(s.Coded.Zeros))
	counter("dbiserve_coded_transitions_total", "Wire transitions after coding.", int64(s.Coded.Transitions))
	counter("dbiserve_raw_zeros_total", "Transmitted zeros of the uncoded baseline.", int64(s.Raw.Zeros))
	counter("dbiserve_raw_transitions_total", "Wire transitions of the uncoded baseline.", int64(s.Raw.Transitions))
	counter("dbiserve_encode_ns_total", "Connection busy nanoseconds: wall time outside waits for input and drain-point reply flushes.", s.EncodeTime.Nanoseconds())
	counter("dbiserve_conn_timeouts_total", "Connections killed by an idle or write deadline.", s.ConnTimeouts)
	counter("dbiserve_busy_rejections_total", "Overload rejections: shed connections and refused session opens.", s.BusyRejections)
	counter("dbiserve_retries_total", "Resume attempts received (each is one client retry).", s.Retries)
	counter("dbiserve_resumes_total", "Sessions successfully resumed across a reconnect.", s.Resumes)
	gauge("dbiserve_sessions_parked", "Resumable sessions currently parked awaiting a resume.", s.Parked)
	counter("dbiserve_panics_recovered_total", "Handler panics recovered into clean teardowns.", s.PanicsRecovered)
	if len(s.SessionsByScheme) > 0 {
		name := "dbiserve_sessions_opened_by_scheme_total"
		fmt.Fprintf(&b, "# HELP %s Sessions opened, by resolved scheme name.\n# TYPE %s counter\n", name, name)
		schemes := make([]string, 0, len(s.SessionsByScheme))
		for k := range s.SessionsByScheme {
			schemes = append(schemes, k)
		}
		sort.Strings(schemes)
		for _, k := range schemes {
			fmt.Fprintf(&b, "%s{scheme=%q} %d\n", name, k, s.SessionsByScheme[k])
		}
	}
	if len(s.ShardActive) > 0 {
		name := "dbiserve_shard_sessions_active"
		fmt.Fprintf(&b, "# HELP %s Sessions currently open, by counter shard.\n# TYPE %s gauge\n", name, name)
		for i, v := range s.ShardActive {
			fmt.Fprintf(&b, "%s{shard=\"%d\"} %d\n", name, i, v)
		}
	}
	draining := int64(0)
	if s.Draining {
		draining = 1
	}
	gauge("dbiserve_draining", "1 while a graceful drain is in progress.", draining)
	_, err := w.Write(b.Bytes())
	return err
}
