package server

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbiopt/internal/stats"
)

// metricsShard is one core's slice of the server counters. Connections are
// spread over the shards at accept time, so the frame hot path increments
// counters no other core is writing — the same shard-per-core layout the
// session table uses. The struct is padded to two cache lines' worth of
// counters plus tail padding, keeping adjacent shards off each other's
// cache lines (the false-sharing half of the bargain; the no-contention
// half is the accept-time spreading).
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

	encodeNs atomic.Int64 // wall time spent in encode handlers

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

// noteSession records one accepted or rejected session open (a v2
// handshake or a mux msgOpen).
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

// noteSwitch records one adaptive scheme switch (any session, any lane).
func (m *metricsShard) noteSwitch() { m.switches.Add(1) }

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

// noteEncode records one encode handler invocation: frames and bursts
// processed, the activity deltas, and the time spent. batch distinguishes
// batch messages from single-frame messages.
func (m *metricsShard) noteEncode(batch bool, frames, bursts, beats int, coded, raw Cost, d time.Duration) {
	if batch {
		m.batches.Add(1)
	}
	m.frames.Add(int64(frames))
	m.bursts.Add(int64(bursts))
	m.beats.Add(int64(beats))
	m.codedZeros.Add(int64(coded.Zeros))
	m.codedToggle.Add(int64(coded.Transitions))
	m.rawZeros.Add(int64(raw.Zeros))
	m.rawToggle.Add(int64(raw.Transitions))
	m.encodeNs.Add(int64(d))
}

// Metrics aggregates the server-wide counters behind the msgMetrics reply
// and the HTTP /metrics endpoint. The hot counters are sharded per core
// (see metricsShard) and only summed at snapshot time; the per-scheme
// session counters are a mutex-guarded map touched once per session open,
// never on the frame path.
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
	// Conns counts connections accepted (a mux connection carries many
	// sessions; a v2 connection exactly one).
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
	// EncodeTime is the wall time spent inside encode handlers.
	EncodeTime time.Duration
	// TogglesSaved and ZerosSaved are Raw minus Coded, per component.
	TogglesSaved, ZerosSaved int64
	// NsPerBurst is EncodeTime divided by Bursts; TogglesSavedRatio is
	// TogglesSaved over the raw transition count.
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

// WriteText renders the snapshot as an aligned counter table (via
// stats.Table), the textual export the msgMetrics message and dbiserve's
// shutdown summary print.
func (s MetricsSnapshot) WriteText(buf *bytes.Buffer) error {
	tbl := &stats.Table{Title: "dbiserve metrics", Columns: []string{"counter", "value"}}
	rows := []struct {
		name  string
		value string
	}{
		{"connections_accepted", fmt.Sprint(s.Conns)},
		{"sessions_accepted", fmt.Sprint(s.Accepted)},
		{"sessions_rejected", fmt.Sprint(s.Rejected)},
		{"sessions_active", fmt.Sprint(s.Active)},
		{"sessions_adaptive", fmt.Sprint(s.AdaptiveSessions)},
		{"scheme_switches", fmt.Sprint(s.SchemeSwitches)},
		{"frames_encoded", fmt.Sprint(s.Frames)},
		{"batches_encoded", fmt.Sprint(s.Batches)},
		{"bursts_encoded", fmt.Sprint(s.Bursts)},
		{"beats_encoded", fmt.Sprint(s.Beats)},
		{"coded_zeros", fmt.Sprint(s.Coded.Zeros)},
		{"coded_transitions", fmt.Sprint(s.Coded.Transitions)},
		{"raw_zeros", fmt.Sprint(s.Raw.Zeros)},
		{"raw_transitions", fmt.Sprint(s.Raw.Transitions)},
		{"toggles_saved", fmt.Sprint(s.TogglesSaved)},
		{"toggles_saved_ratio", fmt.Sprintf("%.4f", s.TogglesSavedRatio)},
		{"zeros_saved", fmt.Sprint(s.ZerosSaved)},
		{"encode_ns_total", fmt.Sprint(s.EncodeTime.Nanoseconds())},
		{"encode_ns_per_burst", fmt.Sprintf("%.1f", s.NsPerBurst)},
		{"conn_timeouts", fmt.Sprint(s.ConnTimeouts)},
		{"busy_rejections", fmt.Sprint(s.BusyRejections)},
		{"retries_total", fmt.Sprint(s.Retries)},
		{"resumes", fmt.Sprint(s.Resumes)},
		{"sessions_parked", fmt.Sprint(s.Parked)},
		{"panics_recovered", fmt.Sprint(s.PanicsRecovered)},
	}
	for _, r := range rows {
		if err := tbl.AddRow(r.name, r.value); err != nil {
			return err
		}
	}
	return tbl.WriteText(buf)
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
	counter("dbiserve_sessions_opened_total", "Session opens attempted (handshakes and msgOpen).", s.Accepted)
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
	counter("dbiserve_encode_ns_total", "Wall nanoseconds spent in encode handlers.", s.EncodeTime.Nanoseconds())
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
