package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"dbiopt/internal/adapt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/trace"
)

// conn is the server side of one connection: the negotiated protocol
// version, the framing state, and the open sessions. A v2 (or non-mux v3)
// connection carries exactly one implicit session; a mux connection a
// whole table of them, opened and closed by msgOpen/msgCloseSess.
type conn struct {
	srv *Server
	m   *metricsShard // this connection's counter shard
	nc  net.Conn      // the transport; nil in unit tests that drive the loop directly
	r   *bufio.Reader
	w   *bufio.Writer

	version int
	mux     bool

	// idle and writeTO are the connection's deadline budgets (zero =
	// disabled). Re-arming a deadline costs a syscall, so arm() amortises:
	// deadlines are pushed forward only once armEvery (a quarter of the
	// smaller budget) has elapsed since lastArm, keeping the steady-state
	// frame path syscall-free while every read and write stays bounded.
	idle     time.Duration
	writeTO  time.Duration
	armEvery time.Duration
	lastArm  time.Time

	// quit marks a deliberate client departure (msgQuit); poisoned marks a
	// recovered panic, after which session state is unspecified. Either
	// flag vetoes parking in closeAll — resumable sessions park only when
	// the connection dies under them.
	quit     bool
	poisoned bool
	// def holds the connection's session defaults: for a mux connection
	// the handshake config (weights already resolved against the server),
	// for a single-session connection just the server weights.
	def SessionConfig

	single   *sessState            // the implicit session of a non-mux connection
	sessions map[uint64]*sessState // open sessions of a mux connection, by id

	// Reusable scratch shared by every session on the connection — the
	// message loop is single-goroutine, so one set suffices: hdr is the
	// header, sidBuf the session-id prefix of mux replies, totalsBuf the
	// serialised Totals, noticeBuf the switch/open-reply serialisation
	// scratch, batchBuf the (grown on demand) payload buffer of batches and
	// the non-hot messages, batchFrame the frame of views into batchBuf a
	// batch encodes through (grown to the widest session's lane count).
	hdr        [5]byte
	sidBuf     [binary.MaxVarintLen64]byte
	totalsBuf  [totalsLen]byte
	noticeBuf  []byte
	batchBuf   []byte
	batchFrame bus.Frame
}

// sessState is one logical session: the resolved scheme, the persistent
// per-lane encode state, and the per-session buffers that keep the
// single-frame path allocation-free in steady state.
type sessState struct {
	id     uint64
	m      *metricsShard
	cfg    SessionConfig // resolved geometry and weights
	scheme string        // resolved registry name
	ls     *dbi.LaneSet  // the session's per-lane streams — all encode state

	// frame aliases frameBuf lane by lane, so refilling frameBuf refills
	// the frame; maskBuf holds the packed reply.
	frameBuf []byte
	frame    bus.Frame
	maskBuf  []byte

	// rawStates carries the per-lane line state of the uncoded baseline,
	// advanced in lockstep with the coded streams so Totals.Raw is exact.
	rawStates []bus.LineState
	totals    Totals
	// codedPrev/rawPrev remember the last reported accumulators so each
	// encode message contributes an exact delta to the server metrics.
	codedPrev Cost
	rawPrev   Cost

	// Adaptive sessions queue their controllers' switch records here (the
	// OnSwitch hook runs on the connection goroutine, inside the encode)
	// and flush them as SWITCH notices immediately before the next reply.
	adaptive bool
	pending  []SwitchNote
	switches int

	// Resumable sessions (cfg.ResumeToken != 0) keep one frame of history:
	// the per-lane coded/raw line states and the totals as of the moment
	// before the last frame encoded, valid once a frame has been encoded
	// since the session was built. A msgResume claiming that previous
	// frame is validated against these, and answered with maskBuf — the
	// reply the disconnect ate. Preallocated at session build, refilled in
	// place per frame: the resumable frame path stays allocation-free.
	prevCoded  []bus.LineState
	prevRaw    []bus.LineState
	prevTotals Totals
	prevValid  bool
	// codedBase is the claimed coded cost a rebuilt session resumes from:
	// totals.Coded = codedBase + ls.TotalCost(). Zero for sessions that
	// never resumed.
	codedBase Cost
}

// resumable reports whether the session parks (rather than closes) when
// its connection dies.
func (st *sessState) resumable() bool { return st.cfg.ResumeToken != 0 }

// savePrev snapshots the session's wire state before a frame encodes: the
// validation target for a resume claiming the frame's reply was lost.
func (st *sessState) savePrev() {
	for l := range st.prevCoded {
		st.prevCoded[l] = st.ls.Lane(l).State()
	}
	copy(st.prevRaw, st.rawStates)
	st.refreshTotals()
	st.prevTotals = st.totals
	st.prevValid = true
}

// newConn performs the handshake on nc. On a single-session connection it
// resolves and opens the implicit session and replies with its scheme; on a
// mux connection it records the defaults and replies immediately — sessions
// resolve at msgOpen. A rejected handshake returns an error after telling
// the client why.
func (s *Server) newConn(nc net.Conn, m *metricsShard) (*conn, error) {
	r := bufio.NewReader(nc)
	w := bufio.NewWriter(nc)
	cfg, version, mux, err := readHandshake(r)
	if err != nil {
		// The handshake never parsed; there may be no protocol speaker on
		// the other side at all, so reply best-effort (with the newest
		// version, having negotiated none) and bail.
		writeReply(w, protocolVersion, statusError, err.Error()) //nolint:errcheck
		w.Flush()                                                //nolint:errcheck
		return nil, err
	}
	c := &conn{srv: s, m: m, nc: nc, r: r, w: w, version: version, mux: mux}
	c.idle, c.writeTO = s.cfg.IdleTimeout, s.cfg.WriteTimeout
	c.armEvery = armInterval(c.idle, c.writeTO)
	c.arm()
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = s.cfg.Alpha, s.cfg.Beta
	}
	if mux {
		c.def = cfg
		c.sessions = make(map[uint64]*sessState)
		if err := writeReply(w, version, statusOK, ""); err != nil {
			return nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.def = SessionConfig{Alpha: s.cfg.Alpha, Beta: s.cfg.Beta}
	if !s.reserveSession() {
		err := fmt.Errorf("%w: session limit reached", ErrBusy)
		m.noteBusy()
		writeReply(w, version, statusBusy, "session limit reached") //nolint:errcheck
		w.Flush()                                                   //nolint:errcheck
		return nil, err
	}
	st, err := c.newSessState(0, cfg)
	if err != nil {
		s.releaseSession()
		writeReply(w, version, statusError, err.Error()) //nolint:errcheck
		w.Flush()                                        //nolint:errcheck
		return nil, err
	}
	if err := writeReply(w, version, statusOK, st.scheme); err != nil {
		s.releaseSession()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		s.releaseSession()
		return nil, err
	}
	c.single = st
	m.noteSession(true)
	if st.adaptive {
		m.noteAdaptive()
	}
	s.metrics.noteScheme(st.scheme)
	return c, nil
}

// newSessState resolves one session request against the connection and
// server defaults and builds its encode state. No reply is written here —
// the handshake and msgOpen paths answer differently.
func (c *conn) newSessState(sid uint64, cfg SessionConfig) (*sessState, error) {
	srv := c.srv
	def := c.def
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = def.Alpha, def.Beta
	}
	if cfg.Scheme == "" {
		cfg.Scheme = def.Scheme
	}
	adaptive := cfg.Adapt || ((def.Adapt || srv.cfg.Adapt) && cfg.Scheme == "")

	st := &sessState{
		id:        sid,
		m:         c.m,
		cfg:       cfg,
		adaptive:  adaptive,
		frameBuf:  make([]byte, cfg.Lanes*cfg.Beats),
		frame:     make(bus.Frame, cfg.Lanes),
		maskBuf:   make([]byte, cfg.Lanes*maskBytes(cfg.Beats)),
		rawStates: make([]bus.LineState, cfg.Lanes),
	}
	if st.resumable() {
		st.prevCoded = make([]bus.LineState, cfg.Lanes)
		st.prevRaw = make([]bus.LineState, cfg.Lanes)
	}
	if adaptive {
		acfg := adapt.Config{
			Candidates: cfg.AdaptCandidates,
			Weights:    dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta},
			Window:     cfg.AdaptWindow,
			Margin:     cfg.AdaptMargin,
			OnSwitch:   st.noteSwitch,
		}
		// Fields left zero defer to the connection defaults, then to the
		// server defaults (which is one fall-through for a v2 connection,
		// whose def carries no adaptive block).
		if len(acfg.Candidates) == 0 {
			acfg.Candidates = def.AdaptCandidates
		}
		if len(acfg.Candidates) == 0 {
			acfg.Candidates = srv.cfg.AdaptCandidates
		}
		if acfg.Window == 0 {
			acfg.Window = def.AdaptWindow
		}
		if acfg.Window == 0 {
			acfg.Window = srv.cfg.AdaptWindow
		}
		if acfg.Margin == 0 {
			acfg.Margin = def.AdaptMargin
		}
		if acfg.Margin == 0 {
			acfg.Margin = srv.cfg.AdaptMargin
		}
		mk, err := adapt.Factory(acfg)
		if err != nil {
			return nil, err
		}
		st.ls = dbi.NewAdaptiveLaneSet(mk, cfg.Lanes)
		st.scheme = adaptiveSchemeName(st.ls.Lane(0).Adapter().(*adapt.Controller).Candidates())
	} else {
		scheme := cfg.Scheme
		if scheme == "" {
			scheme = srv.cfg.Scheme
		}
		// The session's triple compiles (and is cached) once here, so the
		// frame and batch paths bind their encode routing at session
		// setup, not per frame.
		kern, err := dbi.LookupKernel(scheme,
			dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta},
			dbi.Geometry{Beats: cfg.Beats, Lanes: cfg.Lanes})
		if err != nil {
			return nil, err
		}
		st.ls = kern.NewLaneSet(cfg.Lanes)
		st.scheme = scheme
	}
	for l := range st.frame {
		st.frame[l] = bus.Burst(st.frameBuf[l*cfg.Beats : (l+1)*cfg.Beats])
	}
	for l := range st.rawStates {
		st.rawStates[l] = bus.InitialLineState
	}
	return st, nil
}

// closeSession ends one open mux session, returning its MaxSessions slot.
func (c *conn) closeSession(sid uint64) {
	if st := c.sessions[sid]; st != nil && st.resumable() {
		c.srv.unregisterToken(st.cfg.ResumeToken)
	}
	delete(c.sessions, sid)
	c.m.noteClose()
	c.srv.releaseSession()
}

// closeAll ends every session still open when the connection goes away.
// Resumable sessions whose connection died under them — no msgQuit, no
// recovered panic — are parked instead of closed: the token keeps the live
// session state (and its MaxSessions slot) claimable by a msgResume on a
// new connection until ParkTimeout expires.
func (c *conn) closeAll() {
	if c.single != nil {
		c.single = nil
		c.m.noteClose()
		c.srv.releaseSession()
	}
	for sid, st := range c.sessions {
		if st.resumable() && !c.quit && !c.poisoned && c.srv.parkSession(st) {
			delete(c.sessions, sid)
			c.m.noteClose()
			c.m.notePark(1)
			continue
		}
		c.closeSession(sid)
	}
}

// armInterval is the re-arm amortisation period: a quarter of the smaller
// enabled timeout, so a deadline observed by the kernel is never staler
// than a quarter of its budget.
func armInterval(idle, writeTO time.Duration) time.Duration {
	min := idle
	if min <= 0 || (writeTO > 0 && writeTO < min) {
		min = writeTO
	}
	return min / 4
}

// arm pushes the connection's deadlines forward: reads get the idle
// budget, writes get writeTO of headroom past it, so the reply to a
// request that arrived at the last moment still has time to drain.
// Amortised through armEvery — the steady-state frame path re-arms (one
// syscall per deadline) only a few times per budget, not per frame.
//
//dbi:hotpath
func (c *conn) arm() {
	if c.nc == nil || (c.idle <= 0 && c.writeTO <= 0) {
		return
	}
	now := time.Now()
	if now.Sub(c.lastArm) < c.armEvery {
		return
	}
	c.lastArm = now
	if c.idle > 0 {
		c.nc.SetReadDeadline(now.Add(c.idle)) //nolint:errcheck
	}
	if c.writeTO > 0 {
		head := c.writeTO
		if c.idle > 0 {
			head += c.idle
		}
		c.nc.SetWriteDeadline(now.Add(head)) //nolint:errcheck
	}
}

// noteDead classifies the error that ended the connection. A deadline
// expiry counts as a timeout and is answered with a best-effort error
// frame under a short absolute write deadline, so a peer that is alive
// but silent learns why it was dropped.
func (c *conn) noteDead(err error) {
	if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		return
	}
	c.m.noteTimeout()
	if c.nc != nil {
		c.nc.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	}
	c.connFail(ErrTimeout) //nolint:errcheck
}

// loop dispatches messages until the client quits, disconnects, or breaks
// the protocol in a connection-fatal way.
func (c *conn) loop() {
	if c.mux {
		c.muxLoop()
		return
	}
	for {
		c.arm()
		typ, n, err := readHeader(c.r, &c.hdr)
		if err != nil {
			c.noteDead(err) // client closed (or the connection died)
			return
		}
		switch typ {
		case msgFrame:
			err = c.handleFrame(c.single, n)
		case msgBatch:
			err = c.handleBatch(c.single, n)
		case msgTotals:
			err = c.discardThen(n, func() error { return c.sendTotals(c.single) })
		case msgMetrics:
			err = c.discardThen(n, c.sendMetrics)
		case msgQuit:
			c.quit = true
			c.discardThen(n, func() error { return c.sendTotals(c.single) }) //nolint:errcheck // closing anyway
			return
		default:
			c.connFail(fmt.Errorf("server: unknown message type %q", typ)) //nolint:errcheck
			return
		}
		if err != nil {
			c.noteDead(err)
			return
		}
	}
}

// muxLoop is the message loop of a multiplexed connection. Replies are not
// flushed per message — a pipelining client would pay a syscall per frame —
// but exactly when the read side has no buffered input, i.e. immediately
// before the only read that could block. bufio only blocks the loop's
// ReadFull/ReadByte calls when its buffer is empty, so everything produced
// by still-buffered requests is flushed before the connection goes quiet.
func (c *conn) muxLoop() {
	for {
		c.arm()
		if c.r.Buffered() == 0 {
			if err := c.w.Flush(); err != nil {
				c.noteDead(err)
				return
			}
		}
		typ, n, err := readHeader(c.r, &c.hdr)
		if err != nil {
			c.noteDead(err)
			return
		}
		switch typ {
		case msgFrame:
			err = c.muxFrame(n)
		case msgBatch:
			err = c.muxTarget(n, func(st *sessState, rem int) error { return c.handleBatch(st, rem) })
		case msgTotals:
			err = c.muxTarget(n, func(st *sessState, rem int) error {
				if err := c.discardN(rem); err != nil {
					return err
				}
				return c.sendTotals(st)
			})
		case msgCloseSess:
			err = c.muxTarget(n, func(st *sessState, rem int) error {
				if err := c.discardN(rem); err != nil {
					return err
				}
				if err := c.sendTotals(st); err != nil {
					return err
				}
				c.closeSession(st.id)
				return nil
			})
		case msgOpen:
			err = c.handleOpen(n)
		case msgResume:
			err = c.handleResume(n)
		case msgMetrics:
			err = c.discardThen(n, c.sendMetrics)
		case msgQuit:
			c.muxQuit(n)
			return
		default:
			c.connFail(fmt.Errorf("server: unknown message type %q", typ)) //nolint:errcheck
			return
		}
		if err != nil {
			c.noteDead(err)
			return
		}
	}
}

// readSid reads the uvarint session-id prefix of a mux message payload,
// returning the id and the payload bytes remaining after it. The varint
// must lie entirely inside the declared payload: one that runs past it
// means the framing is already desynchronised, which is connection-fatal.
//
//dbi:hotpath
func (c *conn) readSid(n int) (sid uint64, rem int, err error) {
	var shift uint
	for consumed := 1; ; consumed++ {
		if consumed > n {
			return 0, 0, fmt.Errorf("server: session id varint runs past the %d byte payload", n) //dbi:allow-escape error formatting on a malformed message, dead in steady state
		}
		b, err := c.r.ReadByte()
		if err != nil {
			return 0, 0, err
		}
		if b < 0x80 {
			if shift >= 63 && b > 1 {
				return 0, 0, fmt.Errorf("server: session id varint overflows uint64") //dbi:allow-escape error formatting on a malformed message, dead in steady state
			}
			return sid | uint64(b)<<shift, n - consumed, nil
		}
		sid |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, 0, fmt.Errorf("server: session id varint overflows uint64") //dbi:allow-escape error formatting on a malformed message, dead in steady state
		}
	}
}

// muxFrame routes one mux msgFrame to its session. Unknown ids are
// session-scoped errors — the rest of the connection keeps flowing. Kept
// separate from the generic muxTarget router so the frame hot path pays no
// per-message closure.
//
//dbi:hotpath
func (c *conn) muxFrame(n int) error {
	sid, rem, err := c.readSid(n)
	if err != nil {
		return err
	}
	st := c.sessions[sid]
	if st == nil {
		if err := c.discardN(rem); err != nil {
			return err
		}
		return c.sessFail(sid, fmt.Errorf("server: unknown session %d", sid)) //dbi:allow-escape error formatting on a misrouted frame, dead in steady state
	}
	return c.handleFrame(st, rem)
}

// muxTarget reads the session-id prefix, resolves the session and hands the
// remaining payload to handle. The non-hot mux messages share this router.
func (c *conn) muxTarget(n int, handle func(st *sessState, rem int) error) error {
	sid, rem, err := c.readSid(n)
	if err != nil {
		return err
	}
	st := c.sessions[sid]
	if st == nil {
		if err := c.discardN(rem); err != nil {
			return err
		}
		return c.sessFail(sid, fmt.Errorf("server: unknown session %d", sid))
	}
	return handle(st, rem)
}

// handleOpen opens one logical session on a mux connection. Failures are
// answered with a rejecting msgOpenReply and leave the connection (and its
// other sessions) running.
func (c *conn) handleOpen(n int) error {
	buf, err := c.payload(n)
	if err != nil {
		return err
	}
	sid, sn := binary.Uvarint(buf)
	if sn <= 0 {
		return c.connFail(fmt.Errorf("server: open with a malformed session id varint"))
	}
	reject := func(status byte, reason string) error {
		c.m.noteSession(false)
		if status == statusBusy {
			c.m.noteBusy()
		}
		return c.openReply(sid, status, reason)
	}
	cfg, err := parseConfigBody(buf[sn:], c.version)
	if err != nil {
		return reject(statusError, err.Error())
	}
	if sid == 0 {
		return reject(statusError, "server: session id 0 is reserved")
	}
	if _, dup := c.sessions[sid]; dup {
		return reject(statusError, fmt.Sprintf("server: session %d is already open", sid))
	}
	if !c.srv.reserveSession() {
		return reject(statusBusy, "server: session limit reached")
	}
	st, err := c.newSessState(sid, cfg)
	if err != nil {
		c.srv.releaseSession()
		return reject(statusError, err.Error())
	}
	if cfg.ResumeToken != 0 {
		if !c.srv.registerToken(cfg.ResumeToken, st) {
			c.srv.releaseSession()
			return reject(statusError, fmt.Sprintf("server: resume token %#x is already in use", cfg.ResumeToken))
		}
	}
	c.sessions[sid] = st
	c.m.noteSession(true)
	if st.adaptive {
		c.m.noteAdaptive()
	}
	c.srv.metrics.noteScheme(st.scheme)
	return c.openReply(sid, statusOK, st.scheme)
}

// openReply answers one msgOpen. The payload's leading uvarint session id
// doubles as the mux reply prefix, so the header is written bare.
func (c *conn) openReply(sid uint64, status byte, msg string) error {
	c.noticeBuf = appendOpenReply(c.noticeBuf[:0], sid, status, msg)
	putHeader(&c.hdr, msgOpenReply, len(c.noticeBuf))
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(c.noticeBuf)
	return err
}

// muxQuit answers msgQuit on a mux connection: switch notices of every open
// session, then one aggregate msgTotalsReply under session id 0. The
// connection closes after it either way.
func (c *conn) muxQuit(n int) {
	c.quit = true // deliberate departure: closeAll must not park anything
	if c.discardN(n) != nil {
		return
	}
	var agg Totals
	for _, st := range c.sessions {
		if c.flushSwitches(st) != nil {
			return
		}
		st.refreshTotals()
		agg.add(st.totals)
	}
	putTotals(c.totalsBuf[:], agg)
	if c.replyHeader(msgTotalsReply, 0, totalsLen) != nil {
		return
	}
	if _, err := c.w.Write(c.totalsBuf[:]); err != nil {
		return
	}
	c.w.Flush() //nolint:errcheck
}

// adaptiveSchemeName is the resolved-scheme string an adaptive session
// reports at open time, naming the candidate set.
func adaptiveSchemeName(candidates []string) string {
	return "ADAPTIVE(" + strings.Join(candidates, ",") + ")"
}

// noteSwitch is the adaptive controllers' OnSwitch hook: it queues one
// SWITCH notice for the client and counts the switch. Frame and batch
// encodes both call it from the connection goroutine.
func (st *sessState) noteSwitch(sw adapt.Switch) {
	st.pending = append(st.pending, SwitchNote{
		Lane: sw.Lane, Ordinal: sw.Ordinal, Burst: sw.Burst, From: sw.From, To: sw.To,
	})
	st.switches++
	st.m.noteSwitch()
}

// refreshTotals folds the live encode state into the session's Totals.
// codedBase carries the claimed history of a rebuilt session (zero
// otherwise), so Coded stays cumulative across a resume.
func (st *sessState) refreshTotals() {
	st.totals.Coded = st.codedBase.Add(st.ls.TotalCost())
	st.totals.Switches = st.switches
}

// flushSwitches writes every queued SWITCH notice of one session. Replies
// call it first, so the client learns about a renegotiation no later than
// the reply to the message whose encoding caused it. The steady state (no
// pending switches — every fixed-scheme session, and adaptive sessions
// between switches) is a nil check and costs no allocation.
func (c *conn) flushSwitches(st *sessState) error {
	if !st.adaptive {
		return nil
	}
	notes := st.pending
	st.pending = st.pending[:0]
	// The wire order is by switch point, then lane — the order a serial
	// offline replay logs them in, whatever lanes the encode visited first.
	slices.SortFunc(notes, func(a, b SwitchNote) int {
		if a.Burst != b.Burst {
			return a.Burst - b.Burst
		}
		return a.Lane - b.Lane
	})
	for _, n := range notes {
		c.noticeBuf = appendSwitchNote(c.noticeBuf[:0], n)
		if err := c.replyHeader(msgSwitch, st.id, len(c.noticeBuf)); err != nil {
			return err
		}
		if _, err := c.w.Write(c.noticeBuf); err != nil {
			return err
		}
	}
	return nil
}

// replyHeader writes one reply's header, prefixing the payload with the
// session id on mux connections (the declared length covers the prefix).
//
//dbi:hotpath
func (c *conn) replyHeader(typ byte, sid uint64, payloadLen int) error {
	c.arm() // keep the (amortised) write deadline ahead of this reply
	if !c.mux {
		putHeader(&c.hdr, typ, payloadLen)
		_, err := c.w.Write(c.hdr[:])
		return err
	}
	sn := binary.PutUvarint(c.sidBuf[:], sid)
	putHeader(&c.hdr, typ, sn+payloadLen)
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(c.sidBuf[:sn])
	return err
}

// maybeFlush flushes the write side on single-session connections, whose
// clients are strictly request/response. Mux connections flush in the
// message loop instead, only when the read side could block.
func (c *conn) maybeFlush() error {
	if c.mux {
		return nil
	}
	return c.w.Flush()
}

// discardN drains n payload bytes.
func (c *conn) discardN(n int) error {
	if n <= 0 {
		return nil
	}
	_, err := io.CopyN(io.Discard, c.r, int64(n))
	return err
}

// discardThen drains an (expected-empty) payload, then runs the reply
// handler.
func (c *conn) discardThen(n int, reply func() error) error {
	if err := c.discardN(n); err != nil {
		return err
	}
	return reply()
}

// payload reads a complete n-byte payload into the connection's reusable
// buffer (valid until the next payload call).
func (c *conn) payload(n int) ([]byte, error) {
	if cap(c.batchBuf) < n {
		c.batchBuf = make([]byte, n)
	}
	buf := c.batchBuf[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// sessFail reports a session-scoped protocol error. On a mux connection the
// error names the session and the connection survives (returns nil); on a
// single-session connection the session is the connection, so the error is
// fatal (returns err for the caller to propagate).
func (c *conn) sessFail(sid uint64, err error) error {
	msg := err.Error()
	if werr := c.replyHeader(msgError, sid, len(msg)); werr != nil {
		return werr
	}
	if _, werr := c.w.WriteString(msg); werr != nil {
		return werr
	}
	if c.mux {
		return nil
	}
	c.w.Flush() //nolint:errcheck
	return err
}

// connFail reports a connection-fatal error (session id 0 on mux
// connections) and returns err for the caller to propagate.
func (c *conn) connFail(err error) error {
	msg := err.Error()
	if werr := c.replyHeader(msgError, 0, len(msg)); werr != nil {
		return werr
	}
	if _, werr := c.w.WriteString(msg); werr != nil {
		return werr
	}
	c.w.Flush() //nolint:errcheck
	return err
}

// handleFrame encodes one frame through the session's lane set and answers
// with the packed inversion masks. This is the steady-state hot path: the
// payload refills the session's frame in place, LaneSet.TransmitBatch
// encodes all lanes as one struct-of-arrays batch — word-packed masks,
// no per-lane wire images at all — and the reply bytes copy straight out
// of the batch's mask words. No heap allocation per frame, on either the
// single-session or the mux path.
//
//dbi:hotpath
func (c *conn) handleFrame(st *sessState, n int) error {
	if n != len(st.frameBuf) {
		err := fmt.Errorf("server: frame payload is %d bytes, session geometry %dx%d needs %d", n, st.cfg.Lanes, st.cfg.Beats, len(st.frameBuf)) //dbi:allow-escape error formatting on a malformed frame, dead in steady state
		if c.mux {
			if derr := c.discardN(n); derr != nil {
				return derr
			}
		}
		return c.sessFail(st.id, err)
	}
	if _, err := io.ReadFull(c.r, st.frameBuf); err != nil {
		return err
	}
	if st.resumable() {
		st.savePrev() // pre-frame snapshot: the resume validation target
	}
	start := time.Now()
	st.accumulateRaw(st.frame)
	lb := st.ls.TransmitBatch(st.frame)
	mb := maskBytes(st.cfg.Beats)
	for l := 0; l < lb.Lanes(); l++ {
		// The protocol's mask layout (beat t → byte t/8, bit t%8) is the
		// little-endian byte order of the batch's mask words, so each reply
		// byte is one shift out of a word. Bits past the burst are zero in
		// the words, so every byte is fully overwritten — no buffer clear.
		words := lb.MaskWords(l)
		dst := st.maskBuf[l*mb : (l+1)*mb]
		for k := range dst {
			dst[k] = byte(words[k>>3] >> ((k & 7) * 8))
		}
	}
	st.totals.Frames++
	st.totals.Beats += st.cfg.Lanes * st.cfg.Beats
	st.noteDelta(false, 1, st.cfg.Lanes, st.cfg.Lanes*st.cfg.Beats, start)

	if err := c.flushSwitches(st); err != nil {
		return err
	}
	if err := c.replyHeader(msgMasks, st.id, len(st.maskBuf)); err != nil {
		return err
	}
	if _, err := c.w.Write(st.maskBuf); err != nil {
		return err
	}
	return c.maybeFlush()
}

// errBatchResumable refuses batch messages on resumable sessions.
var errBatchResumable = errors.New("server: batch messages are not supported on a resumable session")

// handleBatch decodes a "DBIT" trace blob and replays it onto the
// session's lanes (burst i → lane i%lanes, exactly as trace.FrameReader and
// dbitrace cost do), answering with the cumulative session totals. The
// whole blob is validated before any lane state moves, so every malformed
// batch is a session-scoped error on mux connections and leaves the
// session untouched. The batch then runs as a sequence of frames on the
// connection goroutine: each frame is a set of views into the payload
// buffer, encoded by the same accumulateRaw + LaneSet.TransmitBatch pair as
// handleFrame, so per-lane state is continuous with any single frames sent
// before or after, and the steady state allocates nothing.
//
//dbi:hotpath
func (c *conn) handleBatch(st *sessState, n int) error {
	buf, err := c.payload(n)
	if err != nil {
		return err
	}
	if st.resumable() {
		// One frame of history can't reconcile a lost batch reply, so a
		// resumable session's exactly-once story holds only frame by frame.
		return c.sessFail(st.id, errBatchResumable)
	}
	start := time.Now()
	beats, body, err := trace.ParseBlob(buf)
	if err != nil {
		return c.sessFail(st.id, err)
	}
	if beats != st.cfg.Beats {
		return c.sessFail(st.id, fmt.Errorf("server: batch trace has %d beats per burst, session has %d", beats, st.cfg.Beats)) //dbi:allow-escape error formatting on a malformed batch, dead in steady state
	}
	lanes := st.cfg.Lanes
	if cap(c.batchFrame) < lanes {
		c.batchFrame = make(bus.Frame, lanes) //dbi:allow-escape frame-view scratch growth, amortized across batches
	}
	f := c.batchFrame[:lanes]
	bursts := len(body) / beats
	for rest := body; len(rest) > 0; {
		rest = trace.NextFrameView(f, rest, beats)
		st.accumulateRaw(f)
		st.ls.TransmitBatch(f)
	}
	frames := (bursts + lanes - 1) / lanes
	st.totals.Frames += frames
	st.totals.Beats += len(body)
	st.noteDelta(true, frames, bursts, len(body), start)
	return c.sendTotals(st)
}

// accumulateRaw advances the uncoded baseline over one frame. The raw
// baseline is the all-plain wire, so every burst — any length — costs
// through the bit-parallel bus.PlainCost, and the final state is just the
// last beat driven uninverted.
func (st *sessState) accumulateRaw(f bus.Frame) {
	for l, b := range f {
		s := st.rawStates[l]
		st.totals.Raw = st.totals.Raw.Add(bus.PlainCost(s, b))
		if len(b) > 0 {
			s = bus.Advance(s, b[len(b)-1], false)
		}
		st.rawStates[l] = s
	}
}

// noteDelta records one encode message's contribution to the server
// metrics, as the exact difference of the session accumulators.
func (st *sessState) noteDelta(batch bool, frames, bursts, beats int, start time.Time) {
	coded := st.ls.TotalCost()
	codedDelta := Cost{Zeros: coded.Zeros - st.codedPrev.Zeros, Transitions: coded.Transitions - st.codedPrev.Transitions}
	rawDelta := Cost{Zeros: st.totals.Raw.Zeros - st.rawPrev.Zeros, Transitions: st.totals.Raw.Transitions - st.rawPrev.Transitions}
	st.codedPrev = coded
	st.rawPrev = st.totals.Raw
	st.m.noteEncode(batch, frames, bursts, beats, codedDelta, rawDelta, time.Since(start))
}

// sendTotals answers with one session's cumulative accounting.
func (c *conn) sendTotals(st *sessState) error {
	if err := c.flushSwitches(st); err != nil {
		return err
	}
	st.refreshTotals()
	putTotals(c.totalsBuf[:], st.totals)
	if err := c.replyHeader(msgTotalsReply, st.id, totalsLen); err != nil {
		return err
	}
	if _, err := c.w.Write(c.totalsBuf[:]); err != nil {
		return err
	}
	return c.maybeFlush()
}

// sendMetrics answers with the server-wide metrics text. Connection-scoped:
// the reply carries no session id even on mux connections.
func (c *conn) sendMetrics() error {
	if c.single != nil {
		if err := c.flushSwitches(c.single); err != nil {
			return err
		}
	}
	for _, st := range c.sessions {
		if err := c.flushSwitches(st); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := c.srv.metrics.Snapshot().WriteText(&buf); err != nil {
		return err
	}
	putHeader(&c.hdr, msgMetricsReply, buf.Len())
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(buf.Bytes()); err != nil {
		return err
	}
	return c.maybeFlush()
}
