package server

import (
	"bufio"
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

// conn is the server side of one connection: the framing state and the
// table of open sessions, opened and closed by msgOpen/msgCloseSess.
type conn struct {
	srv *Server
	m   *metricsShard // this connection's counter shard
	nc  net.Conn      // the transport; nil in unit tests that drive the loop directly
	r   *bufio.Reader
	w   *bufio.Writer

	// acct is the encode accounting not yet published to m; mark is when
	// the loop last stopped waiting for input, the start of the busy
	// interval the next drain point closes.
	acct connAcct
	mark time.Time

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
	// def holds the connection's session defaults: the handshake config,
	// weights already resolved against the server.
	def SessionConfig

	sessions map[uint64]*sessState // open sessions, by id

	// Reusable scratch shared by every session on the connection — the
	// message loop is single-goroutine, so one set suffices: hdr is the
	// header, sidBuf the session-id prefix of replies, totalsBuf the
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

// connAcct is a connection's pending encode accounting: plain counters the
// connection goroutine bumps per message and publishes to its metrics
// shard only at drain points (conn.settle), so the frame path carries no
// atomic and no clock read.
type connAcct struct {
	frames, batches, bursts, beats, switches int64
	coded, raw                               Cost
	busy                                     time.Duration // wall time outside drain-point flushes and waits for input
}

// note folds one encode message into the pending counters.
func (a *connAcct) note(frames, bursts, beats, switches int, coded, raw Cost) {
	a.frames += int64(frames)
	a.bursts += int64(bursts)
	a.beats += int64(beats)
	a.switches += int64(switches)
	a.coded = a.coded.Add(coded)
	a.raw = a.raw.Add(raw)
}

// settle closes the busy interval at now and publishes the pending
// counters to the connection's shard. The loop settles at every drain
// point, before the flush that sends the replies and before the wait for
// input, and the connection settles once more on its way out, so a client
// that waits for each reply never holds one whose counts a Snapshot lacks.
func (c *conn) settle(now time.Time) {
	c.acct.busy += now.Sub(c.mark)
	c.mark = now
	if c.acct != (connAcct{}) {
		c.m.noteEncode(&c.acct)
		c.acct = connAcct{}
	}
}

// newConn performs the handshake on nc: it records the connection's
// session defaults and replies immediately — sessions resolve at msgOpen.
// A rejected handshake returns an error after telling the client why.
func (s *Server) newConn(nc net.Conn, m *metricsShard) (*conn, error) {
	r := bufio.NewReader(nc)
	w := bufio.NewWriter(nc)
	cfg, err := readHandshake(r)
	if err != nil {
		// The handshake never parsed; there may be no protocol speaker on
		// the other side at all, so reply best-effort and bail.
		writeReply(w, statusError, err.Error()) //nolint:errcheck
		w.Flush()                               //nolint:errcheck
		return nil, err
	}
	c := &conn{srv: s, m: m, nc: nc, r: r, w: w, sessions: make(map[uint64]*sessState)}
	c.idle, c.writeTO = s.cfg.IdleTimeout, s.cfg.WriteTimeout
	c.armEvery = armInterval(c.idle, c.writeTO)
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = s.cfg.Alpha, s.cfg.Beta
	}
	c.def = cfg
	if err := writeReply(w, statusOK, ""); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if c.idle > 0 {
		// The handshake's absolute deadline (set in handle) ends here: the
		// loop's first drain point arms the steady-state budgets, and a
		// disabled write budget must not inherit it.
		nc.SetDeadline(time.Time{}) //nolint:errcheck
	}
	c.mark = time.Now()
	return c, nil
}

// newSessState resolves one session request against the connection and
// server defaults and builds its encode state. No reply is written here —
// the msgOpen and msgResume paths answer differently.
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
		// server defaults.
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

// closeSession ends one open session, returning its MaxSessions slot.
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

// arm pushes the connection's deadlines forward from now: reads get the
// idle budget, writes get writeTO of headroom past it, so the reply to a
// request that arrived at the last moment still has time to drain. The
// loop arms at its drain points, where it waits for the next message, on
// the clock read it already takes there; armEvery amortises it further, so
// a busy connection re-arms (one syscall per deadline) only a few times
// per budget.
//
//dbi:hotpath
func (c *conn) arm(now time.Time) {
	if c.nc == nil || (c.idle <= 0 && c.writeTO <= 0) || now.Sub(c.lastArm) < c.armEvery {
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
	for c.step() {
	}
}

// step serves one message and reports whether the connection goes on.
// Replies are not flushed per message — a pipelining client would pay a
// syscall per frame — but at the drain point: when the read side has no
// buffered input, immediately before the read that may block. That is
// also where the connection's bookkeeping runs, once per drain cycle
// rather than per frame: it settles its counters (so they are published
// before the replies leave), arms its deadlines and closes its busy
// interval on one clock read, and reopens the interval when input
// arrives. bufio only blocks readHeader when its buffer is empty, so
// everything produced by still-buffered requests is flushed before the
// connection goes quiet.
func (c *conn) step() bool {
	drained := c.r.Buffered() == 0
	if drained {
		now := time.Now()
		c.settle(now)
		c.arm(now)
		if err := c.w.Flush(); err != nil {
			c.noteDead(err)
			return false
		}
	}
	typ, n, err := readHeader(c.r, &c.hdr)
	if drained {
		c.mark = time.Now() // the wait is over: a busy interval opens
	}
	if err != nil {
		c.noteDead(err) // client closed (or the connection died)
		return false
	}
	switch typ {
	case msgFrame:
		err = c.routeFrame(n)
	case msgBatch:
		err = c.routeSession(n, func(st *sessState, rem int) error { return c.handleBatch(st, rem) })
	case msgTotals:
		err = c.routeSession(n, func(st *sessState, rem int) error {
			if err := c.discardN(rem); err != nil {
				return err
			}
			return c.sendTotals(st)
		})
	case msgCloseSess:
		err = c.routeSession(n, func(st *sessState, rem int) error {
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
	case msgQuit:
		c.handleQuit(n)
		return false
	default:
		c.connFail(fmt.Errorf("server: unknown message type %q", typ)) //nolint:errcheck
		return false
	}
	if err != nil {
		c.noteDead(err)
		return false
	}
	return true
}

// readSid reads the uvarint session-id prefix of a message payload,
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

// routeFrame routes one msgFrame to its session. Unknown ids are
// session-scoped errors — the rest of the connection keeps flowing. Kept
// separate from the generic routeSession router so the frame hot path pays
// no per-message closure.
//
//dbi:hotpath
func (c *conn) routeFrame(n int) error {
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

// routeSession reads the session-id prefix, resolves the session and hands
// the remaining payload to handle. The non-hot messages share this router.
func (c *conn) routeSession(n int, handle func(st *sessState, rem int) error) error {
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

// handleOpen opens one logical session on the connection. Failures are
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
	cfg, err := parseConfigBody(buf[sn:])
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
// doubles as the reply prefix, so the header is written bare.
func (c *conn) openReply(sid uint64, status byte, msg string) error {
	c.noticeBuf = appendOpenReply(c.noticeBuf[:0], sid, status, msg)
	putHeader(&c.hdr, msgOpenReply, len(c.noticeBuf))
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(c.noticeBuf)
	return err
}

// handleQuit answers msgQuit: switch notices of every open session, then
// one aggregate msgTotalsReply under session id 0. The connection closes
// after it either way.
func (c *conn) handleQuit(n int) {
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
	c.settle(time.Now())
	c.w.Flush() //nolint:errcheck
}

// adaptiveSchemeName is the resolved-scheme string an adaptive session
// reports at open time, naming the candidate set.
func adaptiveSchemeName(candidates []string) string {
	return "ADAPTIVE(" + strings.Join(candidates, ",") + ")"
}

// noteSwitch is the adaptive controllers' OnSwitch hook: it queues one
// SWITCH notice for the client and counts the switch. Frame and batch
// encodes both call it from the connection goroutine, which folds the
// change in st.switches into its own counters.
func (st *sessState) noteSwitch(sw adapt.Switch) {
	st.pending = append(st.pending, SwitchNote{
		Lane: sw.Lane, Ordinal: sw.Ordinal, Burst: sw.Burst, From: sw.From, To: sw.To,
	})
	st.switches++
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
// session id (the declared length covers the prefix).
//
//dbi:hotpath
func (c *conn) replyHeader(typ byte, sid uint64, payloadLen int) error {
	sn := binary.PutUvarint(c.sidBuf[:], sid)
	putHeader(&c.hdr, typ, sn+payloadLen)
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(c.sidBuf[:sn])
	return err
}

// discardN drains n payload bytes.
func (c *conn) discardN(n int) error {
	if n <= 0 {
		return nil
	}
	_, err := io.CopyN(io.Discard, c.r, int64(n))
	return err
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

// sessFail reports a session-scoped protocol error: the error names the
// session, and the connection survives (a nil return unless the reply
// itself cannot be written).
func (c *conn) sessFail(sid uint64, err error) error {
	msg := err.Error()
	if werr := c.replyHeader(msgError, sid, len(msg)); werr != nil {
		return werr
	}
	_, werr := c.w.WriteString(msg)
	return werr
}

// connFail reports a connection-fatal error (session id 0) and returns err
// for the caller to propagate.
func (c *conn) connFail(err error) error {
	msg := err.Error()
	if werr := c.replyHeader(msgError, 0, len(msg)); werr != nil {
		return werr
	}
	if _, werr := c.w.WriteString(msg); werr != nil {
		return werr
	}
	c.settle(time.Now())
	c.w.Flush() //nolint:errcheck
	return err
}

// handleFrame encodes one frame through the session's lane set and answers
// with the packed inversion masks. This is the steady-state hot path: the
// payload refills the session's frame in place, LaneSet.TransmitBatch
// encodes all lanes as one struct-of-arrays batch — word-packed masks,
// no per-lane wire images at all — and the reply bytes copy straight out
// of the batch's mask words. No heap allocation per frame.
//
//dbi:hotpath
func (c *conn) handleFrame(st *sessState, n int) error {
	if n != len(st.frameBuf) {
		err := fmt.Errorf("server: frame payload is %d bytes, session geometry %dx%d needs %d", n, st.cfg.Lanes, st.cfg.Beats, len(st.frameBuf)) //dbi:allow-escape error formatting on a malformed frame, dead in steady state
		if derr := c.discardN(n); derr != nil {
			return derr
		}
		return c.sessFail(st.id, err)
	}
	if _, err := io.ReadFull(c.r, st.frameBuf); err != nil {
		return err
	}
	if st.resumable() {
		st.savePrev() // pre-frame snapshot: the resume validation target
	}
	switches := st.switches
	raw := st.accumulateRaw(st.frame)
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
	c.acct.note(1, st.cfg.Lanes, st.cfg.Lanes*st.cfg.Beats, st.switches-switches, lb.TotalCost(), raw)

	if err := c.flushSwitches(st); err != nil {
		return err
	}
	if err := c.replyHeader(msgMasks, st.id, len(st.maskBuf)); err != nil {
		return err
	}
	_, err := c.w.Write(st.maskBuf)
	return err
}

// errBatchResumable refuses batch messages on resumable sessions.
var errBatchResumable = errors.New("server: batch messages are not supported on a resumable session")

// handleBatch decodes a "DBIT" trace blob and replays it onto the
// session's lanes (burst i → lane i%lanes, exactly as trace.FrameReader and
// dbitrace cost do), answering with the cumulative session totals. The
// whole blob is validated before any lane state moves, so every malformed
// batch is a session-scoped error and leaves the session untouched. The batch then runs as a sequence of frames on the
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
	before, switches := st.ls.TotalCost(), st.switches
	var raw Cost
	for rest := body; len(rest) > 0; {
		rest = trace.NextFrameView(f, rest, beats)
		raw = raw.Add(st.accumulateRaw(f))
		st.ls.TransmitBatch(f)
	}
	after := st.ls.TotalCost()
	coded := Cost{Zeros: after.Zeros - before.Zeros, Transitions: after.Transitions - before.Transitions}
	frames := (bursts + lanes - 1) / lanes
	st.totals.Frames += frames
	st.totals.Beats += len(body)
	c.acct.batches++
	c.acct.note(frames, bursts, len(body), st.switches-switches, coded, raw)
	return c.sendTotals(st)
}

// accumulateRaw advances the uncoded baseline over one frame and returns
// the frame's raw cost, already folded into totals.Raw. The raw baseline is
// the all-plain wire, so every burst — any length — costs through the
// bit-parallel bus.PlainCost, and the final state is just the last beat
// driven uninverted.
func (st *sessState) accumulateRaw(f bus.Frame) (raw Cost) {
	for l, b := range f {
		s := st.rawStates[l]
		raw = raw.Add(bus.PlainCost(s, b))
		if len(b) > 0 {
			s = bus.Advance(s, b[len(b)-1], false)
		}
		st.rawStates[l] = s
	}
	st.totals.Raw = st.totals.Raw.Add(raw)
	return raw
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
	_, err := c.w.Write(c.totalsBuf[:])
	return err
}
