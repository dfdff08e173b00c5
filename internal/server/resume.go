package server

import (
	"errors"
	"fmt"
	"time"

	"dbiopt/internal/adapt"
)

// Session resume: the server side of the msgResume exchange.
//
// A session opened with a nonzero resume token is parked — not closed —
// when its connection dies: the live sessState object (lane set, adaptive
// controller, totals, one frame of reply history) moves into a token-keyed
// registry and waits, still holding its MaxSessions slot so a resume is
// guaranteed capacity. A msgResume presenting the token reattaches that
// object to the new connection, which makes the continuation bit-identical
// even for adaptive sessions mid-window — nothing was serialised, the state
// never stopped existing. Only when the parked session has expired (or the
// claim reaches a server that never held it) is a session rebuilt from the
// claim: static schemes are memoryless beyond the per-lane line state, so a
// rebuild is still bit-identical; adaptive rebuilds re-seed every shadow
// chain at the claimed state exactly as the switch protocol does, with
// fresh decision windows.

// DefaultParkTimeout is how long a resumable session stays parked after its
// connection dies before its state and MaxSessions slot are released.
const DefaultParkTimeout = 30 * time.Second

// resumeEntry is one token's registry slot.
type resumeEntry struct {
	st       *sessState
	attached bool        // a live connection currently owns the session
	timer    *time.Timer // running while parked; expiry drops the entry
}

// registerToken claims a resume token for a newly opened (or rebuilt)
// session; it refuses duplicates — tokens are client-chosen, and a
// collision means two clients would fight over one parked session.
func (s *Server) registerToken(token uint64, st *sessState) bool {
	s.resumeMu.Lock()
	defer s.resumeMu.Unlock()
	if _, dup := s.resume[token]; dup {
		return false
	}
	s.resume[token] = &resumeEntry{st: st, attached: true}
	return true
}

// unregisterToken drops a token (the session closed normally). Safe on
// tokens that were never registered.
func (s *Server) unregisterToken(token uint64) {
	s.resumeMu.Lock()
	e := s.resume[token]
	delete(s.resume, token)
	s.resumeMu.Unlock()
	if e != nil && e.timer != nil {
		e.timer.Stop()
	}
}

// parkSession detaches a resumable session from its dying connection and
// starts the expiry clock. The session keeps its MaxSessions slot while
// parked, so a prompt resume cannot be refused for capacity; expiry
// releases it. Returns false when the token is no longer registered (the
// session closed on another path), in which case the caller closes it
// normally.
func (s *Server) parkSession(st *sessState) bool {
	token := st.cfg.ResumeToken
	s.resumeMu.Lock()
	defer s.resumeMu.Unlock()
	e := s.resume[token]
	if e == nil || e.st != st || !e.attached {
		return false
	}
	e.attached = false
	e.timer = time.AfterFunc(s.cfg.ParkTimeout, func() { s.expireToken(token, e) })
	return true
}

// expireToken releases a parked session whose grace period lapsed: the
// entry, its metrics gauge and its MaxSessions slot all go. A concurrent
// claim wins the race — claiming marks the entry attached under the mutex,
// which this check observes.
func (s *Server) expireToken(token uint64, e *resumeEntry) {
	s.resumeMu.Lock()
	cur := s.resume[token]
	if cur != e || cur.attached {
		s.resumeMu.Unlock()
		return
	}
	delete(s.resume, token)
	s.resumeMu.Unlock()
	s.metrics.shard().notePark(-1)
	s.releaseSession()
}

// claimToken hands a parked session to a resuming connection. A nil session
// with nil error means the token is unknown here — the caller rebuilds from
// the claim. A non-nil error means the token exists but cannot be claimed
// right now: the session is still attached to a connection the server has
// not yet seen die, which is transient (the claim retries after backoff).
func (s *Server) claimToken(token uint64) (*sessState, error) {
	s.resumeMu.Lock()
	defer s.resumeMu.Unlock()
	e := s.resume[token]
	if e == nil {
		return nil, nil
	}
	if e.attached {
		return nil, fmt.Errorf("%w: session still attached to its previous connection", ErrBusy)
	}
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	e.attached = true
	return e.st, nil
}

// reparkSession returns a claimed-but-rejected session to the parked state
// (the claim failed validation; the session itself is untouched, and a
// corrected claim may still arrive).
func (s *Server) reparkSession(st *sessState) {
	s.parkSession(st)
}

// dropParked releases every parked session: the shutdown path, where no
// resume is coming.
func (s *Server) dropParked() {
	s.resumeMu.Lock()
	var dropped []*resumeEntry
	for token, e := range s.resume {
		if !e.attached {
			delete(s.resume, token)
			dropped = append(dropped, e)
		}
	}
	s.resumeMu.Unlock()
	for _, e := range dropped {
		if e.timer != nil {
			e.timer.Stop()
		}
		s.metrics.shard().notePark(-1)
		s.releaseSession()
	}
}

// handleResume answers msgResume: reattach the parked session when the
// claimed wire state reconciles with the live chain, or rebuild one seeded
// at the claimed state when no parked session exists. Failures are
// session-scoped — the connection (and its other sessions) survives a
// rejected resume.
func (c *conn) handleResume(n int) error {
	buf, err := c.payload(n)
	if err != nil {
		return err
	}
	c.m.noteResumeAttempt()
	rc, err := parseResume(buf)
	if err != nil {
		// The claim did not even parse; there is no trustworthy session id
		// to address, so reply under id 0 (never a valid session).
		return c.resumeReply(0, statusError, 0, err.Error(), resumeReplyState{})
	}
	reject := func(status byte, msg string) error {
		if status == statusBusy {
			c.m.noteBusy()
		}
		return c.resumeReply(rc.sid, status, 0, msg, resumeReplyState{})
	}
	if rc.sid == 0 {
		return reject(statusError, "server: session id 0 is reserved")
	}
	if _, dup := c.sessions[rc.sid]; dup {
		return reject(statusError, fmt.Sprintf("server: session %d is already open", rc.sid))
	}
	st, err := c.srv.claimToken(rc.cfg.ResumeToken)
	if err != nil {
		return reject(statusBusy, err.Error())
	}
	if st != nil {
		masks, err := st.validateClaim(rc)
		if err != nil {
			c.srv.reparkSession(st)
			return reject(statusError, err.Error())
		}
		st.id = rc.sid
		c.sessions[rc.sid] = st
		c.m.notePark(-1)
		c.m.noteReattach()
		c.m.noteResumed()
		st.refreshTotals()
		return c.resumeReply(rc.sid, statusOK, resumeReattached, st.scheme, st.replyState(masks))
	}
	// No parked session — it expired, or the claim reached a fresh server.
	// Rebuild one seeded at the claimed wire state.
	st, err = c.rebuildSession(rc)
	if err != nil {
		c.m.noteSession(false)
		if errors.Is(err, ErrBusy) {
			return reject(statusBusy, err.Error())
		}
		return reject(statusError, err.Error())
	}
	c.sessions[rc.sid] = st
	c.m.noteSession(true)
	if st.adaptive {
		c.m.noteAdaptive()
	}
	c.m.noteResumed()
	c.srv.metrics.noteScheme(st.scheme)
	st.refreshTotals()
	return c.resumeReply(rc.sid, statusOK, resumeRebuilt, st.scheme, st.replyState(nil))
}

// rebuildSession constructs a fresh session from a resume claim: the
// ordinary open path, then every chain seeded at the claimed state and the
// accounting resumed at the claimed totals.
func (c *conn) rebuildSession(rc resumeClaim) (*sessState, error) {
	if !c.srv.reserveSession() {
		return nil, fmt.Errorf("%w: session limit reached", ErrBusy)
	}
	st, err := c.newSessState(rc.sid, rc.cfg)
	if err != nil {
		c.srv.releaseSession()
		return nil, err
	}
	if err := st.seedFromClaim(rc); err != nil {
		c.srv.releaseSession()
		return nil, err
	}
	if !c.srv.registerToken(rc.cfg.ResumeToken, st) {
		c.srv.releaseSession()
		return nil, fmt.Errorf("server: resume token %#x is already in use", rc.cfg.ResumeToken)
	}
	return st, nil
}

// validateClaim checks a resume claim against the parked session's live
// state. The claim may be current (the client saw every reply) or exactly
// one frame behind (the reply to its last frame was lost in the
// disconnect), in which case the lost frame's packed masks are returned for
// the resume reply. Anything else means client and server have diverged,
// which no retry can fix.
func (st *sessState) validateClaim(rc resumeClaim) (masks []byte, err error) {
	if rc.cfg.Lanes != st.cfg.Lanes || rc.cfg.Beats != st.cfg.Beats {
		return nil, fmt.Errorf("%w: claimed geometry %dx%d, session is %dx%d",
			ErrResumeMismatch, rc.cfg.Lanes, rc.cfg.Beats, st.cfg.Lanes, st.cfg.Beats)
	}
	if rc.cfg.Adapt != st.adaptive {
		return nil, fmt.Errorf("%w: claimed adaptive=%v, session adaptive=%v",
			ErrResumeMismatch, rc.cfg.Adapt, st.adaptive)
	}
	st.refreshTotals()
	switch {
	case rc.totals.Frames == st.totals.Frames:
		if rc.totals != st.totals {
			return nil, fmt.Errorf("%w: claimed totals diverge at frame %d", ErrResumeMismatch, st.totals.Frames)
		}
		for l := 0; l < st.cfg.Lanes; l++ {
			if rc.coded[l] != st.ls.Lane(l).State() || rc.raw[l] != st.rawStates[l] {
				return nil, fmt.Errorf("%w: lane %d line state diverges", ErrResumeMismatch, l)
			}
		}
		if st.adaptive {
			for l := 0; l < st.cfg.Lanes; l++ {
				ctl := st.ls.Lane(l).Adapter().(*adapt.Controller)
				if int(rc.live[l]) != ctl.LiveIndex() || int(rc.laneSwitches[l]) != ctl.Switches() {
					return nil, fmt.Errorf("%w: lane %d adaptive state diverges", ErrResumeMismatch, l)
				}
			}
		}
		return nil, nil
	case rc.totals.Frames+1 == st.totals.Frames && st.prevValid:
		// The client never saw the last frame's reply: validate the claim
		// against the pre-frame snapshot and hand the lost masks back. The
		// adaptive per-lane state is not re-validated here — the snapshot
		// does not extend to the controllers — but the reply carries the
		// current adaptive state, so the client's mirror resynchronises
		// regardless of what it believed. Switch counts are exempt for the
		// same reason: the lost frame's SWITCH notices flush ahead of its
		// reply, so the client may have counted them even though it never
		// saw the masks.
		claimed, prev := rc.totals, st.prevTotals
		claimed.Switches, prev.Switches = 0, 0
		if claimed != prev {
			return nil, fmt.Errorf("%w: claimed totals diverge at frame %d", ErrResumeMismatch, rc.totals.Frames)
		}
		for l := 0; l < st.cfg.Lanes; l++ {
			if rc.coded[l] != st.prevCoded[l] || rc.raw[l] != st.prevRaw[l] {
				return nil, fmt.Errorf("%w: lane %d line state diverges", ErrResumeMismatch, l)
			}
		}
		return st.maskBuf, nil
	default:
		return nil, fmt.Errorf("%w: claimed frame %d, session at frame %d",
			ErrResumeMismatch, rc.totals.Frames, st.totals.Frames)
	}
}

// seedFromClaim seeds a freshly built session at a resume claim's wire
// state: per-lane coded and raw line states, totals, and — for adaptive
// sessions — each lane's controller re-seeded at the claimed live scheme
// and switch count, exactly as the switch protocol re-seeds shadow chains.
func (st *sessState) seedFromClaim(rc resumeClaim) error {
	for l := 0; l < st.cfg.Lanes; l++ {
		st.ls.Lane(l).SeedState(rc.coded[l])
		st.rawStates[l] = rc.raw[l]
	}
	if st.adaptive {
		for l := 0; l < st.cfg.Lanes; l++ {
			ctl := st.ls.Lane(l).Adapter().(*adapt.Controller)
			// Per-lane bursts resume at the claimed frame count: resumable
			// sessions reject batches, so every lane has seen exactly one
			// burst per frame.
			if err := ctl.Reseed(int(rc.live[l]), rc.coded[l], rc.totals.Frames, int(rc.laneSwitches[l])); err != nil {
				return err
			}
		}
		st.switches = rc.totals.Switches
	}
	st.totals = rc.totals
	st.codedBase = rc.totals.Coded
	return nil
}

// replyState assembles the success body of a resume reply from the
// session's current state.
func (st *sessState) replyState(masks []byte) resumeReplyState {
	rs := resumeReplyState{totals: st.totals, masks: masks}
	if st.adaptive {
		rs.live = make([]uint8, st.cfg.Lanes)
		rs.laneSwitches = make([]uint32, st.cfg.Lanes)
		for l := 0; l < st.cfg.Lanes; l++ {
			ctl := st.ls.Lane(l).Adapter().(*adapt.Controller)
			rs.live[l] = uint8(ctl.LiveIndex())
			rs.laneSwitches[l] = uint32(ctl.Switches())
		}
	}
	return rs
}

// resumeReply answers one msgResume. Like openReply, the payload's leading
// uvarint session id doubles as the reply prefix, so the header is written
// bare.
func (c *conn) resumeReply(sid uint64, status, mode byte, msg string, rs resumeReplyState) error {
	c.noticeBuf = appendResumeReply(c.noticeBuf[:0], sid, status, mode, msg, rs)
	putHeader(&c.hdr, msgResumeReply, len(c.noticeBuf))
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(c.noticeBuf)
	return err
}
