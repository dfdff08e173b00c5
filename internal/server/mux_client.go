package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"

	"dbiopt/internal/bus"
	"dbiopt/internal/trace"
)

// MuxClient is the Go-side speaker of the dbiserve protocol: one TCP
// connection carrying many logical sessions, each with its own scheme and
// continuous per-lane wire state on the server. A MuxClient is safe for
// concurrent use — calls from any session are serialised on an internal
// mutex, because the client drives the connection request/response. For
// pipelined (windowed, latency-measured) traffic, drive the wire format
// directly as RunLoad does.
type MuxClient struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	addr   string
	def    SessionConfig
	opts   MuxOptions
	rng    *rand.Rand // jitter source; seeded, so delays replay
	stats  MuxStats
	closed bool
	nextID uint64

	sessions map[uint64]*MuxSession

	hdr     [5]byte
	sidBuf  [binary.MaxVarintLen64]byte
	payload []byte // reusable receive buffer
}

// MuxSession is one logical session of a MuxClient. Its methods may be
// called from any goroutine; the parent client serialises them.
type MuxSession struct {
	c      *MuxClient
	id     uint64
	cfg    SessionConfig
	scheme string
	closed bool

	frameBuf []byte
	inv      []bool

	// switches collects the session's SWITCH notices, in arrival (=
	// switch) order. Guarded by the parent client's mutex.
	switches []SwitchNote

	// Resume mirror (token != 0): the client-side replica of the wire
	// state the server holds for this session, advanced per acknowledged
	// frame from the sent payload and returned masks, and per SWITCH
	// notice. It becomes the msgResume claim after a disconnect. Guarded
	// by the parent client's mutex.
	token     uint64
	mirTotals Totals
	mirCoded  []bus.LineState
	mirRaw    []bus.LineState
	cands     []string // adaptive candidate names, in server order
	mirLive   []uint8
	mirSw     []uint32
}

// DialMux connects to a dbiserve instance. def supplies the connection
// defaults a session's Open config may lean on (scheme, weights, adaptive
// settings); its geometry defaults to 1 lane × bus.BurstLength beats, as
// Dial's does.
func DialMux(addr string, def SessionConfig) (*MuxClient, error) {
	return DialMuxOpts(addr, def, MuxOptions{})
}

// DialMuxOpts is DialMux with the fault-tolerance knobs: a retry policy
// (reconnect with exponential backoff, resuming every resumable session)
// and a dial override (how the chaos harness injects faults).
func DialMuxOpts(addr string, def SessionConfig, opts MuxOptions) (*MuxClient, error) {
	if def.Lanes == 0 {
		def.Lanes = 1
	}
	if def.Beats == 0 {
		def.Beats = bus.BurstLength
	}
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if opts.Retry.MaxAttempts > 0 {
		opts.Retry = opts.Retry.withDefaults()
	}
	c := &MuxClient{
		addr:     addr,
		def:      def,
		opts:     opts,
		rng:      newJitterSource(opts.Retry.Seed),
		sessions: make(map[uint64]*MuxSession),
	}
	conn, err := dialTransport(addr, opts.Dial)
	if err != nil {
		return nil, err
	}
	if err := c.attach(conn); err != nil {
		return nil, err
	}
	return c, nil
}

// attach installs a freshly dialled transport and performs the handshake.
func (c *MuxClient) attach(conn net.Conn) error {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	if err := writeHandshake(w, c.def); err != nil {
		conn.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return err
	}
	if err := readReply(r); err != nil {
		conn.Close()
		return err
	}
	c.conn, c.r, c.w, c.closed = conn, r, w, false
	return nil
}

// send writes one request whose payload is prefixed with the session id.
// Caller holds c.mu.
func (c *MuxClient) send(typ byte, sid uint64, payload []byte) error {
	sn := binary.PutUvarint(c.sidBuf[:], sid)
	putHeader(&c.hdr, typ, sn+len(payload))
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(c.sidBuf[:sn]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// sendBare writes one connection-scoped request (no session id). Caller
// holds c.mu.
func (c *MuxClient) sendBare(typ byte, payload []byte) error {
	putHeader(&c.hdr, typ, len(payload))
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// recv reads one reply, splitting off the session-id prefix. The body
// aliases the client's receive buffer. Caller holds c.mu.
func (c *MuxClient) recv() (typ byte, sid uint64, body []byte, err error) {
	gotTyp, n, err := readHeader(c.r, &c.hdr)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("server: reading reply: %w", err)
	}
	if cap(c.payload) < n {
		c.payload = make([]byte, n)
	}
	buf := c.payload[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return 0, 0, nil, fmt.Errorf("server: reading reply payload: %w", err)
	}
	sid, sn := binary.Uvarint(buf)
	if sn <= 0 {
		return 0, 0, nil, fmt.Errorf("server: reply %q with a malformed session id varint", gotTyp)
	}
	return gotTyp, sid, buf[sn:], nil
}

// roundTrip sends one request and reads replies until the matching one
// arrives, routing SWITCH notices into their sessions' logs on the way. A
// msgError reply surfaces as an error (session id 0 additionally marks the
// connection broken). Caller holds c.mu; the returned body aliases the
// receive buffer and is valid until the next call.
func (c *MuxClient) roundTrip(typ byte, sid uint64, payload []byte, want byte) ([]byte, error) {
	if c.closed {
		return nil, fmt.Errorf("server: client is closed")
	}
	var err error
	if typ == msgQuit || typ == msgResume {
		// The connection-scoped request — and msgResume, whose payload
		// already leads with its (new) session id.
		err = c.sendBare(typ, payload)
	} else {
		err = c.send(typ, sid, payload)
	}
	if err != nil {
		return nil, err
	}
	for {
		gotTyp, gotSid, body, err := c.recv()
		if err != nil {
			return nil, err
		}
		switch gotTyp {
		case msgSwitch:
			note, err := parseSwitchNote(body)
			if err != nil {
				return nil, err
			}
			if sess := c.sessions[gotSid]; sess != nil {
				sess.switches = append(sess.switches, note)
				sess.noteSwitchMirror(note)
			}
			continue
		case msgError:
			if gotSid == 0 {
				c.closed = true
				c.conn.Close()
			}
			return nil, fmt.Errorf("server: %s", body)
		case want:
			if gotSid != sid {
				return nil, fmt.Errorf("server: reply for session %d, want %d", gotSid, sid)
			}
			return body, nil
		default:
			return nil, fmt.Errorf("server: unexpected reply type %q (want %q)", gotTyp, want)
		}
	}
}

// Open opens one logical session. Zero-valued geometry defaults to the
// connection's (DialMux's def); an empty scheme and zero weights defer to
// the connection, then server, defaults. A rejected open leaves the
// connection and its other sessions running.
func (c *MuxClient) Open(cfg SessionConfig) (*MuxSession, error) {
	if cfg.Lanes == 0 {
		cfg.Lanes = c.def.Lanes
	}
	if cfg.Beats == 0 {
		cfg.Beats = c.def.Beats
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	sid := c.nextID
	body, err := c.roundTrip(msgOpen, sid, appendConfigBody(nil, cfg), msgOpenReply)
	if err != nil {
		return nil, err
	}
	status, text, err := parseOpenReplyBody(body)
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, statusErr(status, text)
	}
	sess := &MuxSession{
		c:        c,
		id:       sid,
		cfg:      cfg,
		scheme:   text,
		token:    cfg.ResumeToken,
		frameBuf: make([]byte, cfg.Lanes*cfg.Beats),
		inv:      make([]bool, cfg.Beats),
	}
	if sess.token != 0 {
		cands := parseAdaptiveScheme(text)
		if cands != nil && !cfg.Adapt {
			// The server made the session adaptive through its own
			// defaults; the mirror can only track adaptive state the claim
			// can also carry, which requires Adapt set explicitly.
			c.roundTrip(msgCloseSess, sid, nil, msgTotalsReply) //nolint:errcheck
			return nil, fmt.Errorf("server: resumable session resolved %s; set SessionConfig.Adapt explicitly so the resume claim carries the adaptive state", text)
		}
		sess.mirrorInit(cands)
	}
	c.sessions[sid] = sess
	return sess, nil
}

// Close ends the connection gracefully: the server replies with the
// aggregate totals over every still-open session, then both sides close.
// Closing an already-closed client returns zero totals and no error.
func (c *MuxClient) Close() (Totals, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Totals{}, nil
	}
	reply, err := c.roundTrip(msgQuit, 0, nil, msgTotalsReply)
	c.closed = true
	cerr := c.conn.Close()
	for sid, sess := range c.sessions {
		sess.closed = true
		delete(c.sessions, sid)
	}
	if err != nil {
		return Totals{}, err
	}
	if len(reply) != totalsLen {
		return Totals{}, fmt.Errorf("server: totals reply is %d bytes, want %d", len(reply), totalsLen)
	}
	return parseTotals(reply), cerr
}

// Scheme returns the registry name the server resolved for this session.
// An adaptive session reports "ADAPTIVE(candidate,candidate,...)".
func (s *MuxSession) Scheme() string { return s.scheme }

// Config returns the session geometry.
func (s *MuxSession) Config() SessionConfig { return s.cfg }

// Switches returns the session's SWITCH notices received so far, in switch
// order; current as of the last completed call. The returned slice is a
// copy.
func (s *MuxSession) Switches() []SwitchNote {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	out := make([]SwitchNote, len(s.switches))
	copy(out, s.switches)
	return out
}

// EncodeFrame transmits one frame through the session and returns the
// per-lane wire images the server chose, reconstructed from the payload
// and the returned inversion masks. The frame must match the session
// geometry.
func (s *MuxSession) EncodeFrame(f bus.Frame) ([]bus.Wire, error) {
	// The payload is staged in the shared frameBuf, which the resume mirror
	// reads back after the reply: both happen under the client mutex, or a
	// concurrent call could swap the payload while it is on the wire.
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server: session is closed")
	}
	if f.Lanes() != s.cfg.Lanes {
		return nil, fmt.Errorf("server: frame has %d lanes, session has %d", f.Lanes(), s.cfg.Lanes)
	}
	for l, b := range f {
		if len(b) != s.cfg.Beats {
			return nil, fmt.Errorf("server: lane %d burst has %d beats, session has %d", l, len(b), s.cfg.Beats)
		}
		copy(s.frameBuf[l*s.cfg.Beats:], b)
	}
	masks, err := s.c.roundTrip(msgFrame, s.id, s.frameBuf, msgMasks)
	recovered := false
	if err != nil && s.token != 0 && s.c.opts.Retry.MaxAttempts > 0 && IsTransient(err) {
		// Transient death mid-frame: reconnect, resume, and settle this
		// frame exactly once (replayed masks or a re-send). recoverFrame
		// leaves the mirror already advanced over the frame.
		masks, err = s.c.recoverFrame(s, err)
		recovered = true
	}
	if err != nil {
		return nil, err
	}
	mb := maskBytes(s.cfg.Beats)
	if len(masks) != s.cfg.Lanes*mb {
		return nil, fmt.Errorf("server: mask reply is %d bytes, want %d", len(masks), s.cfg.Lanes*mb)
	}
	if s.token != 0 && !recovered {
		s.applyMasks(s.frameBuf, masks)
	}
	wires := make([]bus.Wire, s.cfg.Lanes)
	for l, b := range f {
		unpackMask(s.inv, masks[l*mb:(l+1)*mb])
		wires[l] = bus.Apply(b, s.inv)
	}
	return wires, nil
}

// EncodeBatch transmits a batch of frames as one message and returns the
// session's cumulative totals afterwards. The batch travels as one binary
// trace blob (the internal/trace format), lane by lane in frame order; the
// server validates it whole, then encodes it frame by frame through the
// session's lane set, exactly as trace.FrameReader would replay it
// offline.
func (s *MuxSession) EncodeBatch(frames []bus.Frame) (Totals, error) {
	for i, f := range frames {
		if f.Lanes() != s.cfg.Lanes {
			return Totals{}, fmt.Errorf("server: batch frame %d has %d lanes, session has %d", i, f.Lanes(), s.cfg.Lanes)
		}
	}
	blob, err := encodeTraceBlob(frames, s.cfg.Beats)
	if err != nil {
		return Totals{}, err
	}
	return s.EncodeTrace(blob)
}

// encodeTraceBlob serialises frames into one in-memory "DBIT" trace, lane
// by lane in frame order — the batch payload representation.
func encodeTraceBlob(frames []bus.Frame, beats int) ([]byte, error) {
	var blob bytes.Buffer
	tw, err := trace.NewWriter(&blob, beats)
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		for _, b := range f {
			if err := tw.Write(b); err != nil {
				return nil, err
			}
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return blob.Bytes(), nil
}

// EncodeTrace transmits a pre-serialised binary trace blob ("DBIT" format,
// as written by trace.Writer or dbitrace gen) as one batch. The blob's beat
// count must match the session's.
func (s *MuxSession) EncodeTrace(blob []byte) (Totals, error) {
	if s.token != 0 {
		// Mirrors the server-side rejection: one frame of reply history
		// cannot reconcile a lost batch reply.
		return Totals{}, fmt.Errorf("server: batch messages are not supported on a resumable session")
	}
	if len(blob) > MaxPayload {
		return Totals{}, fmt.Errorf("server: batch of %d bytes exceeds the %d byte payload limit", len(blob), MaxPayload)
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.closed {
		return Totals{}, fmt.Errorf("server: session is closed")
	}
	return s.totalsRoundTrip(msgBatch, blob)
}

// Totals fetches the session's cumulative activity accounting.
func (s *MuxSession) Totals() (Totals, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.closed {
		return Totals{}, fmt.Errorf("server: session is closed")
	}
	return s.totalsRoundTrip(msgTotals, nil)
}

// Close ends the session gracefully, collecting its final totals; the
// connection and its other sessions keep running. Closing an
// already-closed session returns zero totals and no error.
func (s *MuxSession) Close() (Totals, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.closed {
		return Totals{}, nil
	}
	t, err := s.totalsRoundTrip(msgCloseSess, nil)
	s.closed = true
	delete(s.c.sessions, s.id)
	return t, err
}

// totalsRoundTrip performs one request answered by msgTotalsReply. Caller
// holds the client mutex.
func (s *MuxSession) totalsRoundTrip(typ byte, payload []byte) (Totals, error) {
	reply, err := s.c.roundTrip(typ, s.id, payload, msgTotalsReply)
	if err != nil {
		return Totals{}, err
	}
	if len(reply) != totalsLen {
		return Totals{}, fmt.Errorf("server: totals reply is %d bytes, want %d", len(reply), totalsLen)
	}
	return parseTotals(reply), nil
}
