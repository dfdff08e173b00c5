// Package server implements dbiserve, a long-lived batched streaming encode
// service over TCP: clients open sessions, pick a coding scheme by registry
// name, and stream framed bursts that the server encodes through persistent
// per-lane wire state — the serving-side counterpart of the offline
// Stream/LaneSet drivers, with bit-identical results.
//
// The wire protocol (DESIGN.md §6) is protocol v3 with the mux flag, and
// nothing else. It deliberately reuses the vocabulary the offline tools
// already speak:
//
//   - a connection opens with a fixed handshake naming the protocol version
//     and the connection's session defaults (scheme, weights, bus geometry);
//   - one socket carries any number of logical sessions, each its own
//     LaneSet and scheme (or adaptive controller), opened and closed
//     explicitly with msgOpen/msgCloseSess; every message payload is
//     prefixed with its session id as a uvarint;
//   - single frames travel as the raw lanes×beats payload bytes, answered
//     with the per-beat DBI inversion masks — payload plus mask is the whole
//     wire image, exactly as bus.Wire defines it;
//   - batches travel as a complete binary trace blob (the internal/trace
//     "DBIT" container, burst i → lane i%lanes exactly like
//     trace.FrameReader), answered with cumulative activity totals; a batch
//     is validated whole, then encoded frame by frame in place, through the
//     same lane set as single frames.
//
// A one-session client (Dial, Client) is a MuxClient with one open session;
// there is no second protocol and no second client implementation.
//
// Per-session state lives in one LaneSet, so interleaved frames and batches
// see one continuous per-lane Markov chain, and the steady-state frame path
// performs zero heap allocations per burst (the offline EncodeInto
// property, carried over the network).
package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dbiopt/internal/bus"
)

// Protocol constants. All integers are little-endian; session ids are
// unsigned varints (encoding/binary uvarint).
const (
	// helloMagic opens every client handshake.
	helloMagic = "DBIS"
	// replyMagic opens the server's handshake response.
	replyMagic = "DBIO"
	// protocolVersion is the one protocol revision this package speaks:
	// v3, multiplexed (the flagMux handshake bit is mandatory). Every
	// message payload is prefixed with a uvarint session id, and sessions
	// open/close explicitly with msgOpen/msgCloseSess. Earlier revisions
	// (v1, v2 single-session) and non-mux v3 handshakes are refused.
	protocolVersion = 3

	// MaxLanes bounds the per-session lane count a handshake may request.
	MaxLanes = 4096
	// MaxPayload bounds a single message payload (64 MiB), the batch-size
	// half of the backpressure contract: a client cannot buffer more than
	// one payload of work ahead of the encoder on a single session.
	MaxPayload = 64 << 20
)

// Message types, client to server.
const (
	// msgFrame carries one frame: uvarint session id, then lanes×beats raw
	// payload bytes; the server answers msgMasks.
	msgFrame = 'F'
	// msgBatch carries a uvarint session id and a complete "DBIT" trace
	// blob (internal/trace binary format); the server encodes it and
	// answers msgTotalsReply.
	msgBatch = 'B'
	// msgTotals requests the session's cumulative totals; answered with
	// msgTotalsReply. The payload is the uvarint session id.
	msgTotals = 'T'
	// msgQuit ends the connection: the server answers msgTotalsReply with
	// the aggregate totals over every still-open session (session id 0)
	// and closes the connection.
	msgQuit = 'Q'
	// msgOpen opens a logical session: uvarint session id (client-chosen,
	// nonzero, unused) followed by a session-config body — the same encoding
	// the handshake uses after its magic and version bytes. Answered with
	// msgOpenReply; a failed open rejects that session only, the connection
	// survives.
	msgOpen = 'O'
	// msgCloseSess closes one logical session: the payload is the uvarint
	// session id, the answer the session's final msgTotalsReply.
	msgCloseSess = 'D'
	// msgResume re-opens a session under a fresh connection after the previous
	// one died: uvarint new session id, the session config body (flagResume
	// set, carrying the resume token), the client's claimed wire state
	// (cumulative totals plus the per-lane coded and raw line states, and the
	// adaptive per-lane live scheme and switch counts), and an FNV-64a checksum
	// over everything before it. Answered with msgResumeReply. The server
	// reattaches the parked session when the claimed state reconciles with the
	// live chain, or rebuilds one seeded at the claimed state when the parked
	// session already expired.
	msgResume = 'U'
)

// Message types, server to client.
const (
	// msgMasks carries the per-lane inversion masks of one encoded frame
	// after the uvarint session id: lanes × ⌈beats/8⌉ bytes, lane-major,
	// bit t (LSB first) set when beat t transmits inverted.
	msgMasks = 'M'
	// msgTotalsReply carries a session's cumulative Totals after the
	// uvarint session id (0 for the msgQuit aggregate).
	msgTotalsReply = 'C'
	// msgError carries an error description after the uvarint session id
	// of the session it concerns; that session fails, the connection
	// survives. Session id 0 marks a connection-fatal error, after which
	// the server closes.
	msgError = 'E'
	// msgSwitch is the SWITCH marker of an adaptive session: the server's
	// controller changed the live scheme on one lane. Notices are queued
	// and sent immediately before the next reply, so a client always
	// learns about a renegotiation no later than the reply to the message
	// whose encoding caused it. Payload (after the session-id prefix):
	// lane u16 | ordinal u32 | burst u64 | fromLen u8 | from | toLen u8 |
	// to.
	msgSwitch = 'W'
	// msgOpenReply answers msgOpen: uvarint session id, status u8 (0 =
	// accepted; see the status codes below), u16 text length, then the resolved
	// scheme name (accepted) or the rejection reason.
	msgOpenReply = 'R'
	// msgResumeReply answers msgResume: uvarint session id, status u8, mode u8
	// (0 = reattached, 1 = rebuilt), u16 text length + text (scheme name or
	// rejection reason), and on success the server's current session totals,
	// then — when the server is one frame ahead of the claim (the reply to the
	// client's last frame was lost in the disconnect) — the packed inversion
	// masks of that frame, so the client recovers the lost reply without
	// re-encoding, and finally the per-lane adaptive state (live candidate +
	// switch count), so a SWITCH notice lost with that reply cannot leave the
	// client's mirror stale.
	msgResumeReply = 'V'
	// msgBusy is an overload rejection sent before any handshake exchange:
	// when the accept path sheds a connection (MaxConns saturated with
	// shedding enabled, or a drain in progress) the server answers the dial
	// with this frame and closes. Payload: status u8 (statusBusy or
	// statusDraining) + u16 text length + text. Clients detect it by the
	// leading 'Y' where the "DBIO" reply magic was expected.
	msgBusy = 'Y'
)

// Reply status codes, shared by the handshake reply byte, msgOpenReply,
// msgResumeReply and msgBusy. Zero is success; the nonzero codes refine
// transient (busy, draining) from fatal rejections.
const (
	statusOK       = 0
	statusError    = 1 // fatal: malformed, rejected config, state mismatch
	statusBusy     = 2 // transient: connection or session capacity reached
	statusDraining = 3 // transient: graceful shutdown in progress
)

// Handshake flag bits.
const (
	// flagAdapt marks an adaptive-session request: the config body
	// carries the adaptive block (window, margin, candidate names) after
	// the scheme name.
	flagAdapt = 1 << 0
	// flagMux marks a multiplexed connection and is mandatory on the
	// handshake: the handshake's scheme and weights become the
	// connection's defaults for msgOpen, and every subsequent message
	// carries a uvarint session-id prefix. It has no meaning on msgOpen
	// and msgResume config bodies.
	flagMux = 1 << 1
	// flagResume marks a resumable session: the config body carries a
	// nonzero u64 resume token after the adaptive block. A session opened
	// with a token is parked — not closed — when its connection dies, and a
	// later msgResume presenting the same token reattaches it. Only
	// meaningful on msgOpen/msgResume config bodies; the handshake rejects
	// it (tokens are per-session, a connection default would collide).
	flagResume = 1 << 2
)

// SessionConfig is what a client asks of the server when opening a session
// (one msgOpen), and — as the handshake body — a connection's defaults.
type SessionConfig struct {
	// Scheme is the registered scheme name ("OPT-FIXED", "DC", ...); empty
	// selects the connection's default (the mux handshake scheme), falling
	// back to the server's default scheme.
	Scheme string
	// Alpha and Beta are the weights for weighted schemes (and the
	// comparison weights of an adaptive session). Both zero selects the
	// connection/server defaults; weight-free schemes ignore them either
	// way.
	Alpha, Beta float64
	// Lanes is the byte-lane count of the session's bus (1..MaxLanes).
	Lanes int
	// Beats is the burst length in beats (1..255, matching the trace
	// format's range).
	Beats int

	// Adapt requests an adaptive session: instead of one fixed scheme the
	// server runs the internal/adapt windowed controller per lane,
	// arbitrating between AdaptCandidates and announcing every switch with
	// a SWITCH notice. Scheme is ignored for adaptive sessions.
	Adapt bool
	// AdaptWindow is the decision-window length in bursts; 0 defers to the
	// server's default (which itself defaults to adapt.DefaultWindow).
	AdaptWindow int
	// AdaptMargin is the fractional hysteresis in [0, 1); 0 defers to the
	// server's default.
	AdaptMargin float64
	// AdaptCandidates are the candidate scheme names; empty defers to the
	// server's default candidate set.
	AdaptCandidates []string

	// ResumeToken, when nonzero, makes the session resumable: the server
	// parks it instead of closing it when the connection dies, and a later
	// msgResume presenting the same token (from any connection) reattaches
	// it with its wire state intact. Tokens are client-chosen and must be
	// unique per server; a colliding open is refused. Resumable sessions
	// reject batch messages — batch replies carry only totals, which is not
	// enough for the client to mirror the wire state a resume must claim.
	// Per session only (msgOpen/msgResume); the handshake rejects tokens.
	ResumeToken uint64
}

// Validate reports an error for out-of-range session geometry.
func (c SessionConfig) Validate() error {
	if c.Lanes < 1 || c.Lanes > MaxLanes {
		return fmt.Errorf("server: lanes must be in 1..%d, got %d", MaxLanes, c.Lanes)
	}
	if c.Beats < 1 || c.Beats > 255 {
		return fmt.Errorf("server: beats must be in 1..255, got %d", c.Beats)
	}
	if len(c.Scheme) > 255 {
		return fmt.Errorf("server: scheme name longer than 255 bytes")
	}
	if c.Adapt {
		if c.AdaptWindow < 0 || c.AdaptWindow > math.MaxUint32 {
			return fmt.Errorf("server: adapt window out of range: %d", c.AdaptWindow)
		}
		if c.AdaptMargin < 0 || c.AdaptMargin >= 1 || c.AdaptMargin != c.AdaptMargin {
			return fmt.Errorf("server: adapt margin must be in [0, 1), got %g", c.AdaptMargin)
		}
		if len(c.AdaptCandidates) > 255 {
			return fmt.Errorf("server: more than 255 adapt candidates")
		}
		for _, name := range c.AdaptCandidates {
			if name == "" || len(name) > 255 {
				return fmt.Errorf("server: adapt candidate name %q out of range", name)
			}
		}
	}
	return nil
}

// Wire layout of a session-config body, shared verbatim by the handshake
// (after its 5-byte magic+version prelude) and by msgOpen/msgResume (after
// the uvarint session id): beats u8 | lanes u16 | alpha f64 | beta f64 |
// schemeLen u8 | flags u8 | scheme name | [flagAdapt: window u32 |
// margin f64 | candCount u8 | (nameLen u8 | name)*] | [flagResume:
// token u64].
const configFixedLen = 1 + 2 + 8 + 8 + 1 + 1

// configFlagsOff is the offset of the flags byte inside a config body.
const configFlagsOff = 20

// handshakeLen is the fixed part of the client handshake: magic, version,
// then the fixed part of the config body.
const handshakeLen = 4 + 1 + configFixedLen

// appendConfigBody serialises the session-config body onto dst, without
// flagMux (the handshake adds it).
func appendConfigBody(dst []byte, c SessionConfig) []byte {
	var fixed [configFixedLen]byte
	fixed[0] = byte(c.Beats)
	binary.LittleEndian.PutUint16(fixed[1:3], uint16(c.Lanes))
	binary.LittleEndian.PutUint64(fixed[3:11], math.Float64bits(c.Alpha))
	binary.LittleEndian.PutUint64(fixed[11:19], math.Float64bits(c.Beta))
	fixed[19] = byte(len(c.Scheme))
	if c.Adapt {
		fixed[configFlagsOff] |= flagAdapt
	}
	if c.ResumeToken != 0 {
		fixed[configFlagsOff] |= flagResume
	}
	dst = append(dst, fixed[:]...)
	dst = append(dst, c.Scheme...)
	if c.Adapt {
		var blk [13]byte
		binary.LittleEndian.PutUint32(blk[0:4], uint32(c.AdaptWindow))
		binary.LittleEndian.PutUint64(blk[4:12], math.Float64bits(c.AdaptMargin))
		blk[12] = byte(len(c.AdaptCandidates))
		dst = append(dst, blk[:]...)
		for _, name := range c.AdaptCandidates {
			dst = append(dst, byte(len(name)))
			dst = append(dst, name...)
		}
	}
	if c.ResumeToken != 0 {
		var tok [8]byte
		binary.LittleEndian.PutUint64(tok[:], c.ResumeToken)
		dst = append(dst, tok[:]...)
	}
	return dst
}

// readConfigBody parses a session-config body from r, reporting whether
// flagMux was set. Unknown flag bits are rejected, not ignored: a flag
// implies an appended block this version would not consume, which would
// desync the message stream into confusing downstream errors.
func readConfigBody(r io.Reader) (c SessionConfig, mux bool, err error) {
	var fixed [configFixedLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return SessionConfig{}, false, fmt.Errorf("server: reading handshake: %w", err)
	}
	flags := fixed[configFlagsOff]
	if unknown := flags &^ (flagAdapt | flagMux | flagResume); unknown != 0 {
		return SessionConfig{}, false, fmt.Errorf("server: unsupported handshake flags %#x", unknown)
	}
	c = SessionConfig{
		Beats: int(fixed[0]),
		Lanes: int(binary.LittleEndian.Uint16(fixed[1:3])),
		Alpha: math.Float64frombits(binary.LittleEndian.Uint64(fixed[3:11])),
		Beta:  math.Float64frombits(binary.LittleEndian.Uint64(fixed[11:19])),
		Adapt: flags&flagAdapt != 0,
	}
	if n := int(fixed[19]); n > 0 {
		name := make([]byte, n)
		if _, err := io.ReadFull(r, name); err != nil {
			return SessionConfig{}, false, fmt.Errorf("server: reading scheme name: %w", err)
		}
		c.Scheme = string(name)
	}
	if c.Adapt {
		var blk [13]byte
		if _, err := io.ReadFull(r, blk[:]); err != nil {
			return SessionConfig{}, false, fmt.Errorf("server: reading adapt block: %w", err)
		}
		c.AdaptWindow = int(binary.LittleEndian.Uint32(blk[0:4]))
		c.AdaptMargin = math.Float64frombits(binary.LittleEndian.Uint64(blk[4:12]))
		for i := 0; i < int(blk[12]); i++ {
			var ln [1]byte
			if _, err := io.ReadFull(r, ln[:]); err != nil {
				return SessionConfig{}, false, fmt.Errorf("server: reading adapt candidate: %w", err)
			}
			name := make([]byte, ln[0])
			if _, err := io.ReadFull(r, name); err != nil {
				return SessionConfig{}, false, fmt.Errorf("server: reading adapt candidate: %w", err)
			}
			c.AdaptCandidates = append(c.AdaptCandidates, string(name))
		}
	}
	if flags&flagResume != 0 {
		var tok [8]byte
		if _, err := io.ReadFull(r, tok[:]); err != nil {
			return SessionConfig{}, false, fmt.Errorf("server: reading resume token: %w", err)
		}
		c.ResumeToken = binary.LittleEndian.Uint64(tok[:])
		if c.ResumeToken == 0 {
			// A zero token would re-serialise without the flag and desync
			// the round-trip property; reject it at the parse.
			return SessionConfig{}, false, fmt.Errorf("server: resume flag with a zero token")
		}
	}
	if err := c.Validate(); err != nil {
		return SessionConfig{}, false, err
	}
	return c, flags&flagMux != 0, nil
}

// parseConfigBody parses a session-config body from a complete payload
// slice (the msgOpen path), rejecting trailing bytes.
func parseConfigBody(b []byte) (SessionConfig, error) {
	br := bytes.NewReader(b)
	c, _, err := readConfigBody(br)
	if err != nil {
		return SessionConfig{}, err
	}
	if br.Len() != 0 {
		return SessionConfig{}, fmt.Errorf("server: %d trailing bytes after session config", br.Len())
	}
	return c, nil
}

// writeHandshake serialises a connection request onto w: magic, version,
// then the session-config body with flagMux set — the config is the
// connection's defaults for msgOpen.
func writeHandshake(w io.Writer, c SessionConfig) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.ResumeToken != 0 {
		return fmt.Errorf("server: resume tokens are per-session (msgOpen), not a connection default")
	}
	buf := make([]byte, 5, handshakeLen+len(c.Scheme))
	copy(buf, helloMagic)
	buf[4] = protocolVersion
	buf = appendConfigBody(buf, c)
	buf[5+configFlagsOff] |= flagMux
	_, err := w.Write(buf)
	return err
}

// protocolHint ends the rejection every handshake other than v3-with-mux
// gets, telling an old client what to speak instead.
const protocolHint = "this server speaks protocol v3 with the mux flag"

// readHandshake parses a connection request from r. The version is checked
// before any version-dependent bytes are read, so an old client's (shorter)
// handshake is answered with a version error instead of blocking the accept
// slot forever on bytes that will never arrive.
func readHandshake(r io.Reader) (SessionConfig, error) {
	var pre [5]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return SessionConfig{}, fmt.Errorf("server: reading handshake: %w", err)
	}
	if string(pre[:4]) != helloMagic {
		return SessionConfig{}, fmt.Errorf("server: bad handshake magic %q", pre[:4])
	}
	if pre[4] != protocolVersion {
		return SessionConfig{}, fmt.Errorf("server: unsupported protocol version %d; %s", pre[4], protocolHint)
	}
	c, mux, err := readConfigBody(r)
	if err != nil {
		return SessionConfig{}, err
	}
	if !mux {
		return SessionConfig{}, fmt.Errorf("server: handshake without the mux flag; %s", protocolHint)
	}
	if c.ResumeToken != 0 {
		return SessionConfig{}, fmt.Errorf("server: resume tokens are per-session (msgOpen), not a connection default")
	}
	return c, nil
}

// writeReply sends the server's handshake response: statusOK with an
// empty text (sessions resolve their schemes at msgOpen), any other status
// the error text, after which the server closes.
func writeReply(w io.Writer, status byte, msg string) error {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	buf := make([]byte, 8, 8+len(msg))
	copy(buf, replyMagic)
	buf[4] = protocolVersion
	buf[5] = status
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(msg)))
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	return err
}

// appendBusyFrame serialises a complete msgBusy frame (header included):
// the overload rejection the accept path sends in place of a handshake
// exchange when it sheds a connection.
func appendBusyFrame(dst []byte, status byte, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	var hdr [5]byte
	putHeader(&hdr, msgBusy, 3+len(msg))
	dst = append(dst, hdr[:]...)
	dst = append(dst, status)
	var ln [2]byte
	binary.LittleEndian.PutUint16(ln[:], uint16(len(msg)))
	dst = append(dst, ln[:]...)
	dst = append(dst, msg...)
	return dst
}

// readReply parses the server's handshake response, returning the server's
// rejection as an error — typed (ErrBusy, ErrDraining) when the status
// code marks the rejection transient. A shed connection never sends the handshake reply at all: it answers the
// dial with a msgBusy frame, which this parser detects by the leading 'Y'
// and maps to the same typed errors.
func readReply(r io.Reader) error {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("server: reading handshake reply: %w", err)
	}
	if buf[0] == msgBusy {
		// A shed frame is at least 8 bytes (5-byte header + status + u16
		// text length), so the fixed read above never over-consumes.
		n := binary.LittleEndian.Uint32(buf[1:5])
		ln := int(binary.LittleEndian.Uint16(buf[6:8]))
		if n > MaxPayload || int(n) != 3+ln {
			return fmt.Errorf("server: malformed busy frame")
		}
		msg := make([]byte, ln)
		if _, err := io.ReadFull(r, msg); err != nil {
			return fmt.Errorf("server: reading busy frame: %w", err)
		}
		if err := statusErr(buf[5], string(msg)); err != nil {
			return err
		}
		return fmt.Errorf("server: malformed busy frame with ok status")
	}
	if string(buf[:4]) != replyMagic {
		return fmt.Errorf("server: bad reply magic %q", buf[:4])
	}
	if buf[4] != protocolVersion {
		return fmt.Errorf("server: unsupported protocol version %d", buf[4])
	}
	msg := make([]byte, binary.LittleEndian.Uint16(buf[6:8]))
	if _, err := io.ReadFull(r, msg); err != nil {
		return fmt.Errorf("server: reading handshake reply: %w", err)
	}
	return statusErr(buf[5], string(msg))
}

// putHeader writes a message header (type + payload length) into the
// caller's scratch to keep the frame hot path allocation-free.
func putHeader(hdr *[5]byte, typ byte, payloadLen int) {
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(payloadLen))
}

// readHeader reads the next message header from r.
func readHeader(r io.Reader, hdr *[5]byte) (typ byte, payloadLen int, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("server: payload of %d bytes exceeds the %d byte limit", n, MaxPayload)
	}
	return hdr[0], int(n), nil
}

// uvarintLen returns the encoded size of v as a uvarint (1..10 bytes), the
// session-id prefix length message framing must account for.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendOpenReply serialises a msgOpenReply payload: session id, status,
// and the resolved scheme name (statusOK) or rejection reason.
func appendOpenReply(dst []byte, sid uint64, status byte, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	var sb [binary.MaxVarintLen64]byte
	dst = append(dst, sb[:binary.PutUvarint(sb[:], sid)]...)
	dst = append(dst, status)
	var ln [2]byte
	binary.LittleEndian.PutUint16(ln[:], uint16(len(msg)))
	dst = append(dst, ln[:]...)
	dst = append(dst, msg...)
	return dst
}

// parseOpenReply deserialises a full msgOpenReply payload, session-id
// prefix included.
func parseOpenReply(b []byte) (sid uint64, status byte, msg string, err error) {
	sid, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("server: open reply with bad session id varint")
	}
	status, msg, err = parseOpenReplyBody(b[n:])
	return sid, status, msg, err
}

// parseOpenReplyBody deserialises a msgOpenReply payload after its
// session-id prefix (which MuxClient.recv has already split off).
func parseOpenReplyBody(rest []byte) (status byte, msg string, err error) {
	if len(rest) < 3 {
		return 0, "", fmt.Errorf("server: open reply of %d bytes is truncated", len(rest))
	}
	ln := int(binary.LittleEndian.Uint16(rest[1:3]))
	if len(rest) != 3+ln {
		return 0, "", fmt.Errorf("server: open reply of %d bytes is malformed", len(rest))
	}
	return rest[0], string(rest[3:]), nil
}

// msgResumeReply mode byte: how the server satisfied the resume.
const (
	// resumeReattached: the parked session object itself was reattached —
	// its LaneSet, adaptive controller and totals are the live originals,
	// so the continuation is bit-identical even mid-window.
	resumeReattached = 0
	// resumeRebuilt: the parked session had already expired (or never
	// parked — the claim arrived at a different server), and a fresh
	// session was seeded from the claimed wire state. Static schemes are
	// memoryless beyond the per-lane line state, so the continuation is
	// still bit-identical; adaptive sessions re-seed their shadow chains at
	// the claimed state exactly as the switch protocol does, but their
	// decision windows restart.
	resumeRebuilt = 1
)

// FNV-64a, inlined rather than via hash/fnv so the checksum needs no
// allocation and no hash.Hash indirection.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// resumeClaim is the client's account of a resumable session's wire state,
// carried by msgResume: everything the server needs to either validate a
// reattach against the parked original or rebuild an equivalent session
// from scratch. The per-lane line states are the full Markov state of the
// encode chains; the totals double as a cheap cross-check that client and
// server counted the same traffic.
type resumeClaim struct {
	// sid is the session id the resumed session will answer to on the new
	// connection (session-id space is per-connection, so it need not match
	// the id the session had before the disconnect).
	sid uint64
	// cfg is the original session config, flagResume set, carrying the
	// token that names the parked session.
	cfg SessionConfig
	// totals is the client's view of the cumulative totals after the last
	// acknowledged frame.
	totals Totals
	// coded and raw are the per-lane line states of the coded chain and the
	// raw (baseline) chain after the last acknowledged frame.
	coded, raw []bus.LineState
	// live and laneSwitches (adaptive sessions only) are the per-lane live
	// candidate index and switch count after the last acknowledged frame,
	// mirrored from the SWITCH notices.
	live         []uint8
	laneSwitches []uint32
}

// Wire layout of a msgResume payload: uvarint new session id | session
// config body (flagResume + token) | claimed totals | per-lane coded line
// states (data u8, dbi u8) | per-lane raw line states | [adaptive: per-lane
// live candidate u8, then per-lane switch count u32] | FNV-64a checksum u64
// over every preceding payload byte.

// appendResume serialises a msgResume payload onto dst.
func appendResume(dst []byte, rc resumeClaim) ([]byte, error) {
	if rc.cfg.ResumeToken == 0 {
		return nil, fmt.Errorf("server: resume claim without a token")
	}
	if err := rc.cfg.Validate(); err != nil {
		return nil, err
	}
	if len(rc.coded) != rc.cfg.Lanes || len(rc.raw) != rc.cfg.Lanes {
		return nil, fmt.Errorf("server: resume claim with %d/%d line states for %d lanes",
			len(rc.coded), len(rc.raw), rc.cfg.Lanes)
	}
	if rc.cfg.Adapt && (len(rc.live) != rc.cfg.Lanes || len(rc.laneSwitches) != rc.cfg.Lanes) {
		return nil, fmt.Errorf("server: adaptive resume claim with %d/%d lane entries for %d lanes",
			len(rc.live), len(rc.laneSwitches), rc.cfg.Lanes)
	}
	start := len(dst)
	var sb [binary.MaxVarintLen64]byte
	dst = append(dst, sb[:binary.PutUvarint(sb[:], rc.sid)]...)
	dst = appendConfigBody(dst, rc.cfg)
	var tb [totalsLen]byte
	putTotals(tb[:], rc.totals)
	dst = append(dst, tb[:]...)
	dst = appendLineStates(dst, rc.coded)
	dst = appendLineStates(dst, rc.raw)
	if rc.cfg.Adapt {
		dst = append(dst, rc.live...)
		for _, s := range rc.laneSwitches {
			var w [4]byte
			binary.LittleEndian.PutUint32(w[:], s)
			dst = append(dst, w[:]...)
		}
	}
	var ck [8]byte
	binary.LittleEndian.PutUint64(ck[:], fnv64a(dst[start:]))
	return append(dst, ck[:]...), nil
}

// parseResume deserialises and validates a msgResume payload. Anything that
// would not re-serialise bit-identically — a checksum mismatch, a
// non-minimal session-id varint, an out-of-range DBI byte, trailing or
// missing bytes — is rejected: a resume seeds encoder state, so a malformed
// claim must die here rather than corrupt a chain.
func parseResume(b []byte) (resumeClaim, error) {
	if len(b) < 8 {
		return resumeClaim{}, fmt.Errorf("server: resume payload of %d bytes is truncated", len(b))
	}
	body := b[:len(b)-8]
	if got := binary.LittleEndian.Uint64(b[len(b)-8:]); got != fnv64a(body) {
		return resumeClaim{}, fmt.Errorf("server: resume checksum mismatch")
	}
	var rc resumeClaim
	sid, n := binary.Uvarint(body)
	if n <= 0 || n != uvarintLen(sid) {
		return resumeClaim{}, fmt.Errorf("server: resume payload with bad session id varint")
	}
	br := bytes.NewReader(body[n:])
	cfg, mux, err := readConfigBody(br)
	if err != nil {
		return resumeClaim{}, err
	}
	if mux {
		return resumeClaim{}, fmt.Errorf("server: resume config with the mux flag")
	}
	if cfg.ResumeToken == 0 {
		return resumeClaim{}, fmt.Errorf("server: resume claim without a token")
	}
	rc.sid, rc.cfg = sid, cfg
	rest := body[len(body)-br.Len():]
	want := totalsLen + 4*cfg.Lanes
	if cfg.Adapt {
		want += 5 * cfg.Lanes
	}
	if len(rest) != want {
		return resumeClaim{}, fmt.Errorf("server: resume state of %d bytes, want %d", len(rest), want)
	}
	rc.totals = parseTotals(rest[:totalsLen])
	rest = rest[totalsLen:]
	if rc.coded, rest, err = parseLineStates(rest, cfg.Lanes); err != nil {
		return resumeClaim{}, err
	}
	if rc.raw, rest, err = parseLineStates(rest, cfg.Lanes); err != nil {
		return resumeClaim{}, err
	}
	if cfg.Adapt {
		rc.live = append([]uint8(nil), rest[:cfg.Lanes]...)
		rest = rest[cfg.Lanes:]
		rc.laneSwitches = make([]uint32, cfg.Lanes)
		for i := range rc.laneSwitches {
			rc.laneSwitches[i] = binary.LittleEndian.Uint32(rest[4*i:])
		}
	}
	return rc, nil
}

// appendLineStates serialises per-lane line states as (data, dbi) byte
// pairs.
func appendLineStates(dst []byte, states []bus.LineState) []byte {
	for _, ls := range states {
		d := byte(0)
		if ls.DBI {
			d = 1
		}
		dst = append(dst, ls.Data, d)
	}
	return dst
}

// parseLineStates deserialises lanes (data, dbi) byte pairs, rejecting DBI
// bytes other than 0/1 (they would not re-serialise identically).
func parseLineStates(b []byte, lanes int) ([]bus.LineState, []byte, error) {
	out := make([]bus.LineState, lanes)
	for i := range out {
		d, v := b[2*i], b[2*i+1]
		if v > 1 {
			return nil, nil, fmt.Errorf("server: resume line state with DBI byte %d", v)
		}
		out[i] = bus.LineState{Data: d, DBI: v == 1}
	}
	return out, b[2*lanes:], nil
}

// resumeReplyState is the success body of a msgResumeReply: the server's
// current totals, the lost-reply masks when the server's chain is one frame
// ahead of the claim (nil otherwise), and the per-lane adaptive state (nil
// for fixed-scheme sessions) with which the client re-seeds its mirror.
type resumeReplyState struct {
	totals       Totals
	masks        []byte
	live         []uint8
	laneSwitches []uint32
}

// appendResumeReply serialises a msgResumeReply payload: session id, status,
// mode, text (scheme name or rejection reason), and on success the state
// block above — totals | u32 maskLen + masks | u16 adaptive lane count +
// per-lane live u8 + per-lane switches u32.
func appendResumeReply(dst []byte, sid uint64, status, mode byte, msg string, rs resumeReplyState) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	var sb [binary.MaxVarintLen64]byte
	dst = append(dst, sb[:binary.PutUvarint(sb[:], sid)]...)
	dst = append(dst, status, mode)
	var ln [2]byte
	binary.LittleEndian.PutUint16(ln[:], uint16(len(msg)))
	dst = append(dst, ln[:]...)
	dst = append(dst, msg...)
	if status == statusOK {
		var tb [totalsLen]byte
		putTotals(tb[:], rs.totals)
		dst = append(dst, tb[:]...)
		var ml [4]byte
		binary.LittleEndian.PutUint32(ml[:], uint32(len(rs.masks)))
		dst = append(dst, ml[:]...)
		dst = append(dst, rs.masks...)
		var al [2]byte
		binary.LittleEndian.PutUint16(al[:], uint16(len(rs.live)))
		dst = append(dst, al[:]...)
		dst = append(dst, rs.live...)
		for _, s := range rs.laneSwitches {
			var w [4]byte
			binary.LittleEndian.PutUint32(w[:], s)
			dst = append(dst, w[:]...)
		}
	}
	return dst
}

// parseResumeReply deserialises a full msgResumeReply payload, session-id
// prefix included. The returned masks and live slices alias b.
func parseResumeReply(b []byte) (sid uint64, status, mode byte, msg string, rs resumeReplyState, err error) {
	sid, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, 0, "", resumeReplyState{}, fmt.Errorf("server: resume reply with bad session id varint")
	}
	status, mode, msg, rs, err = parseResumeReplyBody(b[n:])
	return sid, status, mode, msg, rs, err
}

// parseResumeReplyBody deserialises a msgResumeReply payload after its
// session-id prefix (which MuxClient.recv has already split off).
func parseResumeReplyBody(rest []byte) (status, mode byte, msg string, rs resumeReplyState, err error) {
	fail := func(format string, args ...any) (byte, byte, string, resumeReplyState, error) {
		return 0, 0, "", resumeReplyState{}, fmt.Errorf(format, args...)
	}
	if len(rest) < 4 {
		return fail("server: resume reply of %d bytes is truncated", len(rest))
	}
	status, mode = rest[0], rest[1]
	ln := int(binary.LittleEndian.Uint16(rest[2:4]))
	rest = rest[4:]
	if len(rest) < ln {
		return fail("server: resume reply body of %d bytes is truncated", len(rest))
	}
	msg = string(rest[:ln])
	rest = rest[ln:]
	if status != statusOK {
		if len(rest) != 0 {
			return fail("server: resume reply body of %d bytes is malformed", len(rest))
		}
		return status, mode, msg, resumeReplyState{}, nil
	}
	if mode != resumeReattached && mode != resumeRebuilt {
		return fail("server: resume reply with unknown mode %d", mode)
	}
	if len(rest) < totalsLen+4 {
		return fail("server: resume reply body of %d bytes is truncated", len(rest))
	}
	rs.totals = parseTotals(rest[:totalsLen])
	ml := int(binary.LittleEndian.Uint32(rest[totalsLen : totalsLen+4]))
	rest = rest[totalsLen+4:]
	if ml < 0 || len(rest) < ml+2 {
		return fail("server: resume reply body of %d bytes is truncated", len(rest))
	}
	if ml > 0 {
		rs.masks = rest[:ml]
	}
	rest = rest[ml:]
	alanes := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) != 5*alanes {
		return fail("server: resume reply body of %d bytes is malformed", len(rest))
	}
	if alanes > 0 {
		rs.live = rest[:alanes]
		rs.laneSwitches = make([]uint32, alanes)
		for i := range rs.laneSwitches {
			rs.laneSwitches[i] = binary.LittleEndian.Uint32(rest[alanes+4*i:])
		}
	}
	return status, mode, msg, rs, nil
}

// maskBytes is the per-lane size of a packed inversion mask.
func maskBytes(beats int) int { return (beats + 7) / 8 }

// packMask packs one lane's inversion pattern into dst, bit t (LSB first)
// set when beat t is inverted. dst must be zeroed and ⌈len(inv)/8⌉ long.
func packMask(dst []byte, inv []bool) {
	for t, v := range inv {
		if v {
			dst[t/8] |= 1 << (t % 8)
		}
	}
}

// unpackMask expands a packed inversion mask into dst, which must be beats
// long.
func unpackMask(dst []bool, mask []byte) {
	for t := range dst {
		dst[t] = mask[t/8]&(1<<(t%8)) != 0
	}
}

// totalsLen is the wire size of a Totals payload: seven u64 counters.
const totalsLen = 7 * 8

// Totals is the cumulative activity accounting of one session: what the
// session has encoded so far (Coded) and what transmitting the same payload
// uncoded would have cost (Raw), the baseline the savings counters are
// measured against.
type Totals struct {
	// Frames is the number of frames encoded (batch bursts count as
	// frames once grouped onto the session's lanes).
	Frames int
	// Beats is the total beat count over all lanes.
	Beats int
	// Coded is the exact activity of the encoded transmission.
	Coded Cost
	// Raw is the activity the same payload would have caused unencoded,
	// accumulated against its own continuous per-lane state.
	Raw Cost
	// Switches counts the adaptive scheme switches over all lanes of the
	// session (0 for fixed-scheme sessions).
	Switches int
}

// TogglesSaved returns how many wire transitions the coding avoided versus
// the raw baseline (negative if the scheme spent transitions to save zeros).
func (t Totals) TogglesSaved() int { return t.Raw.Transitions - t.Coded.Transitions }

// ZerosSaved returns how many transmitted zeros the coding avoided versus
// the raw baseline.
func (t Totals) ZerosSaved() int { return t.Raw.Zeros - t.Coded.Zeros }

// add accumulates o into t, the aggregation msgQuit performs over a
// connection's still-open sessions.
func (t *Totals) add(o Totals) {
	t.Frames += o.Frames
	t.Beats += o.Beats
	t.Coded = t.Coded.Add(o.Coded)
	t.Raw = t.Raw.Add(o.Raw)
	t.Switches += o.Switches
}

// putTotals serialises t into a totalsLen-sized buffer.
func putTotals(dst []byte, t Totals) {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(t.Frames))
	binary.LittleEndian.PutUint64(dst[8:16], uint64(t.Beats))
	binary.LittleEndian.PutUint64(dst[16:24], uint64(t.Coded.Zeros))
	binary.LittleEndian.PutUint64(dst[24:32], uint64(t.Coded.Transitions))
	binary.LittleEndian.PutUint64(dst[32:40], uint64(t.Raw.Zeros))
	binary.LittleEndian.PutUint64(dst[40:48], uint64(t.Raw.Transitions))
	binary.LittleEndian.PutUint64(dst[48:56], uint64(t.Switches))
}

// parseTotals deserialises a totalsLen-sized buffer.
func parseTotals(src []byte) Totals {
	return Totals{
		Frames: int(binary.LittleEndian.Uint64(src[0:8])),
		Beats:  int(binary.LittleEndian.Uint64(src[8:16])),
		Coded: Cost{
			Zeros:       int(binary.LittleEndian.Uint64(src[16:24])),
			Transitions: int(binary.LittleEndian.Uint64(src[24:32])),
		},
		Raw: Cost{
			Zeros:       int(binary.LittleEndian.Uint64(src[32:40])),
			Transitions: int(binary.LittleEndian.Uint64(src[40:48])),
		},
		Switches: int(binary.LittleEndian.Uint64(src[48:56])),
	}
}

// SwitchNote is one SWITCH marker of an adaptive session: the server's
// controller replaced the live scheme on one lane. Notices arrive in
// switch order, no later than the reply to the message whose encoding
// caused them.
type SwitchNote struct {
	// Lane is the lane that switched.
	Lane int
	// Ordinal is the 1-based switch count on that lane.
	Ordinal int
	// Burst is the number of bursts the lane had transmitted when the
	// switch took effect (the switch point in the lane's stream).
	Burst int
	// From and To are the registry names of the schemes involved.
	From, To string
}

// appendSwitchNote serialises one SWITCH notice payload onto dst.
func appendSwitchNote(dst []byte, n SwitchNote) []byte {
	var fixed [14]byte
	binary.LittleEndian.PutUint16(fixed[0:2], uint16(n.Lane))
	binary.LittleEndian.PutUint32(fixed[2:6], uint32(n.Ordinal))
	binary.LittleEndian.PutUint64(fixed[6:14], uint64(n.Burst))
	dst = append(dst, fixed[:]...)
	dst = append(dst, byte(len(n.From)))
	dst = append(dst, n.From...)
	dst = append(dst, byte(len(n.To)))
	dst = append(dst, n.To...)
	return dst
}

// parseSwitchNote deserialises a SWITCH notice payload.
func parseSwitchNote(src []byte) (SwitchNote, error) {
	if len(src) < 15 {
		return SwitchNote{}, fmt.Errorf("server: switch notice of %d bytes is truncated", len(src))
	}
	n := SwitchNote{
		Lane:    int(binary.LittleEndian.Uint16(src[0:2])),
		Ordinal: int(binary.LittleEndian.Uint32(src[2:6])),
		Burst:   int(binary.LittleEndian.Uint64(src[6:14])),
	}
	rest := src[14:]
	fromLen := int(rest[0])
	if len(rest) < 1+fromLen+1 {
		return SwitchNote{}, fmt.Errorf("server: switch notice of %d bytes is truncated", len(src))
	}
	n.From = string(rest[1 : 1+fromLen])
	rest = rest[1+fromLen:]
	toLen := int(rest[0])
	if len(rest) != 1+toLen {
		return SwitchNote{}, fmt.Errorf("server: switch notice of %d bytes is malformed", len(src))
	}
	n.To = string(rest[1 : 1+toLen])
	return n, nil
}
