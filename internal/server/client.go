package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"

	"dbiopt/internal/bus"
	"dbiopt/internal/trace"
)

// Client is the Go-side speaker of the single-session dbiserve protocol
// (v2 on the wire): one client is one session, with one scheme and one
// continuous per-lane wire state on the server. A Client is not safe for
// concurrent use — the protocol is strictly request/response per
// connection. For concurrency, open more clients (one connection each) or
// use a MuxClient, which multiplexes many sessions over one socket and is
// safe to share across goroutines.
type Client struct {
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	cfg    SessionConfig
	scheme string // resolved by the server
	closed bool

	hdr      [5]byte
	payload  []byte // reusable receive buffer
	frameBuf []byte // reusable send buffer for EncodeFrame
	inv      []bool // reusable unpacked-mask scratch

	// switches collects the SWITCH notices of an adaptive session, in
	// arrival (= switch) order.
	switches []SwitchNote
}

// Dial connects to a dbiserve instance and opens a session. Zero-valued
// geometry defaults to 1 lane × bus.BurstLength beats; an empty scheme (and
// zero weights) defer to the server's defaults.
func Dial(addr string, cfg SessionConfig) (*Client, error) {
	if cfg.Lanes == 0 {
		cfg.Lanes = 1
	}
	if cfg.Beats == 0 {
		cfg.Beats = bus.BurstLength
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dialing %s: %w", addr, err)
	}
	c := &Client{
		conn:     conn,
		r:        bufio.NewReader(conn),
		w:        bufio.NewWriter(conn),
		cfg:      cfg,
		frameBuf: make([]byte, cfg.Lanes*cfg.Beats),
		inv:      make([]bool, cfg.Beats),
	}
	if err := writeHandshake(c.w, protocolV2, false, cfg); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	scheme, err := readReply(c.r)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.scheme = scheme
	return c, nil
}

// Scheme returns the registry name the server resolved for this session
// (the requested name, or the server default if none was requested). An
// adaptive session reports "ADAPTIVE(candidate,candidate,...)".
func (c *Client) Scheme() string { return c.scheme }

// Config returns the session geometry.
func (c *Client) Config() SessionConfig { return c.cfg }

// Switches returns the SWITCH notices received so far: every mid-stream
// scheme renegotiation the server's adaptive controllers performed, in
// switch order. Notices arrive attached to replies, so the log is current
// as of the last completed call. The returned slice is a copy.
func (c *Client) Switches() []SwitchNote {
	out := make([]SwitchNote, len(c.switches))
	copy(out, c.switches)
	return out
}

// roundTrip sends one message and reads the reply, which must be of type
// want; a msgError reply surfaces as an error. SWITCH notices preceding
// the reply are collected into the client's switch log (see Switches).
// The returned payload aliases the client's receive buffer and is valid
// until the next call.
func (c *Client) roundTrip(typ byte, payload []byte, want byte) ([]byte, error) {
	if c.closed {
		return nil, fmt.Errorf("server: client is closed")
	}
	putHeader(&c.hdr, typ, len(payload))
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return nil, err
	}
	if _, err := c.w.Write(payload); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	for {
		gotTyp, n, err := readHeader(c.r, &c.hdr)
		if err != nil {
			return nil, fmt.Errorf("server: reading reply: %w", err)
		}
		if cap(c.payload) < n {
			c.payload = make([]byte, n)
		}
		buf := c.payload[:n]
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, fmt.Errorf("server: reading reply payload: %w", err)
		}
		if gotTyp == msgSwitch {
			note, err := parseSwitchNote(buf)
			if err != nil {
				return nil, err
			}
			c.switches = append(c.switches, note)
			continue
		}
		if gotTyp == msgError {
			return nil, fmt.Errorf("server: %s", buf)
		}
		if gotTyp != want {
			return nil, fmt.Errorf("server: unexpected reply type %q (want %q)", gotTyp, want)
		}
		return buf, nil
	}
}

// EncodeFrame transmits one frame through the session and returns the
// per-lane wire images the server chose, reconstructed from the payload and
// the returned inversion masks. The frame must match the session geometry.
func (c *Client) EncodeFrame(f bus.Frame) ([]bus.Wire, error) {
	if f.Lanes() != c.cfg.Lanes {
		return nil, fmt.Errorf("server: frame has %d lanes, session has %d", f.Lanes(), c.cfg.Lanes)
	}
	for l, b := range f {
		if len(b) != c.cfg.Beats {
			return nil, fmt.Errorf("server: lane %d burst has %d beats, session has %d", l, len(b), c.cfg.Beats)
		}
		copy(c.frameBuf[l*c.cfg.Beats:], b)
	}
	masks, err := c.roundTrip(msgFrame, c.frameBuf, msgMasks)
	if err != nil {
		return nil, err
	}
	mb := maskBytes(c.cfg.Beats)
	if len(masks) != c.cfg.Lanes*mb {
		return nil, fmt.Errorf("server: mask reply is %d bytes, want %d", len(masks), c.cfg.Lanes*mb)
	}
	wires := make([]bus.Wire, c.cfg.Lanes)
	for l, b := range f {
		unpackMask(c.inv, masks[l*mb:(l+1)*mb])
		wires[l] = bus.Apply(b, c.inv)
	}
	return wires, nil
}

// EncodeBatch transmits a batch of frames as one message and returns the
// session's cumulative totals afterwards. The batch travels as one binary
// trace blob (the internal/trace format), lane by lane in frame order; the
// server validates it whole, then encodes it frame by frame through the
// session's lane set, exactly as trace.FrameReader would replay it
// offline.
func (c *Client) EncodeBatch(frames []bus.Frame) (Totals, error) {
	for i, f := range frames {
		if f.Lanes() != c.cfg.Lanes {
			return Totals{}, fmt.Errorf("server: batch frame %d has %d lanes, session has %d", i, f.Lanes(), c.cfg.Lanes)
		}
	}
	blob, err := encodeTraceBlob(frames, c.cfg.Beats)
	if err != nil {
		return Totals{}, err
	}
	return c.sendBatchBlob(blob)
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
// as written by trace.Writer or dbitrace gen) as one batch. The blob's
// beat count must match the session's.
func (c *Client) EncodeTrace(blob []byte) (Totals, error) {
	return c.sendBatchBlob(blob)
}

func (c *Client) sendBatchBlob(blob []byte) (Totals, error) {
	if len(blob) > MaxPayload {
		return Totals{}, fmt.Errorf("server: batch of %d bytes exceeds the %d byte payload limit", len(blob), MaxPayload)
	}
	reply, err := c.roundTrip(msgBatch, blob, msgTotalsReply)
	if err != nil {
		return Totals{}, err
	}
	if len(reply) != totalsLen {
		return Totals{}, fmt.Errorf("server: totals reply is %d bytes, want %d", len(reply), totalsLen)
	}
	return parseTotals(reply), nil
}

// Totals fetches the session's cumulative activity accounting.
func (c *Client) Totals() (Totals, error) {
	reply, err := c.roundTrip(msgTotals, nil, msgTotalsReply)
	if err != nil {
		return Totals{}, err
	}
	if len(reply) != totalsLen {
		return Totals{}, fmt.Errorf("server: totals reply is %d bytes, want %d", len(reply), totalsLen)
	}
	return parseTotals(reply), nil
}

// Metrics fetches the server-wide metrics rendered as text.
func (c *Client) Metrics() (string, error) {
	reply, err := c.roundTrip(msgMetrics, nil, msgMetricsReply)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// Close ends the session gracefully: it asks the server to quit, collects
// the final totals, and closes the connection. Closing an already-closed
// client returns zero totals and no error.
func (c *Client) Close() (Totals, error) {
	if c.closed {
		return Totals{}, nil
	}
	reply, err := c.roundTrip(msgQuit, nil, msgTotalsReply)
	c.closed = true
	cerr := c.conn.Close()
	if err != nil {
		return Totals{}, err
	}
	if len(reply) != totalsLen {
		return Totals{}, fmt.Errorf("server: totals reply is %d bytes, want %d", len(reply), totalsLen)
	}
	return parseTotals(reply), cerr
}
