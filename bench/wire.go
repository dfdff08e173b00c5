package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// The protocol-v3 client side, written from DESIGN.md §6 rather than
// imported from internal/server, so the load the benchmark offers does not
// change when the code under test does. All integers are little-endian;
// every mux message and reply payload starts with a uvarint session id.

// Client → server message types.
const (
	msgFrame  = 'F'
	msgBatch  = 'B'
	msgTotals = 'T'
	msgOpen   = 'O'
	msgClose  = 'D'
)

// Server → client reply types.
const (
	repMasks  = 'M'
	repTotals = 'C'
	repError  = 'E'
	repSwitch = 'W'
	repOpen   = 'R'
)

// Config-body flag bits.
const (
	flagAdapt  = 1 << 0
	flagMux    = 1 << 1
	flagResume = 1 << 2
)

// totalsLen is the size of a totals reply body: frames, beats, coded zeros,
// coded transitions, raw zeros, raw transitions and switches, each a u64.
const totalsLen = 7 * 8

// sessCfg is one session's request: a static scheme with weights, or an
// adaptive candidate set, on a lanes × beats bus. token != 0 makes the
// session resumable.
type sessCfg struct {
	scheme      string
	alpha, beta float64
	lanes       int
	beats       int
	adapt       []string
	token       uint64
}

// name is the scheme name the server resolves the session to.
func (c sessCfg) name() string {
	if c.adapt != nil {
		return "ADAPTIVE(" + strings.Join(c.adapt, ",") + ")"
	}
	return c.scheme
}

// appendConfig serialises a session-config body: beats u8 | lanes u16 |
// alpha f64 | beta f64 | schemeLen u8 | flags u8 | scheme | [adapt block:
// window u32 | margin f64 | count u8 | (len u8 | name)*] | [token u64].
// Window and margin are sent as zero, deferring to the server defaults.
func appendConfig(dst []byte, c sessCfg, mux bool) []byte {
	var fixed [21]byte
	fixed[0] = byte(c.beats)
	binary.LittleEndian.PutUint16(fixed[1:3], uint16(c.lanes))
	binary.LittleEndian.PutUint64(fixed[3:11], math.Float64bits(c.alpha))
	binary.LittleEndian.PutUint64(fixed[11:19], math.Float64bits(c.beta))
	fixed[19] = byte(len(c.scheme))
	if c.adapt != nil {
		fixed[20] |= flagAdapt
	}
	if mux {
		fixed[20] |= flagMux
	}
	if c.token != 0 {
		fixed[20] |= flagResume
	}
	dst = append(dst, fixed[:]...)
	dst = append(dst, c.scheme...)
	if c.adapt != nil {
		dst = append(dst, make([]byte, 12)...)
		dst = append(dst, byte(len(c.adapt)))
		for _, n := range c.adapt {
			dst = append(dst, byte(len(n)))
			dst = append(dst, n...)
		}
	}
	if c.token != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, c.token)
	}
	return dst
}

// handshake dials in protocol v3 with the mux flag; def carries the
// connection's default geometry.
func handshake(w *bufio.Writer, r *bufio.Reader, def sessCfg) error {
	msg := appendConfig([]byte("DBIS\x03"), def, true)
	if _, err := w.Write(msg); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var rep [8]byte
	if _, err := io.ReadFull(r, rep[:]); err != nil {
		return fmt.Errorf("reading handshake reply: %w", err)
	}
	text := make([]byte, binary.LittleEndian.Uint16(rep[6:8]))
	if _, err := io.ReadFull(r, text); err != nil {
		return fmt.Errorf("reading handshake reply: %w", err)
	}
	if string(rep[:4]) != "DBIO" || rep[4] != 3 || rep[5] != 0 {
		return fmt.Errorf("handshake refused: %q status %d: %s", rep[:4], rep[5], text)
	}
	return nil
}

// openReply is the expected body of an accepted open: status 0, then the
// resolved scheme name behind a u16 length.
func openReply(c sessCfg) []byte {
	name := c.name()
	b := []byte{0}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	return append(b, name...)
}

// totals mirrors a session's cumulative accounting reply.
type totals struct {
	frames, beats                uint64
	codedZeros, codedTrans       uint64
	rawZeros, rawTrans, switches uint64
}

func (t totals) bytes() []byte {
	b := make([]byte, 0, totalsLen)
	for _, v := range [...]uint64{t.frames, t.beats, t.codedZeros, t.codedTrans, t.rawZeros, t.rawTrans, t.switches} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func parseTotals(b []byte) totals {
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	return totals{u(0), u(1), u(2), u(3), u(4), u(5), u(6)}
}

func (t *totals) add(o totals) {
	t.frames += o.frames
	t.beats += o.beats
	t.codedZeros += o.codedZeros
	t.codedTrans += o.codedTrans
	t.rawZeros += o.rawZeros
	t.rawTrans += o.rawTrans
	t.switches += o.switches
}

var errShortReply = errors.New("reply shorter than its session id")

// readReply reads one reply into buf (grown as needed) and splits off the
// session id. It returns the type, the session id and the body after it.
func readReply(r *bufio.Reader, hdr *[5]byte, buf *[]byte) (byte, uint64, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		return 0, 0, nil, err
	}
	sid, k := binary.Uvarint(p)
	if k <= 0 {
		return hdr[0], 0, nil, errShortReply
	}
	return hdr[0], sid, p[k:], nil
}
