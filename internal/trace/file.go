package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"dbiopt/internal/bus"
)

// The binary trace format is a tiny self-describing container:
//
//	magic "DBIT" | version u8 | beats u8 | reserved u16 | count u32 |
//	count * beats payload bytes
//
// All integers are little-endian. It exists so cmd/dbienc can persist and
// replay workloads, and so traces can be exchanged with other tools.

const (
	traceMagic   = "DBIT"
	traceVersion = 1
)

// Writer serialises bursts to the binary trace format.
type Writer struct {
	w      *bufio.Writer
	beats  int
	count  uint32
	closed bool
	// seeker, if the underlying stream supports it, lets Close backpatch
	// the burst count.
	seeker io.WriteSeeker
}

// NewWriter starts a trace of bursts with the given beat count on w. If w is
// also an io.Seeker the burst count in the header is fixed up on Close;
// otherwise the count field is written as zero and readers rely on EOF.
func NewWriter(w io.Writer, beats int) (*Writer, error) {
	if beats <= 0 || beats > 255 {
		return nil, fmt.Errorf("trace: beats must be in 1..255, got %d", beats)
	}
	tw := &Writer{w: bufio.NewWriter(w), beats: beats}
	if ws, ok := w.(io.WriteSeeker); ok {
		tw.seeker = ws
	}
	hdr := make([]byte, 12)
	copy(hdr, traceMagic)
	hdr[4] = traceVersion
	hdr[5] = byte(beats)
	// hdr[6:8] reserved, hdr[8:12] count backpatched on Close
	if _, err := tw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return tw, nil
}

// Write appends one burst; its length must match the trace's beat count.
func (tw *Writer) Write(b bus.Burst) error {
	if tw.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if len(b) != tw.beats {
		return fmt.Errorf("trace: burst has %d beats, trace expects %d", len(b), tw.beats)
	}
	if _, err := tw.w.Write(b); err != nil {
		return fmt.Errorf("trace: writing burst: %w", err)
	}
	tw.count++
	return nil
}

// Close flushes buffered data and, when possible, backpatches the burst
// count into the header.
func (tw *Writer) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	if err := tw.w.Flush(); err != nil {
		return fmt.Errorf("trace: flushing: %w", err)
	}
	if tw.seeker != nil {
		if _, err := tw.seeker.Seek(8, io.SeekStart); err != nil {
			return fmt.Errorf("trace: seeking to count: %w", err)
		}
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], tw.count)
		if _, err := tw.seeker.Write(buf[:]); err != nil {
			return fmt.Errorf("trace: backpatching count: %w", err)
		}
		if _, err := tw.seeker.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("trace: seeking to end: %w", err)
		}
	}
	return nil
}

// Count returns the number of bursts written so far.
func (tw *Writer) Count() int { return int(tw.count) }

// Reader replays bursts from the binary trace format.
type Reader struct {
	r     *bufio.Reader
	beats int
	count uint32 // zero means "until EOF"
	read  uint32
}

// NewReader parses the header and prepares to stream bursts.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	beats, count, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, beats: beats, count: count}, nil
}

// headerLen is the size of the fixed trace header.
const headerLen = 12

// parseHeader validates a complete header and returns its burst length and
// burst count (zero meaning "until EOF").
func parseHeader(hdr []byte) (beats int, count uint32, err error) {
	if string(hdr[:4]) != traceMagic {
		return 0, 0, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if hdr[4] != traceVersion {
		return 0, 0, fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	if hdr[5] == 0 {
		return 0, 0, fmt.Errorf("trace: header declares zero beats per burst")
	}
	return int(hdr[5]), binary.LittleEndian.Uint32(hdr[8:headerLen]), nil
}

// ParseBlob validates a complete in-memory trace up front and returns its
// burst length and its bursts, back to back, as one view into blob: no
// copy and no allocation on success. It accepts exactly what a Reader
// replayed to io.EOF accepts, with the same count semantics: a nonzero
// count caps the bursts (bytes past them are ignored), a zero count — or
// one larger than the bursts present — reads to the end, and a partial
// burst before the count is met is a truncation error.
func ParseBlob(blob []byte) (beats int, body []byte, err error) {
	if len(blob) < headerLen {
		return 0, nil, fmt.Errorf("trace: reading header: %w", io.ErrUnexpectedEOF)
	}
	beats, count, err := parseHeader(blob[:headerLen])
	if err != nil {
		return 0, nil, err
	}
	body = blob[headerLen:]
	if n := uint64(len(body) / beats); count != 0 && uint64(count) <= n {
		return beats, body[:int(count)*beats], nil
	}
	if len(body)%beats != 0 {
		return 0, nil, fmt.Errorf("trace: truncated burst: %w", io.ErrUnexpectedEOF)
	}
	return beats, body, nil
}

// Beats returns the burst length of the trace.
func (tr *Reader) Beats() int { return tr.beats }

// Read returns the next burst, or io.EOF after the last one.
func (tr *Reader) Read() (bus.Burst, error) {
	if tr.count != 0 && tr.read >= tr.count {
		return nil, io.EOF
	}
	b := make(bus.Burst, tr.beats)
	if _, err := io.ReadFull(tr.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("trace: truncated burst: %w", err)
			}
			return nil, io.EOF
		}
		return nil, fmt.Errorf("trace: reading burst: %w", err)
	}
	tr.read++
	return b, nil
}

// ParseHexBurst parses a burst written as whitespace-separated hex bytes,
// e.g. "8E 86 96 E9 7D B7 57 C4".
func ParseHexBurst(s string) (bus.Burst, error) {
	fields := strings.Fields(s)
	b := make(bus.Burst, 0, len(fields))
	for _, f := range fields {
		raw, err := hex.DecodeString(f)
		if err != nil || len(raw) != 1 {
			return nil, fmt.Errorf("trace: bad hex byte %q", f)
		}
		b = append(b, raw[0])
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("trace: empty burst")
	}
	return b, nil
}

// FormatHexBurst renders a burst as space-separated uppercase hex bytes.
func FormatHexBurst(b bus.Burst) string {
	var sb strings.Builder
	for i, v := range b {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%02X", v)
	}
	return sb.String()
}

// FromBytes chops a flat byte slice into bursts of the given length,
// zero-padding the tail if necessary.
func FromBytes(data []byte, beats int) []bus.Burst {
	if beats <= 0 {
		panic(fmt.Sprintf("trace: beats must be positive, got %d", beats))
	}
	n := (len(data) + beats - 1) / beats
	bursts := make([]bus.Burst, 0, n)
	for i := 0; i < len(data); i += beats {
		b := make(bus.Burst, beats)
		copy(b, data[i:])
		bursts = append(bursts, b)
	}
	return bursts
}
