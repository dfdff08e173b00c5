package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"dbiopt/internal/bus"
)

// FuzzReader: arbitrary bytes never crash the trace reader; they either
// parse or fail cleanly.
func FuzzReader(f *testing.F) {
	// A valid two-burst trace as seed.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Write([]byte{1, 2, 3, 4})
	_ = w.Write([]byte{5, 6, 7, 8})
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte("DBIT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			if _, err := r.Read(); err != nil {
				if err != io.EOF {
					// A hard error is fine; it must just not panic.
					_ = err
				}
				return
			}
		}
	})
}

// FuzzHexBurst: the hex parser round-trips what it accepts.
func FuzzHexBurst(f *testing.F) {
	f.Add("8E 86 96 E9 7D B7 57 C4")
	f.Add("00")
	f.Add("not hex")
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseHexBurst(s)
		if err != nil {
			return
		}
		again, err := ParseHexBurst(FormatHexBurst(b))
		if err != nil {
			t.Fatalf("formatted burst failed to parse: %v", err)
		}
		if !again.Equal(b) {
			t.Fatalf("round trip changed the burst: %v vs %v", again, b)
		}
	})
}

// blobSeed builds a DBIT blob by hand: a header declaring beats and count,
// then body bytes 1, 2, 3, ... — so count and body length vary
// independently, which a Writer never produces.
func blobSeed(beats byte, count uint32, body int) []byte {
	blob := make([]byte, headerLen+body)
	copy(blob, traceMagic)
	blob[4] = traceVersion
	blob[5] = beats
	binary.LittleEndian.PutUint32(blob[8:headerLen], count)
	for i := 0; i < body; i++ {
		blob[headerLen+i] = byte(i + 1)
	}
	return blob
}

// FuzzParseBlob pins the in-place batch parser to the streaming reference:
// for arbitrary bytes and 1-8 lanes, ParseBlob + NextFrameView must accept
// exactly when NewReader + NewFrameReader replay the blob to io.EOF without
// error, and must yield byte-identical frames — including the header
// count's capping and read-to-end semantics and the zero-beat padding of a
// short final frame.
func FuzzParseBlob(f *testing.F) {
	f.Add(blobSeed(4, 3, 12), uint8(2)) // count = bursts present, short final frame
	f.Add(blobSeed(4, 3, 14), uint8(2)) // count = bursts present, partial trailing burst ignored
	f.Add(blobSeed(4, 2, 15), uint8(1)) // count below the bursts present, trailing junk ignored
	f.Add(blobSeed(4, 5, 12), uint8(3)) // count above the bursts present: read to the end
	f.Add(blobSeed(4, 5, 13), uint8(3)) // count above, partial trailing burst: truncated
	f.Add(blobSeed(8, 0, 40), uint8(8)) // count 0: read to the end, padded final frame
	f.Add(blobSeed(8, 0, 41), uint8(2)) // count 0, partial trailing burst: truncated
	f.Add(blobSeed(8, 0, 0), uint8(4))  // no bursts at all
	f.Add(blobSeed(0, 1, 8), uint8(1))  // zero beats per burst
	f.Add(blobSeed(3, 7, 21), uint8(7)) // count = bursts present, exact frame multiple
	f.Add([]byte("DBIT"), uint8(1))     // truncated header
	f.Add([]byte{}, uint8(1))           // empty
	f.Fuzz(func(t *testing.T, data []byte, rawLanes uint8) {
		lanes := int(rawLanes)%8 + 1
		var want []bus.Frame
		wantOK := func() bool {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				return false
			}
			fr, err := NewFrameReader(r, lanes)
			if err != nil {
				t.Fatal(err)
			}
			for {
				f, err := fr.NextFrame()
				if err == io.EOF {
					return true
				}
				if err != nil {
					return false
				}
				want = append(want, f)
			}
		}()
		beats, body, err := ParseBlob(data)
		if (err == nil) != wantOK {
			t.Fatalf("lanes=%d: ParseBlob err = %v, reference accepts = %v", lanes, err, wantOK)
		}
		if err != nil {
			return
		}
		f := make(bus.Frame, lanes)
		var got []bus.Frame
		for len(body) > 0 {
			body = NextFrameView(f, body, beats)
			got = append(got, append(bus.Frame(nil), f...))
		}
		if len(got) != len(want) {
			t.Fatalf("lanes=%d: %d frames, reference %d", lanes, len(got), len(want))
		}
		for i := range want {
			for l := range want[i] {
				if !got[i][l].Equal(want[i][l]) {
					t.Fatalf("lanes=%d frame %d lane %d: %v, reference %v", lanes, i, l, got[i][l], want[i][l])
				}
			}
		}
	})
}
