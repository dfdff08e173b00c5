package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"time"
)

// benchConn is one client connection of the closed-loop driver.
type benchConn struct {
	id   int
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	plan *connPlan
	// seq numbers the connection's messages across all its phases; spans
	// and the in-flight ring use it.
	seq int64
}

func dial(addr string, id int, plan *connPlan, def sessCfg) (*benchConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &benchConn{id: id, nc: nc, r: bufio.NewReaderSize(nc, 1<<16), w: bufio.NewWriterSize(nc, 1<<16), plan: plan}
	if err := handshake(c.w, c.r, def); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// phase is one stretch of traffic on a connection: count messages taken
// from msgs in an endless cycle, starting at position from (count 0 sends
// msgs once). The phase ends when every reply has arrived.
type phase struct {
	msgs        []msg
	from, count int64
	window      int
	// stride, when nonzero, is added to every session id once per cycle
	// through msgs, so that each cycle opens fresh sessions.
	stride uint64
	check  bool     // compare reply bodies with the oracle
	lat    *latHist // records every reply's latency when set
	tr     *tracer  // records spans when set
}

func (p *phase) n() int64 {
	if p.count == 0 {
		return int64(len(p.msgs))
	}
	return p.count
}

// connStats is what one connection observed in one phase.
type connStats struct {
	sent, bursts, frames, opens int64
	failed                      int64
	firstErr                    error
	digest                      uint64  // FNV-64a over every checked reply body
	final                       totals  // sum of the final totals replies
	blocked                     float64 // ns the writer waited on a full window
	writerNs                    float64 // ns from the first send to the last
}

func (s *connStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *connStats) add(o *connStats) {
	s.sent += o.sent
	s.bursts += o.bursts
	s.frames += o.frames
	s.opens += o.opens
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.digest ^= o.digest
	s.final.add(o.final)
	s.blocked += o.blocked
	s.writerNs += o.writerNs
}

// inflight is one sent message awaiting its reply. Replies arrive in send
// order on a connection, so a ring of window entries matches them.
type inflight struct {
	m    *msg
	sid  uint64
	sent int64
	seq  int64
}

var errAborted = errors.New("phase aborted")

// writer is the sending half of a phase. send allocates nothing: bodies are
// pre-serialised, and the header and session id go through a fixed buffer.
type writer struct {
	w       *bufio.Writer
	sem     chan struct{}
	low     chan struct{}
	abort   chan struct{}
	ring    []inflight
	seq     int64
	base    time.Time
	hdr     [5 + binary.MaxVarintLen64]byte
	blocked time.Duration
	tr      *tracer
	sampled int64 // sequence number of a sampled message awaiting its flush, or -1
}

// send writes m under session id sid once the window has room. A full
// window is flushed and then refilled only once half of it has drained, so
// the writer wakes once per half window rather than once per reply.
func (wr *writer) send(m *msg, sid uint64) error {
	select {
	case wr.sem <- struct{}{}:
	default:
		if err := wr.flush(); err != nil {
			return err
		}
		t0 := time.Now()
		for len(wr.sem) > cap(wr.sem)/2 {
			select {
			case <-wr.low:
			case <-wr.abort:
				return errAborted
			}
		}
		wr.sem <- struct{}{}
		wr.blocked += time.Since(t0)
	}
	now := int64(time.Since(wr.base))
	wr.ring[wr.seq%int64(len(wr.ring))] = inflight{m: m, sid: sid, sent: now, seq: wr.seq}
	n := binary.PutUvarint(wr.hdr[5:], sid)
	wr.hdr[0] = m.typ
	binary.LittleEndian.PutUint32(wr.hdr[1:5], uint32(n+len(m.body)))
	if _, err := wr.w.Write(wr.hdr[:5+n]); err != nil {
		return err
	}
	if _, err := wr.w.Write(m.body); err != nil {
		return err
	}
	if wr.tr != nil && wr.seq%sampleEvery == 0 {
		wr.tr.span(&wr.tr.sendSpans, "send", "msg", wr.seq, now, int64(time.Since(wr.base)))
		wr.sampled = wr.seq
	}
	wr.seq++
	return nil
}

func (wr *writer) flush() error {
	if wr.tr == nil || wr.sampled < 0 {
		return wr.w.Flush()
	}
	t0 := int64(time.Since(wr.base))
	err := wr.w.Flush()
	wr.tr.span(&wr.tr.sendSpans, "flush", "msg", wr.sampled, t0, int64(time.Since(wr.base)))
	wr.sampled = -1
	return err
}

// run drives one phase on c and returns what it observed. The writer runs
// on the calling goroutine, the reader on one more; times are taken from
// base.
func (c *benchConn) run(p phase, base time.Time) *connStats {
	st := &connStats{}
	ring := make([]inflight, p.window)
	sem := make(chan struct{}, p.window)
	low := make(chan struct{}, 1) // the reader's "half the window is free" signal
	abort := make(chan struct{})
	c.nc.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck // a dead conn fails the read instead

	first := c.seq
	c.seq += p.n()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !c.read(p, ring, sem, low, first, base, st) {
			c.nc.Close() // unblocks a writer stuck in a socket write
		}
		close(abort)
	}()

	wr := &writer{w: c.w, sem: sem, low: low, abort: abort, ring: ring, seq: first, base: base, tr: p.tr, sampled: -1}
	var sent connStats // the writer's counts, merged once the reader is done
	start := time.Now()
	err := c.write(p, wr, &sent)
	if err == nil {
		err = wr.flush()
	}
	writerNs := time.Since(start)
	failed := err != nil && !errors.Is(err, errAborted)
	if failed {
		c.nc.Close() // unblocks the reader
	}
	<-done
	st.sent, st.bursts, st.frames, st.opens = sent.sent, sent.bursts, sent.frames, sent.opens
	st.writerNs, st.blocked = float64(writerNs), float64(wr.blocked)
	if failed {
		st.fail(fmt.Errorf("conn %d: sending: %w", c.id, err))
	}
	return st
}

func (c *benchConn) write(p phase, wr *writer, st *connStats) error {
	cycle := int64(len(p.msgs))
	for i := p.from; i < p.from+p.n(); i++ {
		m := &p.msgs[i%cycle]
		sid := m.sid
		if p.stride != 0 {
			sid += uint64(i/cycle+1) * p.stride
		}
		st.sent++
		st.bursts += int64(m.bursts)
		st.frames += int64(m.frames)
		if m.typ == msgOpen {
			st.opens++
		}
		if err := wr.send(m, sid); err != nil {
			return err
		}
	}
	return nil
}

// read matches replies to the in-flight ring until the phase's last reply,
// whose sequence number is first+n-1, has arrived. It reports false when
// the connection failed first.
func (c *benchConn) read(p phase, ring []inflight, sem, low chan struct{}, first int64, base time.Time, st *connStats) bool {
	var hdr [5]byte
	buf := make([]byte, 1<<12)
	digest := fnv.New64a()
	seq, want := first, first+p.n()
	waitFrom := int64(time.Since(base))
	for seq < want {
		typ, sid, body, err := readReply(c.r, &hdr, &buf)
		if err != nil {
			st.fail(fmt.Errorf("conn %d: reading reply %d: %w", c.id, seq, err))
			return false
		}
		if typ == repSwitch {
			continue // an adaptive session's notice, ahead of its reply
		}
		e := ring[seq%int64(len(ring))]
		seq++
		now := int64(time.Since(base))
		if p.lat != nil {
			p.lat.observe(now - e.sent)
		}
		if p.tr != nil {
			p.tr.reply(e, waitFrom, now)
		}
		c.verify(e, typ, sid, body, p.check, st)
		if p.check {
			digest.Write(body) //nolint:errcheck // hash writes never fail
		}
		<-sem
		if len(sem) == cap(sem)/2 {
			select {
			case low <- struct{}{}:
			default:
			}
		}
		waitFrom = int64(time.Since(base))
	}
	st.digest = digest.Sum64()
	return true
}

// verify checks one reply against the message it answers.
func (c *benchConn) verify(e inflight, typ byte, sid uint64, body []byte, check bool, st *connStats) {
	m := e.m
	switch {
	case typ == repError:
		st.fail(fmt.Errorf("conn %d: session %d: error reply to %q: %s", c.id, sid, m.typ, body))
	case typ != m.reply:
		st.fail(fmt.Errorf("conn %d: reply %q to %q, want %q", c.id, typ, m.typ, m.reply))
	case sid != e.sid:
		st.fail(fmt.Errorf("conn %d: reply for session %d to a message for session %d", c.id, sid, e.sid))
	case len(body) != m.wantN:
		st.fail(fmt.Errorf("conn %d: session %d: %q reply of %d bytes, want %d", c.id, sid, typ, len(body), m.wantN))
	case check && m.want != nil && !bytes.Equal(body, m.want):
		st.fail(fmt.Errorf("conn %d: session %d: %q reply differs from the offline replay", c.id, sid, typ))
	case m.final:
		st.final.add(parseTotals(body))
	}
}
