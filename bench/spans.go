package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// sampleEvery fixes the span sample: every 64th sequence number of a
// connection, so two commits trace the same messages.
const sampleEvery = 64

// span is one traced interval. Spans of one request share req
// (connection<<32 | sequence number); parent names the span that contains
// this one, empty for the request's root span "msg" (send to reply).
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records one connection's spans and, for every reply, its latency by
// message type. sendSpans belong to the writer goroutine, everything else to
// the reader, so neither side locks.
type tracer struct {
	conn      uint64
	sendSpans []span
	recvSpans []span
	open      latHist
	close     latHist
	encode    latHist
}

func (t *tracer) span(dst *[]span, name, parent string, seq, start, end int64) {
	*dst = append(*dst, span{Req: t.conn<<32 | uint64(seq), Name: name, Parent: parent, Start: start, End: end})
}

// reply records a reply that arrived at now, the reader having waited for
// it since waitFrom.
func (t *tracer) reply(e inflight, waitFrom, now int64) {
	lat := now - e.sent
	switch e.m.typ {
	case msgOpen:
		t.open.observe(lat)
	case msgClose:
		t.close.observe(lat)
	case msgFrame, msgBatch:
		t.encode.observe(lat)
	}
	if e.seq%sampleEvery == 0 {
		t.span(&t.recvSpans, "read", "msg", e.seq, waitFrom, now)
		t.span(&t.recvSpans, "msg", "", e.seq, e.sent, now)
	}
}

// writeSpans writes every tracer's spans to path as one JSON array.
func writeSpans(path string, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		all = append(append(all, t.sendSpans...), t.recvSpans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
