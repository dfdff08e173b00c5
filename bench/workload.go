package main

import (
	"encoding/binary"
	"fmt"

	"dbiopt/internal/trace"
)

// kind is the traffic shape of a workload.
type kind int

const (
	// standing sessions, one frame per message
	frameKind kind = iota
	// standing sessions, one DBIT blob of many frames per message
	batchKind
	// short-lived sessions: open, a few frames, close
	churnKind
)

// workload is one traffic mix. Its counts fix the correctness phase, whose
// replies are all checked against the offline oracle; the measured phase
// then cycles the same messages, roundMsgs per connection at a time, until
// its time is up.
type workload struct {
	name         string
	kind         kind
	lanes, beats int
	// sessions is the session count per connection: standing sessions, or
	// distinct session scripts for churnKind.
	sessions int
	// window is the per-connection in-flight message bound.
	window int
	// rounds is the correctness-phase message count per session: frames
	// (frameKind, churnKind) or batches (batchKind).
	rounds int
	// batchFrames is the frame count of one batch message.
	batchFrames int
	// roundMsgs is the message count per connection of one measured round:
	// about a quarter of a second on the 2-vCPU machines the benchmark was
	// sized on, and at least 500 so that each round's p99 has 10 replies
	// beyond it.
	roundMsgs int64
	// payload returns the payload source of session s, seeded per session.
	payload func(seed int64, s int) trace.Source
	// scheme returns the configuration of session s.
	scheme func(s int) sessCfg
}

// conns is the connection count of every workload: one per core of the
// 2-core machines the benchmark is sized for. Each connection runs one
// writer and one reader goroutine.
const conns = 2

// rotation is the scheme mix of frame-wide and session-churn: every static
// scheme with a native or trellis kernel at the paper's weight regimes, plus
// an adaptive session.
var rotation = []sessCfg{
	{scheme: "OPT-FIXED", alpha: 1, beta: 1},
	{scheme: "OPT", alpha: 3, beta: 2},
	{scheme: "QUANTISED", alpha: 3, beta: 5},
	{scheme: "GREEDY", alpha: 1, beta: 1},
	{scheme: "ACDC", alpha: 1, beta: 1},
	{scheme: "DC", alpha: 1, beta: 1},
	{alpha: 1, beta: 1, adapt: []string{"DC", "AC", "OPT-FIXED"}},
}

// staticLabels name the static schemes of rotation in per-layer metric
// names, which allow only letters, digits, '_', '.' and '-'.
var staticLabels = []string{"OPT-FIXED", "OPT-a3b2", "QUANTISED-a3b5", "GREEDY", "ACDC", "DC"}

func optFixed(int) sessCfg { return rotation[0] }
func rotate(s int) sessCfg { return rotation[s%len(rotation)] }
func catalogPick(seed int64, s int) trace.Source {
	cat := trace.Catalog(seed)
	return cat[s%len(cat)]
}
func phases(seed int64, _ int) trace.Source {
	return trace.NewPhaseShift(64, trace.NewSparse(seed, 0.2), trace.NewMarkov(seed+1, 0.1), trace.NewText(seed+2))
}
func catalogPhases(seed int64, _ int) trace.Source {
	return trace.NewPhaseShift(256, trace.Catalog(seed)...)
}

var workloads = []workload{
	{
		name: "frame-small", kind: frameKind, lanes: 1, beats: 8, sessions: 256, window: 64, rounds: 256,
		roundMsgs: 160_000, payload: catalogPick, scheme: optFixed,
	},
	{
		name: "frame-wide", kind: frameKind, lanes: 8, beats: 128, sessions: 7, window: 8, rounds: 256,
		roundMsgs: 14_000, payload: phases, scheme: rotate,
	},
	{
		name: "batch-trace", kind: batchKind, lanes: 8, beats: 8, sessions: 1, window: 2, rounds: 256, batchFrames: 256,
		roundMsgs: 512, payload: catalogPhases, scheme: optFixed,
	},
	{
		name: "session-churn", kind: churnKind, lanes: 2, beats: 16, sessions: 256, window: 64, rounds: 4,
		roundMsgs: 90_000, payload: catalogPick, scheme: rotate,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// msg is one pre-serialised request and the reply it must draw.
type msg struct {
	typ  byte
	sid  uint64
	body []byte // payload after the session-id prefix
	// reply is the expected reply type and wantN its body length; want,
	// when set, is the exact expected body (after the session id).
	reply  byte
	wantN  int
	want   []byte
	bursts int
	frames int
	// final marks a totals reply closing a session's correctness replay;
	// the saved ratios sum these.
	final bool
}

// session is one session's configuration and correctness-phase payloads.
type session struct {
	cfg    sessCfg
	frames [][]byte // lanes×beats payloads, lane-major
}

// connPlan is everything one connection sends.
type connPlan struct {
	sessions []session
	opens    []msg // standing sessions, opened at set-up
	warm     []msg // correctness phase
	ring     []msg // measured phase, cycled
	closes   []msg // standing-session closes, sent after a traced run
	// stride is added to every session id per ring cycle; nonzero means
	// each cycle opens fresh sessions, so replies stay oracle-checkable.
	stride uint64
}

// plan builds the inputs of connection conn from seed and computes every
// expected reply with the offline oracle.
func (w workload) plan(seed int64, conn int) (*connPlan, error) {
	base := seed*1_000_003 + int64(conn)*7919
	p := &connPlan{}
	mb := (w.beats + 7) / 8
	frameBytes := w.lanes * w.beats
	for s := 0; s < w.sessions; s++ {
		cfg := w.scheme(s)
		cfg.lanes, cfg.beats = w.lanes, w.beats
		if w.kind == churnKind && s%2 == 1 {
			// Tokens are unique per server while their session is open; a
			// ring cycle reuses a token only after its previous holder closed.
			cfg.token = uint64(conn+1)<<32 | uint64(s+1)
		}
		src := w.payload(base+int64(s)*101, s)
		n := w.rounds
		if w.kind == batchKind {
			n *= w.batchFrames
		}
		ses := session{cfg: cfg, frames: make([][]byte, n)}
		buf := make([]byte, 0, n*frameBytes)
		for f := range ses.frames {
			for l := 0; l < w.lanes; l++ {
				buf = append(buf, src.Next(w.beats)...)
			}
			ses.frames[f] = buf[len(buf)-frameBytes:]
		}
		p.sessions = append(p.sessions, ses)
	}

	// Expected replies, session by session.
	replies := make([][][]byte, w.sessions) // [session][round]
	finals := make([][]byte, w.sessions)
	for s, ses := range p.sessions {
		r, err := newReplayer(ses.cfg)
		if err != nil {
			return nil, err
		}
		replies[s] = make([][]byte, w.rounds)
		for k := 0; k < w.rounds; k++ {
			if w.kind == batchKind {
				for _, f := range ses.frames[k*w.batchFrames : (k+1)*w.batchFrames] {
					r.frame(f)
				}
				replies[s][k] = r.totals().bytes()
			} else {
				replies[s][k] = r.frame(ses.frames[k])
			}
		}
		finals[s] = r.totals().bytes()
	}

	sid := func(s int) uint64 { return uint64(s + 1) }
	open := func(s int) msg {
		cfg := p.sessions[s].cfg
		want := openReply(cfg)
		return msg{typ: msgOpen, sid: sid(s), body: appendConfig(nil, cfg, false), reply: repOpen, wantN: len(want), want: want}
	}
	frame := func(s, k int) msg {
		return msg{typ: msgFrame, sid: sid(s), body: p.sessions[s].frames[k], reply: repMasks,
			wantN: w.lanes * mb, want: replies[s][k], bursts: w.lanes, frames: 1}
	}
	closeMsg := func(s int, want []byte) msg {
		return msg{typ: msgClose, sid: sid(s), reply: repTotals, wantN: totalsLen, want: want, final: want != nil}
	}

	switch w.kind {
	case frameKind:
		for s := range p.sessions {
			p.opens = append(p.opens, open(s))
		}
		for k := 0; k < w.rounds; k++ {
			for s := range p.sessions {
				p.warm = append(p.warm, frame(s, k))
			}
		}
		p.ring = p.warm
		for s := range p.sessions {
			p.warm = append(p.warm, msg{typ: msgTotals, sid: sid(s), reply: repTotals, wantN: totalsLen, want: finals[s], final: true})
			p.closes = append(p.closes, closeMsg(s, nil))
		}
	case batchKind:
		for s, ses := range p.sessions {
			p.opens = append(p.opens, open(s))
			p.closes = append(p.closes, closeMsg(s, nil))
			for k := 0; k < w.rounds; k++ {
				blob := dbitBlob(w.beats, ses.frames[k*w.batchFrames:(k+1)*w.batchFrames])
				p.warm = append(p.warm, msg{typ: msgBatch, sid: sid(s), body: blob, reply: repTotals, wantN: totalsLen,
					want: replies[s][k], bursts: w.batchFrames * w.lanes, frames: w.batchFrames, final: k == w.rounds-1})
			}
		}
		p.ring = p.warm
	case churnKind:
		for s := range p.sessions {
			p.warm = append(p.warm, open(s))
			for k := 0; k < w.rounds; k++ {
				p.warm = append(p.warm, frame(s, k))
			}
			p.warm = append(p.warm, closeMsg(s, finals[s]))
		}
		p.ring = p.warm
		p.stride = uint64(w.sessions)
	}
	return p, nil
}

// dbitBlob serialises frames as a DBIT trace (DESIGN.md §6: the trace format
// is the batch wire format): magic, version 1, beats, reserved u16, burst
// count u32, then the bursts — burst i is lane i%lanes.
func dbitBlob(beats int, frames [][]byte) []byte {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	b := append([]byte("DBIT"), 1, byte(beats), 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(n/beats))
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}
