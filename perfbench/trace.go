package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// Tracing. Spans are recorded by the benchmark's own code around each call
// into a layer; nothing inside the program is instrumented. A span names
// the layer call, its parent span and the op (or request) it belongs to.
// Spans stay in memory and are written out when the run ends.
//
// Span names: "round" (one closed-loop round on feed and wepic) with
// children "apply" (one op's Peer.Apply or App calls) and "quiesce"
// (Network.RunToQuiescence), whose children are "send" (a transport Send,
// feed only); on wire "request" with children "apply" (the HTTP POST) and
// "wait" (from the POST's return until both replicas have seen the
// inserts).

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the span recorder; a nil *tracer records nothing, which is
// how untraced runs call the same code.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	quiesce atomic.Uint64 // the open "quiesce" span, parent of transport sends
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(name string, id, parent uint64, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// transportTally is the shared counter block of every tracedEndpoint.
type transportTally struct {
	sends, dataMsgs, acks, sendNS, drains, drained atomic.Uint64
}

func (c *transportTally) read() transportCounts {
	return transportCounts{
		sends: c.sends.Load(), dataMsgs: c.dataMsgs.Load(), acks: c.acks.Load(),
		sendNS: c.sendNS.Load(), drains: c.drains.Load(), drained: c.drained.Load(),
	}
}

// tracedEndpoint wraps a mux endpoint to time and count transport sends
// and drains. It forwards WakeHooker and Router: without them the
// scheduler would fall back to polling every peer and the traced run would
// measure a different program.
type tracedEndpoint struct {
	inner *transport.MuxEndpoint
	tr    *tracer
	tally *transportTally
}

var (
	_ transport.Endpoint   = (*tracedEndpoint)(nil)
	_ transport.WakeHooker = (*tracedEndpoint)(nil)
	_ transport.Router     = (*tracedEndpoint)(nil)
)

func (e *tracedEndpoint) Name() string               { return e.inner.Name() }
func (e *tracedEndpoint) Pending() int               { return e.inner.Pending() }
func (e *tracedEndpoint) Notify() <-chan struct{}    { return e.inner.Notify() }
func (e *tracedEndpoint) Close() error               { return e.inner.Close() }
func (e *tracedEndpoint) SetWakeHook(fn func()) bool { return e.inner.SetWakeHook(fn) }
func (e *tracedEndpoint) CanRoute(to string) bool    { return e.inner.CanRoute(to) }

func (e *tracedEndpoint) Drain() []protocol.Envelope {
	envs := e.inner.Drain()
	e.tally.drains.Add(1)
	e.tally.drained.Add(uint64(len(envs)))
	return envs
}

func (e *tracedEndpoint) Send(ctx context.Context, to string, msg protocol.Payload) error {
	id := e.tr.newID()
	start := time.Now()
	err := e.inner.Send(ctx, to, msg)
	end := time.Now()
	e.tr.add("send", id, e.tr.quiesce.Load(), -1, start, end)
	e.tally.sends.Add(1)
	e.tally.sendNS.Add(uint64(end.Sub(start)))
	switch msg.(type) {
	case protocol.DataMsg:
		e.tally.dataMsgs.Add(1)
	case protocol.AckMsg:
		e.tally.acks.Add(1)
	}
	return err
}
