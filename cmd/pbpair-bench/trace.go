package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary. Times are
// nanoseconds since the tracer started. A root span (Parent 0) opens a
// trace — one job or one session — and its ID is the trace ID.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run executes the same code at the
// cost of one nil check per span.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	log  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// ref identifies a span as the parent of spans started later.
type ref struct{ id, trace uint64 }

// open is a started span; end records it.
type open struct {
	t     *tracer
	s     span
	start time.Time
}

// start opens a span named name under parent; a zero parent opens a
// new trace.
func (t *tracer) start(name string, parent ref) *open {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	return &open{t: t, s: span{ID: id, Parent: parent.id, Trace: trace, Name: name}, start: time.Now()}
}

// ref returns the span's identity for its children (zero when
// untraced).
func (o *open) ref() ref {
	if o == nil {
		return ref{}
	}
	return ref{id: o.s.ID, trace: o.s.Trace}
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.t.record(o.s.ID, o.s.Parent, o.s.Trace, o.s.Name, o.start, time.Now())
}

// newID reserves a span ID, so children can name a parent that is
// recorded after them (0 when untraced).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a span whose endpoints were observed elsewhere (a
// session's admission runs from the hello to the accept). id 0 draws
// a fresh ID; the ID is returned for use as a parent.
func (t *tracer) record(id, parent, trace uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	if parent == 0 {
		trace = id
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.log = append(t.log, s)
	t.mu.Unlock()
	return id
}

// spans returns a copy of every span recorded so far.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.log)
}

// writeJSONL writes one span per line to path.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return f.Close()
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi]. Overlapping children (parallel workers under one job) count
// once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]int64{a, b})
		}
	}
	slices.SortFunc(c, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, end int64 = 0, lo
	for _, x := range c {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// ledger aggregates spans by name.
type ledger struct {
	self  map[string]time.Duration // duration minus the part children cover
	total map[string]time.Duration // inclusive duration
	// rootDur and rootCovered sum, over root spans, their duration and
	// the part of it covered by their direct children.
	rootDur, rootCovered time.Duration
}

func newLedger(spans []span) ledger {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	l := ledger{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
	for _, s := range spans {
		c := covered(kids[s.ID], s.Start, s.End)
		d := s.End - s.Start
		l.self[s.Name] += time.Duration(d - c)
		l.total[s.Name] += time.Duration(d)
		if s.Parent == 0 {
			l.rootDur += time.Duration(d)
			l.rootCovered += time.Duration(c)
		}
	}
	return l
}

// coverage is the share of root-span time that child spans account
// for: 1 means every nanosecond of every job or session is attributed
// to some layer call.
func (l ledger) coverage() float64 { return ratio(float64(l.rootCovered), float64(l.rootDur)) }

// busy is the self time of every span not named in roots: the
// instrumented work the layers' shares divide.
func (l ledger) busy(roots ...string) time.Duration {
	var b time.Duration
	for name, d := range l.self {
		if !slices.Contains(roots, name) {
			b += d
		}
	}
	return b
}

// spanCost measures what recording one span costs (two clock reads,
// a lock and an append), for the tracing overhead estimate.
func spanCost() time.Duration {
	const n = 5000
	t := newTracer()
	t.log = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.start("x", ref{}).end()
	}
	return time.Since(start) / n
}
