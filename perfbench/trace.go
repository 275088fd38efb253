package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one round or
// one query share Group; Parent names the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run, and a tracer that is not on records nothing.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	group atomic.Int64 // the round or query in progress, for spans that cannot name one

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: wall.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// setGroup names the round in progress; spans recorded without an
// explicit group join it.
func (t *tracer) setGroup(id int64) {
	if t != nil {
		t.group.Store(id)
	}
}

func (t *tracer) curGroup() int64 {
	if t == nil {
		return 0
	}
	return t.group.Load()
}

// add records a finished span under a fresh id and returns the id.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.id()
	t.record(id, name, parent, t.group.Load(), start, end)
	return id
}

// record stores a span whose id was reserved with id.
func (t *tracer) record(id int64, name string, parent, group int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	s := span{ID: id, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}
