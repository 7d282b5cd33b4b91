package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark around a layer's public
// entry point. Spans of one request share Req; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; write dumps them once at
// the end. A nil *tracer records nothing, so untraced code paths pay only a
// nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose end is set later with finish (used for roots
// that must exist before their children are added).
func (t *tracer) begin(name string, parent int, req int64, start time.Time) int {
	return t.add(name, parent, req, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// selfByLayer returns, per layer, the summed self time of the spans whose
// request id passes keep: each span's duration minus its children's
// durations. Children are sequential, so the sum equals the covered part of
// the parent; a replayed child (re-issued after its parent returned, see
// pipeline) lies outside the parent's interval but still counts.
func (t *tracer) selfByLayer(keep func(req int64) bool) map[string]int64 {
	childNS := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for _, s := range t.spans {
		if keep(s.Req) {
			out[layerOf(s.Name)] += s.End - s.Start - childNS[s.ID]
		}
	}
	return out
}

// layerOf maps a span name to its layer: the text before the first dot
// ("exec.cape_run" -> "exec").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
