package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval the driver recorded from outside the
// program: the timed operation of a workload, or one call into a layer's
// public function. Parent is the ID of the span that caused it, 0 for none.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass calls the same code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Op: op, Start: now})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// spanCost is what recording one span costs, measured on a scratch tracer.
func spanCost() time.Duration {
	const n = 1 << 16
	t := newTracer("cost")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("x", 0, i))
	}
	return time.Since(t0) / n
}

// child records a finished span the program itself reported (a hop of the
// server's obs trace), placed offset after its parent's start.
func (t *tracer) child(parent int, name string, offset, dur time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := p.Start + int64(offset)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Op: p.Op, Start: start, End: start + int64(dur)})
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		// Sweep the union of the children's intervals.
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

type traceFile struct {
	Workload string           `json:"workload"`
	Spans    []span           `json:"spans"`
	SelfNs   map[int]int64    `json:"self_ns"`
	Layers   map[string]int64 `json:"layer_self_ns"`
}

// write stores the spans, each span's self time, and the self time summed
// per layer (the part of a span name before the first dot).
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	f := traceFile{Workload: t.workload, Spans: spans, SelfNs: map[int]int64{}, Layers: map[string]int64{}}
	byID := selfTimes(spans)
	for _, s := range spans {
		f.SelfNs[s.ID] = int64(byID[s.ID])
		f.Layers[layerOf(s.Name)] += int64(byID[s.ID])
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}

func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
