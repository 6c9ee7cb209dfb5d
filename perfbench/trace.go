package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
)

// span is one timed call from the benchmark into a layer. Start and
// End are nanoseconds since the tracer started; Parent is 0 for a root
// span; Req is the iteration, pass or request the call belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so untraced code paths call the same helpers.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	start := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: start})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// finish computes every span's self time — its duration minus the part
// of its interval that its children cover — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return append([]span(nil), t.spans...)
}

// spanTotals sums the durations and self times of spans by name, in
// seconds.
func spanTotals(spans []span) (dur, self map[string]float64) {
	dur, self = make(map[string]float64), make(map[string]float64)
	for _, s := range spans {
		dur[s.Name] += float64(s.End-s.Start) / 1e9
		self[s.Name] += float64(s.Self) / 1e9
	}
	return dur, self
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedEdgeSink records a span around every call the pipeline makes
// into a wrapped edge sink. wrapEdgeSink picks the variant that
// implements exactly the optional interfaces the wrapped sink does, so
// the pipeline takes the same path with and without the wrapper.
type timedEdgeSink struct {
	s      graphgen.EdgeSink
	tr     *tracer
	name   string
	parent int
	req    int
}

func (t *timedEdgeSink) AddEdge(src graph.NodeID, pred graph.PredID, dst graph.NodeID) error {
	id := t.tr.begin(t.name+".add", t.parent, t.req)
	defer t.tr.end(id)
	return t.s.AddEdge(src, pred, dst)
}

func (t *timedEdgeSink) Flush() error {
	id := t.tr.begin(t.name+".flush", t.parent, t.req)
	defer t.tr.end(id)
	return t.s.Flush()
}

func (t *timedEdgeSink) addBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	id := t.tr.begin(t.name+".add", t.parent, t.req)
	defer t.tr.end(id)
	return t.s.(graphgen.BatchEdgeSink).AddEdgeBatch(pred, srcs, dsts)
}

func (t *timedEdgeSink) abort() {
	id := t.tr.begin(t.name+".abort", t.parent, t.req)
	defer t.tr.end(id)
	t.s.(graphgen.AbortableEdgeSink).Abort()
}

type timedBatchSink struct{ *timedEdgeSink }

func (t timedBatchSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	return t.addBatch(pred, srcs, dsts)
}

type timedAbortSink struct{ *timedEdgeSink }

func (t timedAbortSink) Abort() { t.abort() }

type timedBatchAbortSink struct{ timedBatchSink }

func (t timedBatchAbortSink) Abort() { t.abort() }

// wrapEdgeSink returns s unchanged when tracing is off, and otherwise
// a timing wrapper forwarding BatchEdgeSink and AbortableEdgeSink
// exactly when s implements them. Spans are named name.add,
// name.flush and name.abort, children of parent.
func wrapEdgeSink(tr *tracer, s graphgen.EdgeSink, name string, parent, req int) graphgen.EdgeSink {
	if tr == nil {
		return s
	}
	base := &timedEdgeSink{s: s, tr: tr, name: name, parent: parent, req: req}
	_, batch := s.(graphgen.BatchEdgeSink)
	_, abort := s.(graphgen.AbortableEdgeSink)
	switch {
	case batch && abort:
		return timedBatchAbortSink{timedBatchSink{base}}
	case batch:
		return timedBatchSink{base}
	case abort:
		return timedAbortSink{base}
	}
	return base
}

// timedQuerySink records a span around every call into a wrapped
// query sink and counts the relaxed queries it sees. QuerySink has no
// optional extensions, so one wrapper keeps the pipeline's path.
type timedQuerySink struct {
	s       querygen.QuerySink
	tr      *tracer
	name    string
	parent  int
	req     int
	relaxed int
}

func (t *timedQuerySink) AddQuery(index int, q *query.Query) error {
	id := t.tr.begin(t.name+".add", t.parent, t.req)
	defer t.tr.end(id)
	if q.Relaxed {
		t.relaxed++
	}
	return t.s.AddQuery(index, q)
}

func (t *timedQuerySink) Flush() error {
	id := t.tr.begin(t.name+".flush", t.parent, t.req)
	defer t.tr.end(id)
	return t.s.Flush()
}
