package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span that
// caused this one (0 for a root); Req groups the spans of one request.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the part of a span name before the first dot: "sim.run" belongs
// to layer "sim".
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
// A paused tracer records nothing either.
type tracer struct {
	epoch  time.Time
	next   atomic.Int64
	paused atomic.Bool
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s Span
}

// on reports whether spans are being recorded.
func (t *tracer) on() bool { return t != nil && !t.paused.Load() }

// pause stops recording until the returned function is called.
func (t *tracer) pause() (resume func()) {
	if t == nil {
		return func() {}
	}
	t.paused.Store(true)
	return func() { t.paused.Store(false) }
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name, req string, parent int64) *openSpan {
	if !t.on() {
		return nil
	}
	return &openSpan{t: t, s: Span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name, req string, start, end time.Time) {
	if !t.on() {
		return
	}
	s := Span{ID: t.next.Add(1), Req: req, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// id returns the span's ID for use as a parent (0 when untraced).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and returns its duration (0 when untraced).
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.Dur()
}

// snapshot returns a copy of every recorded span.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// durations returns the durations of every span with the given name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curStart, curEnd int64
		curStart, curEnd = -1, -1
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[s.ID] = s.Dur() - time.Duration(covered)
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer()] += self[s.ID]
	}
	return out
}

// attachBlobSpans ties the daemon's blob calls to the reads that caused
// them. The timing backend knows only the blob key, which it records as the
// span's req. A blob.ec call becomes the child of a serve round trip of a
// read of that key whose interval contains it, and a shard root's blob.fs
// call the child of the blob.ec call of the same key that contains it;
// each takes its parent's req. Calls no read contains (write-behind
// publishes, ladder calls) keep the key as their req.
func attachBlobSpans(spans []Span, reads []op) []Span {
	keyOf := map[string]string{}
	for _, o := range reads {
		if o.key != "" {
			keyOf[o.id] = o.key
		}
	}
	trips := map[string][]int{} // key → its reads' round trips
	for i, s := range spans {
		if k, ok := keyOf[s.Req]; ok && s.Layer() == "serve" {
			trips[k] = append(trips[k], i)
		}
	}
	attach := func(i int, parents []int) {
		for _, j := range parents {
			if spans[j].Start <= spans[i].Start && spans[i].End <= spans[j].End {
				spans[i].Parent, spans[i].Req = spans[j].ID, spans[j].Req
				return
			}
		}
	}
	ecCalls := map[string][]int{} // key → its blob.ec calls
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "blob.ec.") {
			attach(i, trips[s.Req])
			ecCalls[s.Req] = append(ecCalls[s.Req], i)
		}
	}
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "blob.fs.") {
			attach(i, ecCalls[s.Req])
		}
	}
	return spans
}

// spanFile is the document writeSpans produces.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_by_layer"`
	Spans    []Span             `json:"spans"`
}

// writeSpans writes every span plus the per-layer self times to path.
func writeSpans(path, workload string, seed int64, spans []Span) error {
	doc := spanFile{Workload: workload, Seed: seed, SelfMs: map[string]float64{}, Spans: spans}
	for layer, d := range layerSelf(spans) {
		doc.SelfMs[layer] = ms(d)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
