package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's side only, around the calls it
// makes into a layer (arb.exec, server.http, vstore.replace, ...), around
// the physical reads the program makes through a benchmark-owned
// io.ReaderAt (storage.readat), and — where the callee reports a duration
// of its own (Profile.Engine.Phase1Time, the server's elapsed_seconds) —
// as a child span of that length inside the call. Spans inside the
// program are a later change.

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent is a span id or -1; Req groups the spans of one
// benchmark operation.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"` // layer.call
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes share the workload code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Req: req})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// reported adds a child span of the given length whose start the callee
// did not tell us: it is placed so that it ends where span before begins
// (the callee's next part), or where the parent ends when before is -1.
// It must be called after end(parent), and is clipped to the parent.
func (t *tracer) reported(name string, parent int, d time.Duration, before int) int {
	if t == nil || d <= 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	end := p.End
	if before >= 0 {
		end = t.spans[before].Start
	}
	start := end - int64(d)
	if start < p.Start {
		start = p.Start
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Req: p.Req})
	return id
}

// reparent moves the children of from that carry the given name and start
// inside span to under it: physical reads are recorded before the call
// that caused them has reported its phases.
func (t *tracer) reparent(from, to int, name string) {
	if t == nil || to < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lo, hi := t.spans[to].Start, t.spans[to].End
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Start >= t.spans[from].Start; i-- {
		s := &t.spans[i]
		if s.Parent == from && s.Name == name && s.Start >= lo && s.Start < hi {
			s.Parent = to
		}
	}
}

// layer is the part of a span name before the first dot.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part its
// child spans cover, and returns it with the total over all layers.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	self := map[string]time.Duration{}
	if t == nil {
		return self, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var total time.Duration
	for i, s := range t.spans {
		d := s.End - s.Start - children[i]
		if d < 0 {
			d = 0
		}
		self[layer(s.Name)] += time.Duration(d)
		total += time.Duration(d)
	}
	return self, total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedReader is the benchmark-owned io.ReaderAt an unversioned database
// is opened through in the traced pass (storage.OpenReaderAt): every
// physical read the scans make becomes a storage.readat span under
// whatever call the benchmark currently has open.
type tracedReader struct {
	r io.ReaderAt
	b *bench // spans go to b.tr, which is nil outside the traced slice
	// cur and req are set by the single caller before each call into the
	// program; scans read from that goroutine or from workers it waits
	// for, so a plain field ordered by the call itself is enough.
	cur, req int
}

func (r *tracedReader) ReadAt(p []byte, off int64) (int, error) {
	tr := r.b.tr
	id := tr.begin("storage.readat", r.cur, r.req)
	n, err := r.r.ReadAt(p, off)
	tr.end(id)
	return n, err
}
