package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the recorder started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs stay free of tracing cost.
type recorder struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newID reserves a span ID, so a client can hand its span's ID to the
// server before the span ends.
func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.newID()
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// write saves every span as one JSON line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Headers carrying the client's request and span IDs to the server
// middleware.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// traced wraps a node's Service.Handler() in the span middleware; with a
// nil recorder it returns h itself.
func traced(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		rec.add(0, parent, req, layerOf(r), start, time.Now())
	})
}

// layerOf names the span for a request path.
func layerOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/query":
		return "server.handler"
	case p == "/v1/internal/shard-eval":
		return "remote.shard_eval"
	case strings.HasSuffix(p, "/documents"):
		return "server.ingest_handler"
	}
	return "server.other"
}

// tracer switches span recording on and off: nodes and clients record
// spans only while it holds a recorder.
type tracer struct{ p atomic.Pointer[recorder] }

func (t *tracer) rec() *recorder {
	if t == nil {
		return nil
	}
	return t.p.Load()
}
