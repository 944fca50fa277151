package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/telemetry"
)

// span is one interval the benchmark observed at a layer boundary:
// a client request, a server handler, a router-to-node forward, or a
// kernel replay. Spans of one request share Trace; Parent links a span
// to the span that caused it (0 for roots).
type span struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Trace  string            `json:"trace,omitempty"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory while it is on. Every recording site
// lives in the benchmark's own files, wrapped around calls into a
// layer's public surface; nothing is recorded inside the program.
type recorder struct {
	on  atomic.Bool
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
	// handlerOf maps a trace to the handler span serving it, so spans
	// the program starts on its own (router forwards) can be parented.
	handlerOf map[string]uint64
}

func newRecorder() *recorder { return &recorder{handlerOf: make(map[string]uint64)} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) handlerFor(trace string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.handlerOf[trace]
}

// beginClient starts a client span and stamps req with a traceparent
// naming it, so the server side of the request joins the same trace.
func (r *recorder) beginClient(req *http.Request) span {
	s := span{ID: r.newID(), Trace: telemetry.NewTraceID(), Name: "client", Start: time.Now()}
	req.Header.Set("traceparent", telemetry.FormatTraceParent(s.Trace, s.ID))
	return s
}

// wrap is the handler middleware: one span named name around every
// request h serves while the recorder is on, parented on the client
// span through the request's traceparent.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.enabled() {
			h.ServeHTTP(w, req)
			return
		}
		trace, parent, _ := telemetry.ParseTraceParent(req.Header.Get("traceparent"))
		s := span{ID: r.newID(), Parent: parent, Trace: trace, Name: name, Start: time.Now()}
		if trace != "" {
			r.mu.Lock()
			r.handlerOf[trace] = s.ID
			r.mu.Unlock()
		}
		h.ServeHTTP(w, req)
		s.End = time.Now()
		r.add(s)
	})
}

// forwardTransport times the router's sub-requests to its nodes. It is
// injected through cluster.Config.Transport and records one "forward"
// span per POST, from send until the router closes the response body,
// with the node's Server-Timing header attached. Health polls and other
// GETs pass through unrecorded.
type forwardTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *forwardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.enabled() || req.Method != http.MethodPost {
		return t.base.RoundTrip(req)
	}
	trace, _, _ := telemetry.ParseTraceParent(req.Header.Get("traceparent"))
	s := span{
		ID: t.rec.newID(), Parent: t.rec.handlerFor(trace), Trace: trace,
		Name: "forward", Start: time.Now(),
		Attrs: map[string]string{"node": req.URL.Host, "path": req.URL.Path},
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = time.Now()
		s.Attrs["error"] = err.Error()
		t.rec.add(s)
		return nil, err
	}
	s.Attrs["server_timing"] = resp.Header.Get("Server-Timing")
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends its forward span when the router closes the body.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = time.Now()
		b.rec.add(b.s)
	})
	return err
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (concurrent forwards)
// and may stick out of the parent; only the union of their overlap with
// the parent is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		j := i + 1
		for ; j < len(ivs) && !ivs[j].a.After(b); j++ {
			if ivs[j].b.After(b) {
				b = ivs[j].b
			}
		}
		covered += b.Sub(a)
		i = j
	}
	return parent.dur() - covered
}

// childrenByParent indexes spans by parent ID.
func childrenByParent(spans []span) map[uint64][]span {
	out := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// writeSpans dumps the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
