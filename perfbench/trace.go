package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only from the benchmark's side of each call: around the
// calls it makes into a layer, in an http.Handler wrapped around each
// server's Handler(), and in the RoundTripper it hands the coordinator. The
// program itself carries no tracing.
//
// A span's name is "<layer>.<what>"; the layer is the text before the first
// dot. Spans of one HTTP request share the client span's id as request id.

const (
	headerParent  = "X-Bench-Parent"
	headerRequest = "X-Bench-Request"
)

type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      int64 // nanoseconds since the tracer was created
	// Bytes is what the span moved over HTTP (request plus response body).
	Bytes int64
}

// spanCtx identifies the span that causes the next one.
type spanCtx struct{ id, req int64 }

type ctxKey struct{}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, parent spanCtx) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent.id, Req: parent.req, Name: name, Start: int64(time.Since(t.base))}
}

// finish records s and returns it with its end time set.
func (t *tracer) finish(s span) span {
	if t == nil {
		return s
	}
	s.End = int64(time.Since(t.base))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// spansSoFar returns the recorded spans; callers only read them.
func (t *tracer) spansSoFar() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// routeOf maps a request path to the route it serves.
func routeOf(path string) string {
	for _, r := range []struct{ suffix, route string }{
		{"/influence", "influence"},
		{"/influence:batch", "batch"},
		{"/seeds", "seeds"},
		{"/top", "top"},
		{"/shard/coverage", "coverage"},
		{"/shard/marginal", "marginal"},
	} {
		if strings.HasSuffix(path, r.suffix) {
			return r.route
		}
	}
	return "other"
}

func headerInt(r *http.Request, name string) int64 {
	v, _ := strconv.ParseInt(r.Header.Get(name), 10, 64)
	return v
}

// wrapHandler records a "<layer>.handler.<route>" span around every request
// h serves, linked to the caller's span through the request headers, and
// hands the span to h through the request context so outgoing shard calls
// can link to it. A nil tracer returns h itself.
func (t *tracer) wrapHandler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := spanCtx{id: headerInt(r, headerParent), req: headerInt(r, headerRequest)}
		s := t.begin(layer+".handler."+routeOf(r.URL.Path), parent)
		ctx := context.WithValue(r.Context(), ctxKey{}, spanCtx{id: s.ID, req: parent.req})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.finish(s)
	})
}

// wrapTransport counts and times the coordinator's shard calls: each is a
// "cluster.rpc.<primitive>" span under the coordinator's handler span, ended
// when the coordinator closes the response body.
func (t *tracer) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return &tracingTransport{t: t, base: base}
}

type tracingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(ctxKey{}).(spanCtx)
	s := tt.t.begin("cluster.rpc."+routeOf(req.URL.Path), parent)
	out := req.Clone(req.Context())
	out.Header.Set(headerParent, strconv.FormatInt(s.ID, 10))
	out.Header.Set(headerRequest, strconv.FormatInt(parent.req, 10))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		tt.t.finish(s)
		return nil, err
	}
	s.Bytes = max(req.ContentLength, 0)
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.finish(b.s) })
	return err
}

// selfNanos returns each span's duration minus the part of it covered by its
// children.
func selfNanos(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// layerSelfSeconds sums self time per layer over the whole traced pass.
func (t *tracer) layerSelfSeconds() map[string]float64 {
	spans := t.spansSoFar()
	self := selfNanos(spans)
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range spans {
		if _, ok := out[s.layer()]; ok {
			out[s.layer()] += float64(self[s.ID]) / 1e9
		}
	}
	return out
}

// writeCSV writes every span, one per line, after the run.
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,request,name,start_ns,end_ns,bytes")
	for _, s := range t.spansSoFar() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End, s.Bytes)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
