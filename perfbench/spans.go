package main

import (
	"bufio"
	"encoding/json"
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

// The benchmark's own spans, recorded from outside the program: "step"
// around frontend.Client.Pan, "http.request" from RoundTrip to the end
// of the response body (a child of its step), and "server.<route>"
// around the server's handler (linked to its request by spanHeader,
// which the benchmark's transport sets and its handler wrapper reads).
// Spans are kept in memory and written out when the run ends.

const spanHeader = "X-Perfbench-Span"

var clockOrigin = time.Now()

// now is the span clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockOrigin)) }

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Header (http.request only) is when RoundTrip returned with the
	// response headers; Reads are the intervals spent inside the
	// response body's Read calls. The gaps after Header that no read
	// covers are client work (frame decode and merge).
	Header int64      `json:"header,omitempty"`
	Reads  [][2]int64 `json:"reads,omitempty"`
}

// tracer collects spans while on; off, the wrappers record nothing.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every recorded span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

// transport is the RoundTripper every benchmark client uses. It counts
// the response body bytes its client reads (the wire volume, whatever
// the protocol) and, while tracing, records an http.request span per
// request under the owner's current step.
type transport struct {
	base  http.RoundTripper
	tr    *tracer
	bytes atomic.Int64
	// step is the span ID of the owning reader's step in progress
	// (0 outside a traced step).
	step atomic.Uint64
}

func newTransport(tr *tracer) *transport {
	return &transport{
		tr: tr,
		base: &http.Transport{
			MaxConnsPerHost:     maxLoadGoroutines,
			MaxIdleConnsPerHost: maxLoadGoroutines,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func (t *transport) close() { t.base.(*http.Transport).CloseIdleConnections() }

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var sp *span
	if t.tr.on.Load() {
		sp = &span{ID: t.tr.newID(), Parent: t.step.Load(), Name: "http.request", Start: now()}
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := t.base.RoundTrip(req)
	if sp != nil {
		sp.Header = now()
		if err != nil {
			sp.End = sp.Header
			t.tr.record(*sp)
		}
	}
	if err != nil {
		return nil, err
	}
	resp.Body = &body{rc: resp.Body, t: t, sp: sp}
	return resp, nil
}

// body counts the bytes read and, when traced, ends the request span
// at end of body or Close, whichever comes first. A body is read and
// closed by its one requesting goroutine.
type body struct {
	rc io.ReadCloser
	t  *transport
	sp *span
}

func (b *body) Read(p []byte) (int, error) {
	if b.sp == nil {
		n, err := b.rc.Read(p)
		b.t.bytes.Add(int64(n))
		return n, err
	}
	start := now()
	n, err := b.rc.Read(p)
	b.t.bytes.Add(int64(n))
	b.sp.Reads = append(b.sp.Reads, [2]int64{start, now()})
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *body) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

func (b *body) finish() {
	if b.sp == nil {
		return
	}
	b.sp.End = now()
	b.t.tr.record(*b.sp)
	b.sp = nil
}

// handlerWrap times the server's handler per route while tracing.
type handlerWrap struct {
	next http.Handler
	tr   *tracer
}

func (h handlerWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // absent on peer and scrape requests
	sp := span{ID: h.tr.newID(), Parent: parent, Name: "server." + strings.TrimPrefix(r.URL.Path, "/"), Start: now()}
	h.next.ServeHTTP(w, r)
	sp.End = now()
	h.tr.record(sp)
}

// waterfall splits traced steps into layers by exclusive time. Every
// instant of a step goes to exactly one row:
//   - frontend: outside every request of the step, or inside a request
//     after its headers arrived but outside any body Read (the client
//     decoding and merging frames);
//   - server: inside a request while one of its handlers runs;
//   - http: the rest of a request (connection, request write, waiting
//     for bytes the handler already produced).
//
// Rows are per-step means; unattributed is the mean step minus their
// sum. stepSelfMs, not a row, is the mean step time outside all of its
// requests: the frontend row without the decode gaps inside requests.
type waterfall struct {
	steps                                int
	stepMs, frontendMs, httpMs, serverMs float64
	stepSelfMs                           float64
	// means over the steps' requests
	requests                    int
	requestMs, ttfbMs, httpSelf float64
	respKB                      float64
	// per-route handler means over every server span, linked or not
	routeMs map[string]float64
	routeN  map[string]int
}

func (w waterfall) unattributedMs() float64 {
	return w.stepMs - w.frontendMs - w.httpMs - w.serverMs
}

type interval struct{ a, b int64 }

// fold computes the waterfall from recorded spans. respBytes is the
// body byte count the steps' requests read.
func fold(spans []span, respBytes int64) waterfall {
	w := waterfall{routeMs: map[string]float64{}, routeN: map[string]int{}}
	reqsOf := map[uint64][]*span{}
	srvOf := map[uint64][]*span{}
	var steps []*span
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "step":
			steps = append(steps, s)
		case s.Name == "http.request":
			reqsOf[s.Parent] = append(reqsOf[s.Parent], s)
		case strings.HasPrefix(s.Name, "server."):
			srvOf[s.Parent] = append(srvOf[s.Parent], s)
			w.routeMs[s.Name] += ms(s.End - s.Start)
			w.routeN[s.Name]++
		}
	}
	for name, n := range w.routeN {
		w.routeMs[name] /= float64(n)
	}
	var httpSelfNs int64
	for _, st := range steps {
		w.steps++
		w.stepMs += ms(st.End - st.Start)
		var front, srv, reqTotal []interval
		for _, rq := range reqsOf[st.ID] {
			w.requests++
			w.requestMs += ms(rq.End - rq.Start)
			w.ttfbMs += ms(rq.Header - rq.Start)
			reqTotal = append(reqTotal, interval{rq.Start, rq.End})
			// Client work inside the request: after headers, outside reads.
			prev := rq.Header
			for _, rd := range rq.Reads {
				if rd[0] > prev {
					front = append(front, interval{prev, rd[0]})
				}
				prev = max(prev, rd[1])
			}
			if rq.End > prev {
				front = append(front, interval{prev, rq.End})
			}
			for _, h := range srvOf[rq.ID] {
				a, b := max(h.Start, rq.Start), min(h.End, rq.End)
				if b > a {
					srv = append(srv, interval{a, b})
				}
			}
		}
		// Measure by priority: frontend gaps, then server, then http.
		inReq := union(reqTotal)
		gaps := intersect(union(front), inReq)
		srvOnly := subtract(intersect(union(srv), inReq), gaps)
		httpOnly := subtract(subtract(inReq, gaps), srvOnly)
		reqNs := length(inReq)
		w.stepSelfMs += ms(st.End - st.Start - reqNs)
		w.frontendMs += ms(st.End - st.Start - reqNs + length(gaps))
		w.serverMs += ms(length(srvOnly))
		w.httpMs += ms(length(httpOnly))
		httpSelfNs += length(httpOnly)
	}
	if w.steps > 0 {
		n := float64(w.steps)
		w.stepMs /= n
		w.frontendMs /= n
		w.stepSelfMs /= n
		w.serverMs /= n
		w.httpMs /= n
	}
	if w.requests > 0 {
		n := float64(w.requests)
		w.requestMs /= n
		w.ttfbMs /= n
		w.httpSelf = ms(httpSelfNs) / n
		w.respKB = float64(respBytes) / 1024 / n
	}
	return w
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// union merges intervals into a sorted disjoint set.
func union(in []interval) []interval {
	s := append([]interval(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	var out []interval
	for _, iv := range s {
		if iv.b <= iv.a {
			continue
		}
		if n := len(out); n > 0 && iv.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, iv.b)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersect intersects two sorted disjoint sets.
func intersect(x, y []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(x) && j < len(y); {
		a, b := max(x[i].a, y[j].a), min(x[i].b, y[j].b)
		if b > a {
			out = append(out, interval{a, b})
		}
		if x[i].b < y[j].b {
			i++
		} else {
			j++
		}
	}
	return out
}

// subtract removes the sorted disjoint set y from x.
func subtract(x, y []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range x {
		a := iv.a
		for j < len(y) && y[j].b <= a {
			j++
		}
		for k := j; k < len(y) && y[k].a < iv.b; k++ {
			if y[k].a > a {
				out = append(out, interval{a, y[k].a})
			}
			a = max(a, y[k].b)
		}
		if a < iv.b {
			out = append(out, interval{a, iv.b})
		}
	}
	return out
}

func length(s []interval) int64 {
	var n int64
	for _, iv := range s {
		n += iv.b - iv.a
	}
	return n
}

func (w waterfall) String() string {
	var b strings.Builder
	row := func(name string, v float64) {
		share := 0.0
		if w.stepMs > 0 {
			share = v / w.stepMs
		}
		fmt.Fprintf(&b, "waterfall %-13s %9.4f ms %6.1f%%\n", name, v, 100*share)
	}
	row("frontend", w.frontendMs)
	row("http", w.httpMs)
	row("server", w.serverMs)
	row("unattributed", w.unattributedMs())
	row("step", w.stepMs)
	return b.String()
}
