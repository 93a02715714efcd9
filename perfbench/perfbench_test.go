package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kyrix/internal/geom"
	"kyrix/internal/storage"
)

// wantMetrics is every metric the benchmark names, with its unit.
var wantMetrics = map[string]string{
	"setup_s": "s", "step_p50_ms": "ms", "step_p99_ms": "ms", "steps_per_s": "1/s",
	"cpu_us_per_step": "us", "alloc_kb_per_step": "KB", "allocs_per_step": "count",
	"wire_kb_per_step": "KB", "heap_live_mb": "MB", "failure_share": "share",

	"frontend.step_self_ms": "ms", "frontend.requests_per_step": "count",
	"frontend.rows_per_step": "count", "frontend.noop_step_share": "share",
	"http.request_ms": "ms", "http.ttfb_ms": "ms", "http.self_ms": "ms", "http.resp_kb_per_request": "KB",
	"server.batch_ms": "ms", "server.update_ms": "ms", "server.peer_ms": "ms",
	"wire.ratio": "ratio", "wire.delta_frame_share": "share", "wire.compressed_frame_share": "share",
	"cache.hit_ratio": "ratio", "cache.evictions_per_step": "count", "cache.rejected_per_step": "count",
	"cache.resident_mb":               "MB",
	"singleflight.coalesced_per_step": "count",
	"sqldb.queries_per_step":          "count", "sqldb.rows_scanned_per_step": "count", "sqldb.query_ms": "ms",
	"store.hit_ratio": "ratio", "store.puts_per_step": "count", "store.dropped_per_step": "count",
	"cluster.peer_fill_ratio": "ratio", "cluster.peer_fills_per_step": "count",
	"cluster.local_fallbacks": "count", "cluster.hot_replicas_per_step": "count",
	"replog.term_changes":         "count",
	"runtime.gc_cycles_per_kstep": "count", "runtime.gc_pause_ms_per_kstep": "ms", "runtime.goroutines_end": "count",
	"waterfall.step_ms": "ms", "waterfall.frontend_ms": "ms", "waterfall.http_ms": "ms",
	"waterfall.server_ms": "ms", "waterfall.unattributed_ms": "ms",
	"trace.overhead_ms": "ms",
}

// writeMetrics exist only where the workload writes.
var writeMetrics = map[string]string{"update_p50_ms": "ms", "update_p99_ms": "ms", "writer.lag_ms": "ms"}

func init() {
	for _, s := range []string{"item", "compress", "delta.plan", "flush", "db.query", "l2.read", "peer.fetch", "peer.serve", "update"} {
		wantMetrics["stage."+s+".p50_ms"] = "ms"
		wantMetrics["stage."+s+".count_per_step"] = "count"
	}
}

func runTiny(t *testing.T, workload string, trace int) (map[string]metric, *result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{workload: workload, seed: 7, seconds: 1, trace: trace, size: "tiny", workdir: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	printed := map[string]metric{}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) != 4 || f[0] != "metric" {
			continue
		}
		if _, dup := printed[f[1]]; dup {
			t.Errorf("%s: metric %s printed twice", workload, f[1])
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Errorf("%s: metric %s: %v", workload, f[1], err)
		}
		printed[f[1]] = metric{v, f[3]}
	}
	return printed, res, last
}

// TestSmoke runs every workload at tiny size with tracing and checks
// that each named metric is printed once with its unit, that the
// oracle passes, that the waterfall adds up, and that the result line
// carries exactly the per-layer metrics.
func TestSmoke(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			printed, res, last := runTiny(t, name, 1)
			want := map[string]string{}
			for k, u := range wantMetrics {
				want[k] = u
			}
			if w.writeRate > 0 {
				for k, u := range writeMetrics {
					want[k] = u
				}
			}
			for k, u := range want {
				m, ok := printed[k]
				switch {
				case !ok:
					t.Errorf("metric %s not printed", k)
				case m.Unit != u:
					t.Errorf("metric %s unit %q, want %q", k, m.Unit, u)
				}
			}
			for k := range printed {
				if _, ok := want[k]; !ok {
					t.Errorf("unexpected metric %s", k)
				}
			}
			if !res.Correct || res.Failed != 0 || printed["failure_share"].Value != 0 {
				t.Errorf("oracle failed: %d of %d operations", res.Failed, res.Attempted)
			}
			rows := printed["waterfall.frontend_ms"].Value + printed["waterfall.http_ms"].Value +
				printed["waterfall.server_ms"].Value + printed["waterfall.unattributed_ms"].Value
			if step := printed["waterfall.step_ms"].Value; step <= 0 || math.Abs(rows-step) > 1e-9 {
				t.Errorf("waterfall rows sum to %v, mean step %v", rows, step)
			}
			var line result
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				t.Fatalf("last line %q: %v", last, err)
			}
			if len(line.Metrics) != len(perLayerNames) || line.Attempted < 1 {
				t.Errorf("result line has %d metrics (want %d), attempted %d", len(line.Metrics), len(perLayerNames), line.Attempted)
			}
		})
	}
}

func TestSmokeUntraced(t *testing.T) {
	_, res, last := runTiny(t, "zipf_hot", 0)
	var line result
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !res.Correct || len(line.Metrics) != len(endToEndNames) {
		t.Errorf("correct=%t, %d metrics (want %d)", res.Correct, len(line.Metrics), len(endToEndNames))
	}
	for _, name := range endToEndNames {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, line.Metrics[name].Value)
		}
	}
}

// staleProxy sits between a client and a node and, once replaying,
// answers a /batch request it has seen before with the response it
// recorded then.
type staleProxy struct {
	target    string
	mu        sync.Mutex
	replaying bool
	seen      map[string][]byte
}

func (p *staleProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	p.mu.Lock()
	old, ok := p.seen[r.URL.Path+string(body)]
	replay := p.replaying && ok
	p.mu.Unlock()
	if replay {
		w.Header().Set("Content-Type", "application/x-kyrix-batch-v3")
		_, _ = w.Write(old)
		return
	}
	req, err := http.NewRequest(r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	p.mu.Lock()
	p.seen[r.URL.Path+string(body)] = data
	p.mu.Unlock()
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
}

// TestOracleCatchesStaleResponse serves a client a response recorded
// before an acked update and expects the oracle to flag it, while a
// client talking to the node directly passes.
func TestOracleCatchesStaleResponse(t *testing.T) {
	w, sz := workloads["rw_hot"], sizes["tiny"]
	in, err := generate(w, sz, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	st, err := startStack(w, sz, in, [][]storage.Row{pointRows(in.ds)}, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	proxy := &staleProxy{target: st.nodes[0].url, seen: map[string][]byte{}}
	ps := httptest.NewServer(proxy)
	defer ps.Close()
	via := &node{url: ps.URL, ca: st.nodes[0].ca}

	p := in.ds.Points[len(in.ds.Points)/2]
	vp := geom.RectXYWH(p.X-sz.viewport/2, p.Y-sz.viewport/2, sz.viewport, sz.viewport)
	pan := func(n *node) *reader {
		t.Helper()
		rd, err := newReader(n, w, sz, []geom.Rect{vp}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rd.rt.close)
		if _, err := rd.c.Pan(rd.next()); err != nil {
			t.Fatal(err)
		}
		return rd
	}

	pan(via) // recorded before the update
	if err := st.writer.send(update{id: p.ID, version: 2e6}); err != nil {
		t.Fatal(err)
	}
	since := now()
	proxy.mu.Lock()
	proxy.replaying = true
	proxy.mu.Unlock()

	if msg := pan(st.nodes[0]).check(in.oracle, st.log, since, true); msg != "" {
		t.Fatalf("direct read after the update: %s", msg)
	}
	msg := pan(via).check(in.oracle, st.log, since, true)
	if msg == "" {
		t.Fatal("oracle accepted a response recorded before an acked update")
	}
	t.Logf("oracle: %s", msg)
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.11, 2}} {
		if got, n := quantile(s, c.q); got != c.want || n != 10 {
			t.Errorf("quantile(%v) = %v, %d; want %v, 10", c.q, got, n, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestBlocks checks that a stall of one block in three moves neither the
// median block latency nor the median block throughput.
func TestBlocks(t *testing.T) {
	win := &window{}
	var end int64
	for b := 0; b < 3; b++ {
		dur := int64(1e6) // 1 ms a step
		if b == 1 {
			dur = 10e6
		}
		for k := 0; k < blockSteps; k++ {
			end += dur
			win.steps = append(win.steps, stepRec{dur: dur, end: end})
		}
	}
	win.steps = append(win.steps, stepRec{dur: 1e6, end: end + 1e6}) // joins the last block
	bs := blocks(win)
	if len(bs) != 3 {
		t.Fatalf("got %d blocks, want 3", len(bs))
	}
	var out bytes.Buffer
	rep := &report{out: &out}
	endToEnd(rep, win, []float64{1}, 0, &result{Attempted: 1})
	for _, c := range []struct {
		name string
		want float64
	}{{"step_p50_ms", 1}, {"step_p99_ms", 1}, {"steps_per_s", 1000}} {
		if got := rep.metrics[c.name].Value; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFold checks the waterfall's priority rules on one hand-built step:
// client gaps beat server time, server time beats transport time.
func TestFold(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		// Request 20..90, headers at 50, body reads 50..60 and 70..80.
		{ID: 2, Parent: 1, Name: "http.request", Start: 20, End: 90, Header: 50, Reads: [][2]int64{{50, 60}, {70, 80}}},
		// Handler 30..75 (overlaps the client gap 60..70).
		{ID: 3, Parent: 2, Name: "server.batch", Start: 30, End: 75},
	}
	wf := fold(spans, 1024)
	// frontend: 0..20, 60..70 and 80..90 (gaps), 90..100 = 50
	// server: 30..60, 70..75 = 35; http: 20..30, 75..80 = 15
	// step self (outside the request): 0..20, 90..100 = 30
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"frontend", wf.frontendMs, ms(50)}, {"server", wf.serverMs, ms(35)},
		{"http", wf.httpMs, ms(15)}, {"step", wf.stepMs, ms(100)}, {"step self", wf.stepSelfMs, ms(30)},
		{"unattributed", wf.unattributedMs(), 0}, {"ttfb", wf.ttfbMs, ms(30)},
		{"server.batch", wf.routeMs["server.batch"], ms(45)}, {"respKB", wf.respKB, 1},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
