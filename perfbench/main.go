// Command perfbench is the repository's benchmark. From one seed it
// generates a dataset, viewport traces and an update stream; builds the
// Kyrix serving stack in-process (server.New behind the benchmark's
// handler wrapper, served over loopback HTTP); drives it with
// frontend.Client readers, and a writer where the workload has one,
// through a RoundTripper the benchmark owns; checks what the clients
// show against the dataset; and reports per-step metrics.
//
//	go run . --workload zipf_hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures one untraced window and reports the
// end-to-end metrics. With --trace 1 it measures an untraced window for
// the counter-based per-layer metrics, then a traced window that
// records spans, checks every step's rows, and folds the spans into a
// per-step waterfall. Every metric is printed as "metric <name> <value>
// <unit>"; the last line of standard output is one JSON object with
// keys correct, attempted, failed and metrics. Any failed operation or
// oracle mismatch makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"kyrix/internal/storage"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	size     string
	workdir  string
}

func main() {
	o := options{size: "default"}
	flag.StringVar(&o.workload, "workload", "", "workload: zipf_hot, scan_cold, rw_hot or cluster_zipf")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the dataset, the traces and the update stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for WAL and L2 state and span files")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times a run builds the stack; setup_s is the
// median. Before each set-up the heap is collected and returned to the
// operating system, so each starts from the live heap of the generated
// inputs alone; the process's code and runtime structures stay warm.
const setupRepeats = 3

func run(o options, out io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz, ok := sizes[o.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", o.size)
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	in, err := generate(w, sz, o.seed)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	// The inputs stay live to the end; heap_live_mb leaves them out.
	inputHeap := liveHeap()

	// Set up several times; keep the last stack.
	var setups []float64
	var st *stack
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			st.close()
		}
		rows := make([][]storage.Row, w.nodes)
		for i := range rows {
			rows[i] = pointRows(in.ds)
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		st, err = startStack(w, sz, in, rows, o.workdir, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := st.warm(sz.warmSteps); err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	runtime.GC()

	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		dur /= 2
	}
	plain, err := st.measure(dur, false, tr, in.oracle)
	if err != nil {
		return nil, err
	}
	var traced *window
	if o.trace == 1 {
		if traced, err = st.measure(dur, true, tr, in.oracle); err != nil {
			return nil, err
		}
	}
	ops := plain.ops
	if traced != nil {
		ops.add(traced.ops)
	}
	ops.add(st.verify(in, sz, tr))
	res := &result{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: map[string]metric{}}

	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d size=%s\n", w.name, o.seed, o.seconds, o.trace, o.size)
	fmt.Fprintf(out, "# host nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "# config readers=%d nodes=%d scheme=%q batch=%d l1_bytes=%d l2=%t replog=%t writer_per_s=%g points=%d canvas=%gx%g viewport=%g hot_spots=%d\n",
		w.readers, w.nodes, w.scheme.Name(), w.batchSize, w.l1Bytes(sz), w.l2, w.replog, w.writeRate,
		sz.points, sz.canvasW, sz.canvasH, sz.viewport, sz.hotSpots)
	fmt.Fprintf(out, "# setup_s runs %v; timed window %v per window\n", setups, dur)
	for _, e := range ops.errs {
		fmt.Fprintf(out, "# failure: %s\n", e)
	}

	rep := &report{out: out}
	stepMs := stepMillis(plain)
	updateMs := writeMillis(plain, func(r writeRec) int64 { return r.latency })
	rep.timing("step", stepMs)
	if w.writeRate > 0 {
		rep.timing("update", updateMs)
		rep.timing("writer.lag", writeMillis(plain, func(r writeRec) int64 { return r.lag }))
	}
	endToEnd(rep, plain, setups, inputHeap, res)
	if w.writeRate > 0 {
		rep.metric("update_p50_ms", at(updateMs, 0.5), "ms")
		rep.metric("update_p99_ms", at(updateMs, 0.99), "ms")
	}
	perLayerCounters(rep, w, plain)
	if traced != nil {
		spans := tr.snapshot()
		wf := fold(spans, traced.wireBytes)
		perLayerTraced(rep, wf, traced, stepMs)
		fmt.Fprint(out, wf.String())
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), path)
	}

	contract := endToEndNames
	if o.trace == 1 {
		contract = perLayerNames
	}
	for _, name := range contract {
		m, ok := rep.metrics[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", name)
		}
		res.Metrics[name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// endToEndNames and perLayerNames are the metrics the result line
// carries with --trace 0 and --trace 1; BENCHMARK.json lists the same.
var (
	endToEndNames = []string{
		"setup_s", "step_p50_ms", "steps_per_s", "cpu_us_per_step",
		"alloc_kb_per_step", "allocs_per_step", "wire_kb_per_step", "heap_live_mb",
	}
	perLayerNames = []string{
		"frontend.step_self_ms", "frontend.requests_per_step", "frontend.rows_per_step", "frontend.noop_step_share",
		"http.request_ms", "http.ttfb_ms", "http.self_ms", "http.resp_kb_per_request",
		"server.batch_ms",
		"stage.item.p50_ms", "stage.item.count_per_step",
		"stage.compress.p50_ms", "stage.compress.count_per_step",
		"stage.delta.plan.count_per_step", "stage.flush.p50_ms", "stage.flush.count_per_step",
		"stage.db.query.count_per_step", "stage.l2.read.count_per_step",
		"stage.peer.fetch.count_per_step", "stage.peer.serve.count_per_step", "stage.update.count_per_step",
		"wire.ratio", "wire.delta_frame_share", "wire.compressed_frame_share",
		"cache.hit_ratio", "cache.evictions_per_step", "cache.rejected_per_step", "cache.resident_mb",
		"singleflight.coalesced_per_step",
		"sqldb.queries_per_step", "sqldb.rows_scanned_per_step",
		"store.hit_ratio", "store.puts_per_step", "store.dropped_per_step",
		"cluster.peer_fill_ratio", "cluster.peer_fills_per_step", "cluster.local_fallbacks", "cluster.hot_replicas_per_step",
		"replog.term_changes",
		"runtime.gc_cycles_per_kstep", "runtime.gc_pause_ms_per_kstep", "runtime.goroutines_end",
		"waterfall.step_ms", "waterfall.frontend_ms", "waterfall.http_ms", "waterfall.server_ms",
		"trace.overhead_ms",
	}
)

// report prints metrics and timings as it is given them.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) metric(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
	fmt.Fprintf(r.out, "metric %s %v %s\n", name, v, unit)
}

func (r *report) timing(name string, ms []float64) {
	fmt.Fprintf(r.out, "timing %s %s\n", name, summarize(ms))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func stepMillis(win *window) []float64 {
	out := make([]float64, len(win.steps))
	for i, s := range win.steps {
		out[i] = ms(s.dur)
	}
	return out
}

func writeMillis(win *window, f func(writeRec) int64) []float64 {
	out := make([]float64, len(win.writes))
	for i, r := range win.writes {
		out[i] = ms(f(r))
	}
	return out
}

// blockSteps is how many consecutive steps one block of a timed window
// holds: enough that a block's p99 has ten samples beyond it.
const blockSteps = 1000

// block summarises one stretch of consecutive steps of a window.
type block struct {
	p50, p99, stepsPerS float64
}

// blocks cuts the window's steps, in order of completion, into blocks of
// blockSteps (the remainder joins the last block, and a window shorter
// than two blocks is one block) and summarises each. The end-to-end
// wall-clock metrics are medians over blocks, so a stall of the shared
// host that covers less than half of the window leaves them alone.
func blocks(win *window) []block {
	steps := append([]stepRec(nil), win.steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].end < steps[j].end })
	out := make([]block, max(1, len(steps)/blockSteps))
	var prevEnd int64
	for b := range out {
		lo, hi := b*blockSteps, (b+1)*blockSteps
		if b == len(out)-1 {
			hi = len(steps)
		}
		lat := make([]float64, 0, hi-lo)
		for _, s := range steps[lo:hi] {
			lat = append(lat, ms(s.dur))
		}
		sort.Float64s(lat)
		end := steps[hi-1].end
		out[b].p50, _ = quantile(lat, 0.5)
		out[b].p99, _ = quantile(lat, 0.99)
		out[b].stepsPerS = float64(hi-lo) / (float64(end-prevEnd) / 1e9)
		prevEnd = end
	}
	return out
}

func endToEnd(rep *report, win *window, setups []float64, inputHeap uint64, res *result) {
	steps := float64(len(win.steps))
	bs := blocks(win)
	// perBlock prints one figure of every block and returns its median.
	perBlock := func(name string, f func(block) float64) float64 {
		v := make([]float64, len(bs))
		for i, b := range bs {
			v[i] = f(b)
		}
		fmt.Fprintf(rep.out, "# blocks %s %.4f\n", name, v)
		return at(v, 0.5)
	}
	lat := stepMillis(win)
	fmt.Fprintf(rep.out, "# whole window: step p50 %.4f ms, p99 %.4f ms, %.2f steps/s; %d blocks of %d+ steps\n",
		at(lat, 0.5), at(lat, 0.99), steps/(float64(win.wall)/1e9), len(bs), min(blockSteps, len(win.steps)))
	p50 := perBlock("p50", func(b block) float64 { return b.p50 })
	p99 := perBlock("p99", func(b block) float64 { return b.p99 })
	stepsPerS := perBlock("steps/s", func(b block) float64 { return b.stepsPerS })
	rep.metric("setup_s", at(setups, 0.5), "s")
	rep.metric("step_p50_ms", p50, "ms")
	rep.metric("step_p99_ms", p99, "ms")
	rep.metric("steps_per_s", stepsPerS, "1/s")

	p0, p1 := win.procBefore, win.procAfter
	rep.metric("cpu_us_per_step", float64(p1.cpu-p0.cpu)/1e3/steps, "us")
	rep.metric("alloc_kb_per_step", float64(p1.allocBytes-p0.allocBytes)/1024/steps, "KB")
	rep.metric("allocs_per_step", float64(p1.allocObjects-p0.allocObjects)/steps, "count")
	rep.metric("wire_kb_per_step", float64(win.wireBytes)/1024/steps, "KB")
	rep.metric("heap_live_mb", float64(int64(win.heapLive)-int64(inputHeap))/(1<<20), "MB")
	rep.metric("failure_share", div(float64(res.Failed), float64(res.Attempted)), "share")
}

func perLayerCounters(rep *report, w workloadDef, win *window) {
	steps := float64(len(win.steps))
	delta := func(f func(nodeCounters) int64) float64 {
		var d int64
		for i := range win.after {
			d += f(win.after[i]) - f(win.before[i])
		}
		return float64(d)
	}
	var requests, rows, noop float64
	for _, s := range win.steps {
		requests += float64(s.requests)
		rows += float64(s.rows)
		if s.requests == 0 {
			noop++
		}
	}
	rep.metric("frontend.requests_per_step", requests/steps, "count")
	rep.metric("frontend.rows_per_step", rows/steps, "count")
	rep.metric("frontend.noop_step_share", noop/steps, "share")

	stages := stageDelta(win.before, win.after)
	for _, name := range []string{"item", "compress", "delta.plan", "flush", "db.query", "l2.read", "peer.fetch", "peer.serve", "update"} {
		q := stages[name]
		rep.metric("stage."+name+".p50_ms", q.P50Ms, "ms")
		rep.metric("stage."+name+".count_per_step", float64(q.Count)/steps, "count")
	}

	frames := delta(func(c nodeCounters) int64 { return c.snap.Serving.TileRequests + c.snap.Serving.BoxRequests })
	rep.metric("wire.ratio", div(delta(func(c nodeCounters) int64 { return c.snap.Serving.WireBytes }),
		delta(func(c nodeCounters) int64 { return c.snap.Serving.BytesServed })), "ratio")
	rep.metric("wire.delta_frame_share", div(delta(func(c nodeCounters) int64 { return c.snap.Serving.DeltaFrames }), frames), "share")
	rep.metric("wire.compressed_frame_share", div(delta(func(c nodeCounters) int64 { return c.snap.Serving.CompressedFrames }), frames), "share")

	hits := delta(func(c nodeCounters) int64 { return c.l1.Hits })
	misses := delta(func(c nodeCounters) int64 { return c.l1.Misses })
	rep.metric("cache.hit_ratio", div(hits, hits+misses), "ratio")
	rep.metric("cache.evictions_per_step", delta(func(c nodeCounters) int64 { return c.l1.Evictions })/steps, "count")
	rep.metric("cache.rejected_per_step", delta(func(c nodeCounters) int64 { return c.l1.Rejected })/steps, "count")
	var resident int64
	for _, c := range win.after {
		resident += c.l1.Bytes
	}
	rep.metric("cache.resident_mb", float64(resident)/(1<<20), "MB")

	rep.metric("singleflight.coalesced_per_step", delta(func(c nodeCounters) int64 { return c.snap.Serving.CoalescedHits })/steps, "count")

	queries := delta(func(c nodeCounters) int64 { return c.snap.Serving.DBQueries })
	rep.metric("sqldb.queries_per_step", queries/steps, "count")
	rep.metric("sqldb.rows_scanned_per_step", delta(func(c nodeCounters) int64 { return c.db.RowsScanned })/steps, "count")
	rep.metric("sqldb.query_ms", div(delta(func(c nodeCounters) int64 { return c.snap.Serving.QueryNanos })/1e6, queries), "ms")

	l2 := func(f func(c nodeCounters) int64) float64 {
		return delta(func(c nodeCounters) int64 {
			if c.snap.Cache.L2 == nil {
				return 0
			}
			return f(c)
		})
	}
	l2Hits := l2(func(c nodeCounters) int64 { return c.snap.Cache.L2.Hits })
	l2Misses := l2(func(c nodeCounters) int64 { return c.snap.Cache.L2.Misses })
	rep.metric("store.hit_ratio", div(l2Hits, l2Hits+l2Misses), "ratio")
	rep.metric("store.puts_per_step", l2(func(c nodeCounters) int64 { return c.snap.Cache.L2.Puts })/steps, "count")
	rep.metric("store.dropped_per_step", l2(func(c nodeCounters) int64 {
		l := c.snap.Cache.L2
		return l.DroppedFull + l.DroppedStale + l.DroppedOversize
	})/steps, "count")

	cl := func(f func(c nodeCounters) int64) float64 {
		return delta(func(c nodeCounters) int64 {
			if c.snap.Cluster == nil {
				return 0
			}
			return f(c)
		})
	}
	fills := cl(func(c nodeCounters) int64 { return c.snap.Cluster.PeerFills })
	rep.metric("cluster.peer_fill_ratio", div(fills, fills+queries), "ratio")
	rep.metric("cluster.peer_fills_per_step", fills/steps, "count")
	rep.metric("cluster.local_fallbacks", cl(func(c nodeCounters) int64 { return c.snap.Cluster.LocalFallbacks }), "count")
	rep.metric("cluster.hot_replicas_per_step", cl(func(c nodeCounters) int64 { return c.snap.Cluster.HotReplicas })/steps, "count")

	rep.metric("replog.term_changes", float64(win.terms), "count")

	p0, p1 := win.procBefore, win.procAfter
	rep.metric("runtime.gc_cycles_per_kstep", float64(p1.gcCycles-p0.gcCycles)*1000/steps, "count")
	rep.metric("runtime.gc_pause_ms_per_kstep", ms(int64(p1.gcPause-p0.gcPause))*1000/steps, "ms")
	rep.metric("runtime.goroutines_end", float64(win.goroutines), "count")

	if w.writeRate > 0 {
		rep.metric("writer.lag_ms", at(writeMillis(win, func(r writeRec) int64 { return r.lag }), 0.99), "ms")
	}
}

func perLayerTraced(rep *report, wf waterfall, traced *window, untracedStepMs []float64) {
	rep.metric("frontend.step_self_ms", wf.stepSelfMs, "ms")
	rep.metric("http.request_ms", wf.requestMs, "ms")
	rep.metric("http.ttfb_ms", wf.ttfbMs, "ms")
	rep.metric("http.self_ms", wf.httpSelf, "ms")
	rep.metric("http.resp_kb_per_request", wf.respKB, "KB")
	for _, route := range []string{"batch", "update", "peer"} {
		rep.metric("server."+route+"_ms", wf.routeMs["server."+route], "ms")
	}
	rep.metric("waterfall.step_ms", wf.stepMs, "ms")
	rep.metric("waterfall.frontend_ms", wf.frontendMs, "ms")
	rep.metric("waterfall.http_ms", wf.httpMs, "ms")
	rep.metric("waterfall.server_ms", wf.serverMs, "ms")
	rep.metric("waterfall.unattributed_ms", wf.unattributedMs(), "ms")
	tracedP50 := at(stepMillis(traced), 0.5)
	untracedP50 := at(untracedStepMs, 0.5)
	rep.metric("trace.overhead_ms", tracedP50-untracedP50, "ms")
}
