package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"kyrix/internal/frontend"
	"kyrix/internal/geom"
	"kyrix/internal/server"
	"kyrix/internal/storage"
)

// reader is one closed-loop user: it pans to the next viewport of its
// trace as soon as the previous pan returned.
type reader struct {
	node  *node
	rt    *transport
	c     *frontend.Client
	trace []geom.Rect
	pos   int
}

func newReader(n *node, w workloadDef, sz size, trace []geom.Rect, tr *tracer) (*reader, error) {
	rt := newTransport(tr)
	c, err := newClient(n, w, sz, rt)
	if err != nil {
		rt.close()
		return nil, err
	}
	return &reader{node: n, rt: rt, c: c, trace: trace}, nil
}

func (r *reader) next() geom.Rect {
	vp := r.trace[r.pos%len(r.trace)]
	r.pos++
	return vp
}

// stepRec is one measured pan.
type stepRec struct {
	dur      int64 // ns
	end      int64 // ns since the window started
	requests int
	rows     int
}

// writer is the open-loop update stream: update k is due at
// start + k/rate whatever happened to earlier ones, and its latency is
// timed from when it was due. Update k sets val of a seeded uniform
// point id to 1e6+k, far above any generated val, so versions grow
// strictly and a stale value cannot pass for an update.
type writer struct {
	url    string
	rt     *transport
	hc     *http.Client
	rate   float64
	rng    *rand.Rand
	points int
	next   int
	log    *ackLog
}

func newWriter(n *node, rate float64, seed int64, points int, log *ackLog, tr *tracer) *writer {
	rt := newTransport(tr)
	return &writer{
		url: n.url + "/update", rt: rt, rate: rate, points: points, log: log,
		rng: rand.New(rand.NewSource(seed)),
		hc:  &http.Client{Transport: rt, Timeout: 30 * time.Second},
	}
}

func (w *writer) nextUpdate() update {
	u := update{id: int64(w.rng.Intn(w.points)), version: 1e6 + float64(w.next)}
	w.next++
	return u
}

// writeRec is one acked update: latency from due time to ack, and how
// late the generator sent it.
type writeRec struct{ latency, lag int64 }

// send posts u and records its ack.
func (w *writer) send(u update) error {
	body, err := json.Marshal(server.UpdateRequest{
		SQL: "UPDATE points SET val = ? WHERE id = ?",
		Args: []server.ArgValue{
			{Kind: storage.TFloat64, F: u.version},
			{Kind: storage.TInt64, I: u.id},
		},
	})
	if err != nil {
		return err
	}
	w.log.submit(u.id, u.version)
	resp, err := w.hc.Post(w.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("update: %s: %s", resp.Status, msg)
	}
	w.log.ack(u.id, u.version, now())
	return nil
}

// run sends the updates due in [start, deadline).
func (w *writer) run(start, deadline int64) (res load) {
	interval := 1e9 / w.rate
	for k := 0; ; k++ {
		due := start + int64(float64(k)*interval)
		if due >= deadline {
			return res
		}
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sent := now()
		err := w.send(w.nextUpdate())
		acked := now()
		if err != nil {
			res.ops.record(err.Error())
		} else {
			res.ops.record("")
			res.writes = append(res.writes, writeRec{latency: acked - due, lag: sent - due})
		}
	}
}

// load is what the load generators did in a window.
type load struct {
	steps  []stepRec
	writes []writeRec
	ops    tally
}

func (l *load) add(o load) {
	l.steps = append(l.steps, o.steps...)
	l.writes = append(l.writes, o.writes...)
	l.ops.add(o.ops)
}

// window is what one timed window measured.
type window struct {
	load
	traced bool
	wall   int64 // ns, start to the last step's end

	before, after         []nodeCounters
	procBefore, procAfter procCounters
	wireBytes             int64
	terms                 uint64 // replicated-log term changes
	heapLive              uint64
	goroutines            int
}

// tally counts attempted and failed operations and keeps the first few
// failure messages.
type tally struct {
	attempted, failed int
	errs              []string
}

// record counts one operation; msg is empty when it succeeded.
func (t *tally) record(msg string) {
	t.attempted++
	if msg == "" {
		return
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, msg)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// warm runs each reader's first warmSteps pans concurrently (and, with
// a writer, a few updates) so caches fill and lazy set-up finishes
// before anything is timed.
func (st *stack) warm(warmSteps int) error {
	// Updates first: each one clears the L1 cache the readers then fill.
	if st.writer != nil {
		for k := 0; k < 10; k++ {
			if err := st.writer.send(st.writer.nextUpdate()); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	errs := make([]error, len(st.readers))
	var wg sync.WaitGroup
	for i, rd := range st.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < warmSteps && errs[i] == nil; k++ {
				_, errs[i] = rd.c.Pan(rd.next())
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// measure runs one timed window of dur. Readers run closed-loop on
// their own goroutines; the writer, if any, runs open-loop on one more.
// When traced, every step is recorded as a span and its rows are checked
// against the oracle.
func (st *stack) measure(dur time.Duration, traced bool, tr *tracer, or *oracle) (*window, error) {
	res := &window{traced: traced}
	var err error
	if res.before, err = readNodes(st.nodes); err != nil {
		return nil, err
	}
	termBefore := st.term()
	wire0 := st.readerBytes()
	tr.on.Store(traced)
	res.procBefore = readProc()
	start := now()
	deadline := start + int64(dur)
	// One result slot per load goroutine: readers, then the writer.
	results := make([]load, len(st.readers)+1)
	var wg sync.WaitGroup
	for i, rd := range st.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = rd.loop(start, deadline, traced, tr, or, st.log)
		}()
	}
	if st.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[len(st.readers)] = st.writer.run(start, deadline)
		}()
	}
	wg.Wait()
	res.procAfter = readProc()
	tr.on.Store(false)
	for _, r := range results {
		res.add(r)
	}
	for _, s := range res.steps {
		res.wall = max(res.wall, s.end)
	}
	res.wireBytes = st.readerBytes() - wire0
	res.terms = st.term() - termBefore
	res.goroutines = runtime.NumGoroutine()
	if res.after, err = readNodes(st.nodes); err != nil {
		return nil, err
	}
	res.heapLive = liveHeap()
	if len(res.steps) == 0 {
		return nil, fmt.Errorf("window measured no steps")
	}
	return res, nil
}

func (rd *reader) loop(start, deadline int64, traced bool, tr *tracer, or *oracle, log *ackLog) (res load) {
	for {
		t0 := now()
		if t0 >= deadline {
			break
		}
		vp := rd.next()
		var sp span
		if traced {
			sp = span{ID: tr.newID(), Name: "step", Start: t0}
			rd.rt.step.Store(sp.ID)
		}
		rep, err := rd.c.Pan(vp)
		t1 := now()
		if traced {
			rd.rt.step.Store(0)
			sp.End = t1
			tr.record(sp)
		}
		res.steps = append(res.steps, stepRec{dur: t1 - t0, end: t1 - start, requests: rep.Requests, rows: rep.Rows})
		msg := ""
		if err != nil {
			msg = err.Error()
		} else if traced {
			msg = rd.check(or, log, t0, rep.Requests > 0)
		}
		res.ops.record(msg)
	}
	return res
}

// check compares what the reader's client shows with the dataset.
func (rd *reader) check(or *oracle, log *ackLog, since int64, fetched bool) string {
	rows, err := rd.c.ObjectsInViewport(0)
	if err != nil {
		return err.Error()
	}
	return or.check(rd.c.Viewport(), rows, log, since, fetched)
}

func readNodes(nodes []*node) ([]nodeCounters, error) {
	out := make([]nodeCounters, len(nodes))
	for i, n := range nodes {
		var err error
		if out[i], err = readNode(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (st *stack) readerBytes() int64 {
	var n int64
	for _, rd := range st.readers {
		n += rd.rt.bytes.Load()
	}
	return n
}

// term sums the replicated-log terms of every node that runs a log.
func (st *stack) term() uint64 {
	var t uint64
	for _, n := range st.nodes {
		if rl := n.srv.Replog(); rl != nil {
			t += rl.Snapshot().Term
		}
	}
	return t
}

// verify replays each reader's verification viewports through a fresh
// client, then reads every updated point through another fresh client,
// checking everything shown against the dataset and the acked updates.
// No update is in flight, so every pan must be fresh.
func (st *stack) verify(in *inputs, sz size, tr *tracer) tally {
	var ops tally
	check := func(n *node, vps []geom.Rect) {
		rd, err := newReader(n, st.w, sz, vps, tr)
		if err != nil {
			ops.record("verify: " + err.Error())
			return
		}
		defer rd.rt.close()
		for range vps {
			if _, err := rd.c.Pan(rd.next()); err != nil {
				ops.record("verify: " + err.Error())
			} else if msg := rd.check(in.oracle, st.log, now(), true); msg != "" {
				ops.record("verify: " + msg)
			} else {
				ops.record("")
			}
		}
	}
	for i, vps := range in.verify {
		check(st.readers[i].node, vps)
	}
	var updated []geom.Rect
	ids := st.log.ids()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := in.ds.Points[id]
		updated = append(updated, geom.RectXYWH(p.X-sz.viewport/2, p.Y-sz.viewport/2, sz.viewport, sz.viewport))
	}
	if len(updated) > 0 {
		check(st.nodes[0], updated)
	}
	return ops
}
