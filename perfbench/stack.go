package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"kyrix/internal/frontend"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// node is one in-process server behind the benchmark's handler wrapper.
type node struct {
	srv *server.Server
	ca  *spec.CompiledApp
	hs  *http.Server
	ln  net.Listener
	url string
}

// stack is a serving deployment for one workload plus its load clients.
type stack struct {
	w       workloadDef
	nodes   []*node
	readers []*reader
	writer  *writer
	log     *ackLog // the writer's updates
	tmp     string  // per-stack directory for WAL and L2 state
}

// app declares the benchmark's visualization: one canvas with one dot
// layer over the points table.
func app(ds *workload.Dataset, viewport float64) (*spec.CompiledApp, error) {
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	return spec.Compile(&spec.App{
		Name: "perfbench",
		Canvases: []spec.Canvas{{
			ID: "main", W: ds.CanvasW, H: ds.CanvasH,
			Transforms: []spec.Transform{{
				ID: "pts", Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "pts",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: pointRadius},
				Renderer:    "dots",
			}},
		}},
		InitialCanvas: "main",
		InitialX:      ds.CanvasW / 2, InitialY: ds.CanvasH / 2,
		ViewportW: viewport, ViewportH: viewport,
	}, reg)
}

func pointRows(ds *workload.Dataset) []storage.Row {
	rows := make([]storage.Row, len(ds.Points))
	for i, p := range ds.Points {
		rows[i] = storage.Row{storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val)}
	}
	return rows
}

// startStack builds every node from rows (one copy per node, consumed),
// serves it, and waits until it accepts work: the replicated log has a
// leader and every node has joined the ring. It then connects the
// workload's clients.
func startStack(w workloadDef, sz size, in *inputs, rows [][]storage.Row, workdir string, tr *tracer) (st *stack, err error) {
	st = &stack{w: w, log: newAckLog()}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.tmp, err = os.MkdirTemp(workdir, w.name+"-"); err != nil {
		return st, err
	}
	// Every listener exists before any server so each node's ring can
	// name all members.
	var urls []string
	for i := 0; i < w.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, err
		}
		n := &node{ln: ln, url: "http://" + ln.Addr().String()}
		st.nodes = append(st.nodes, n)
		urls = append(urls, n.url)
	}
	for i, n := range st.nodes {
		db := sqldb.NewDB()
		if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
			return st, err
		}
		if err := db.InsertRows("points", rows[i]); err != nil {
			return st, err
		}
		if n.ca, err = app(in.ds, sz.viewport); err != nil {
			return st, err
		}
		opts := server.DefaultOptions()
		opts.Cache.L1.Bytes = w.l1Bytes(sz)
		if w.l2 {
			opts.Cache.L2.Path = filepath.Join(st.tmp, fmt.Sprintf("l2-%d", i))
		}
		if w.nodes > 1 {
			opts.Cluster = server.ClusterOptions{Self: n.url, Peers: urls}
		}
		if w.replog {
			opts.Cluster.Replog.Dir = filepath.Join(st.tmp, fmt.Sprintf("replog-%d", i))
		}
		if n.srv, err = server.New(db, n.ca, opts); err != nil {
			return st, err
		}
		n.hs = &http.Server{Handler: handlerWrap{next: n.srv.Handler(), tr: tr}}
		go func(n *node) { _ = n.hs.Serve(n.ln) }(n) // returns ErrServerClosed on close
	}
	if w.replog {
		if err := waitLeader(st.nodes[0].srv, 10*time.Second); err != nil {
			return st, err
		}
	}
	for i := 0; i < w.readers; i++ {
		n := st.nodes[i%len(st.nodes)]
		rd, err := newReader(n, w, sz, in.traces[i], tr)
		if err != nil {
			return st, err
		}
		st.readers = append(st.readers, rd)
	}
	if w.writeRate > 0 {
		st.writer = newWriter(st.nodes[0], w.writeRate, in.writeSeed, sz.points, st.log, tr)
	}
	return st, nil
}

func waitLeader(srv *server.Server, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if srv.Replog().Snapshot().Role == "leader" {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("replicated log elected no leader")
}

// newClient connects a frontend client to n through its own transport.
func newClient(n *node, w workloadDef, sz size, rt *transport) (*frontend.Client, error) {
	var cacheBytes int64
	if w.clientBytes != nil {
		cacheBytes = w.clientBytes(sz)
	}
	return frontend.NewClient(n.url, n.ca, frontend.Options{
		Scheme:     w.scheme,
		Codec:      server.CodecJSON,
		CacheBytes: cacheBytes,
		BatchSize:  w.batchSize,
		HTTPClient: &http.Client{Transport: rt, Timeout: 30 * time.Second},
	})
}

// close stops every server and removes the stack's state.
func (st *stack) close() {
	for _, rd := range st.readers {
		rd.rt.close()
	}
	if st.writer != nil {
		st.writer.rt.close()
	}
	for _, n := range st.nodes {
		if n.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := n.hs.Shutdown(ctx); err != nil {
				_ = n.hs.Close()
			}
			cancel()
		}
		_ = n.ln.Close() // already closed by Shutdown when it served
		if n.srv != nil {
			_ = n.srv.Close()
		}
	}
	if st.tmp != "" {
		_ = os.RemoveAll(st.tmp)
	}
}
