package main

import (
	"fmt"
	"math/rand"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/workload"
)

// maxLoadGoroutines bounds the closed-loop readers of a workload, and
// the connections per client: the benchmark host has two cores, shared
// by the clients and the servers they drive. rw_hot's open-loop writer
// is one more goroutine, asleep but for a few milliseconds per update.
const maxLoadGoroutines = 2

// size scales a run. "default" is what BENCHMARK.json measures; "tiny"
// is for the benchmark's own tests.
type size struct {
	points           int
	canvasW, canvasH float64
	viewport         float64
	hotSpots         int
	// traceSteps is the length of each reader's generated trace; a
	// reader that exhausts it starts over.
	traceSteps int
	// warmSteps per reader run before timing; verifySteps per reader
	// are replayed through a fresh client after the timed window.
	warmSteps, verifySteps int
	// l1HotBytes, l1ScanBytes and l1ClusterBytes size the L1 cache
	// relative to each workload's working set (see workloads).
	l1HotBytes, l1ScanBytes, l1ClusterBytes int64
	// scanClientBytes sizes the scan readers' frontend cache: a tile
	// client draws from that cache, so it holds a few viewports' tiles,
	// far fewer than a reader sweeps before it wraps.
	scanClientBytes int64
}

var sizes = map[string]size{
	"default": {
		points: 160_000, canvasW: 49152, canvasH: 16384, viewport: 1024, hotSpots: 64,
		traceSteps: 20_000, warmSteps: 300, verifySteps: 64,
		l1HotBytes: 64 << 20, l1ScanBytes: 1 << 20, l1ClusterBytes: 1 << 20,
		scanClientBytes: 1 << 20,
	},
	"tiny": {
		points: 8_000, canvasW: 16384, canvasH: 4096, viewport: 1024, hotSpots: 8,
		traceSteps: 2_000, warmSteps: 20, verifySteps: 8,
		l1HotBytes: 8 << 20, l1ScanBytes: 32 << 10, l1ClusterBytes: 64 << 10,
		scanClientBytes: 64 << 10,
	},
}

// workloadDef describes one workload.
type workloadDef struct {
	name      string
	readers   int
	nodes     int
	scheme    fetch.Granularity
	batchSize int
	trace     string // "zipf" or "scan"
	l1Bytes   func(size) int64
	// clientBytes sizes each reader's frontend cache (nil: off, so
	// every revisit reaches the server).
	clientBytes func(size) int64
	l2          bool
	replog      bool
	// writeRate is the open-loop writer's /update rate per second (0:
	// no writer).
	writeRate float64
}

// The workloads. Why each exists is recorded in BENCHMARK.json.
var workloads = map[string]workloadDef{
	"zipf_hot": {
		name: "zipf_hot", readers: 2, nodes: 1, scheme: fetch.DBox50, trace: "zipf",
		l1Bytes: func(s size) int64 { return s.l1HotBytes },
	},
	"scan_cold": {
		name: "scan_cold", readers: 2, nodes: 1, scheme: fetch.TileSpatial1024, batchSize: 8, trace: "scan",
		l1Bytes:     func(s size) int64 { return s.l1ScanBytes },
		clientBytes: func(s size) int64 { return s.scanClientBytes },
	},
	"rw_hot": {
		name: "rw_hot", readers: 2, nodes: 1, scheme: fetch.DBox50, trace: "zipf",
		l1Bytes: func(s size) int64 { return s.l1HotBytes },
		replog:  true, writeRate: 2,
	},
	"cluster_zipf": {
		name: "cluster_zipf", readers: 2, nodes: 2, scheme: fetch.DBox50, trace: "zipf",
		l1Bytes: func(s size) int64 { return s.l1ClusterBytes },
		l2:      true,
	},
}

// inputs is everything a run generates from its seed before set-up:
// the dataset, one trace per reader, the post-run verification
// viewports, and the seed of the update stream.
type inputs struct {
	ds        *workload.Dataset
	traces    [][]geom.Rect
	verify    [][]geom.Rect
	writeSeed int64
	oracle    *oracle
}

// pointRadius is the rendered half-extent of each dot.
const pointRadius = 1

// subSeed derives an independent stream seed from the run seed
// (splitmix64), so one --seed fixes every input.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

const (
	streamDataset = iota + 1
	streamLayout
	streamWrites
	streamVerify
	streamReader // + reader index
)

func generate(w workloadDef, sz size, seed int64) (*inputs, error) {
	in := &inputs{
		ds:        workload.Uniform(sz.points, sz.canvasW, sz.canvasH, subSeed(seed, streamDataset)),
		writeSeed: subSeed(seed, streamWrites),
	}
	in.oracle = newOracle(in.ds, pointRadius)
	canvas := in.ds.Canvas()
	switch w.trace {
	case "zipf":
		for i := 0; i < w.readers; i++ {
			tr := workload.ZipfHotSetTrace(workload.ZipfOptions{
				Canvas: canvas, TileSize: sz.viewport,
				HotSpots: sz.hotSpots, Skew: 1.2,
				Steps: sz.traceSteps,
				VpW:   sz.viewport, VpH: sz.viewport,
				LayoutSeed: subSeed(seed, streamLayout),
				Seed:       subSeed(seed, streamReader+uint64(i)),
			})
			in.traces = append(in.traces, tr.Steps)
		}
	case "scan":
		// Readers sweep disjoint stretches of one row-major scan, each
		// starting at a seeded offset within its stretch.
		full := workload.SequentialScanTrace(canvas, sz.viewport, sz.viewport).Steps
		stretch := len(full) / w.readers
		for i := 0; i < w.readers; i++ {
			rng := rand.New(rand.NewSource(subSeed(seed, streamReader+uint64(i))))
			part := full[i*stretch : (i+1)*stretch]
			off := rng.Intn(len(part))
			in.traces = append(in.traces, append(append([]geom.Rect(nil), part[off:]...), part[:off]...))
		}
	default:
		return nil, fmt.Errorf("workload %s: unknown trace %q", w.name, w.trace)
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamVerify)))
	for _, tr := range in.traces {
		var v []geom.Rect
		for k := 0; k < sz.verifySteps; k++ {
			v = append(v, tr[rng.Intn(len(tr))])
		}
		in.verify = append(in.verify, v)
	}
	return in, nil
}
