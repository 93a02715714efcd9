package main

import (
	"fmt"
	"math"
	"sync"

	"kyrix/internal/geom"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// oracle answers viewport queries from the generated dataset, without
// the program: a uniform grid over the canvas, each cell listing the
// points whose centre falls in it.
type oracle struct {
	ds     *workload.Dataset
	radius float64
	cell   float64
	cols   int
	rows   int
	grid   [][]int32
}

func newOracle(ds *workload.Dataset, radius float64) *oracle {
	const cell = 512
	o := &oracle{
		ds: ds, radius: radius, cell: cell,
		cols: int(math.Ceil(ds.CanvasW / cell)),
		rows: int(math.Ceil(ds.CanvasH / cell)),
	}
	o.grid = make([][]int32, o.cols*o.rows)
	for i, p := range ds.Points {
		c := o.cellOf(p.X, p.Y)
		o.grid[c] = append(o.grid[c], int32(i))
	}
	return o
}

func (o *oracle) cellOf(x, y float64) int {
	cx := min(max(int(x/o.cell), 0), o.cols-1)
	cy := min(max(int(y/o.cell), 0), o.rows-1)
	return cy*o.cols + cx
}

// inViewport returns the dataset indices of the points whose rendered
// box (centre ± radius) intersects vp, edges inclusive — what the
// frontend should draw for vp.
func (o *oracle) inViewport(vp geom.Rect) []int32 {
	lo := o.cellOf(vp.MinX-o.radius, vp.MinY-o.radius)
	hi := o.cellOf(vp.MaxX+o.radius, vp.MaxY+o.radius)
	var out []int32
	for cy := lo / o.cols; cy <= hi/o.cols; cy++ {
		for cx := lo % o.cols; cx <= hi%o.cols; cx++ {
			for _, i := range o.grid[cy*o.cols+cx] {
				p := &o.ds.Points[i]
				box := geom.RectAround(geom.Point{X: p.X, Y: p.Y}, o.radius)
				if box.Intersects(vp) {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

// check compares the rows a client shows for vp with the dataset and
// the updates in log. Rows are (id, x, y, val). An updated point's val
// must be a version the writer sent for it; when fresh is set (the
// step fetched), it must also be no older than the last update acked
// at or before since. Returns a description of the first mismatch, or
// "".
func (o *oracle) check(vp geom.Rect, rows []storage.Row, log *ackLog, since int64, fresh bool) string {
	want := o.inViewport(vp)
	if len(rows) != len(want) {
		return fmt.Sprintf("viewport %v: %d rows, dataset has %d", vp, len(rows), len(want))
	}
	byID := make(map[int64]storage.Row, len(rows))
	for _, r := range rows {
		if len(r) < 4 {
			return fmt.Sprintf("viewport %v: row of %d columns", vp, len(r))
		}
		byID[r[0].AsInt()] = r
	}
	for _, i := range want {
		p := &o.ds.Points[i]
		r, ok := byID[p.ID]
		if !ok {
			return fmt.Sprintf("viewport %v: point %d missing", vp, p.ID)
		}
		if r[1].AsFloat() != p.X || r[2].AsFloat() != p.Y {
			return fmt.Sprintf("viewport %v: point %d at (%g,%g), dataset (%g,%g)", vp, p.ID, r[1].AsFloat(), r[2].AsFloat(), p.X, p.Y)
		}
		if msg := log.checkVal(p.ID, p.Val, r[3].AsFloat(), since, fresh); msg != "" {
			return fmt.Sprintf("viewport %v: point %d: %s", vp, p.ID, msg)
		}
	}
	return ""
}

// ackLog records one stack's update stream as the writer sends it:
// every version submitted per id, and the acked ones with their ack
// times. Versions grow strictly across the stream.
type ackLog struct {
	mu        sync.Mutex
	submitted map[int64][]float64 // guarded by mu
	acked     map[int64][]ack     // guarded by mu, in ack order
}

// update sets val of point id to version.
type update struct {
	id      int64
	version float64
}

type ack struct {
	version float64
	at      int64 // span clock
}

func newAckLog() *ackLog {
	return &ackLog{submitted: map[int64][]float64{}, acked: map[int64][]ack{}}
}

func (a *ackLog) submit(id int64, v float64) {
	a.mu.Lock()
	a.submitted[id] = append(a.submitted[id], v)
	a.mu.Unlock()
}

func (a *ackLog) ack(id int64, v float64, at int64) {
	a.mu.Lock()
	a.acked[id] = append(a.acked[id], ack{v, at})
	a.mu.Unlock()
}

// ids returns every id with at least one acked update.
func (a *ackLog) ids() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int64, 0, len(a.acked))
	for id := range a.acked {
		out = append(out, id)
	}
	return out
}

func (a *ackLog) checkVal(id int64, orig, got float64, since int64, fresh bool) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	floor, hasFloor := 0.0, false
	if fresh {
		for _, ak := range a.acked[id] {
			if ak.at > since {
				break
			}
			floor, hasFloor = ak.version, true
		}
	}
	if got == orig {
		if hasFloor {
			return fmt.Sprintf("val %g is the original, but version %g was acked before the step", got, floor)
		}
		return ""
	}
	sent := false
	for _, v := range a.submitted[id] {
		if v == got {
			sent = true
			break
		}
	}
	switch {
	case !sent:
		return fmt.Sprintf("val %g, dataset %g and no such update was sent", got, orig)
	case hasFloor && got < floor:
		return fmt.Sprintf("val %g is older than version %g acked before the step", got, floor)
	}
	return ""
}
