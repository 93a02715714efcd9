package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"kyrix/internal/cache"
	"kyrix/internal/obs"
	"kyrix/internal/server"
	"kyrix/internal/sqldb"
)

// quantile is the benchmark's one percentile function: the nearest-rank
// order statistic of sorted (the smallest sample with at least q·n
// samples at or below it), returned with the sample count.
func quantile(sorted []float64, q float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	k = max(0, min(k, n-1))
	return sorted[k], n
}

// at is the q-th quantile of unsorted samples.
func at(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	v, _ := quantile(s, q)
	return v
}

// tailQuantiles are the tail percentiles a timing may report, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// supportedTail is the highest tail percentile that leaves at least ten
// samples beyond it, or 0.5 when n is too small for any.
func supportedTail(n int) float64 {
	for _, q := range tailQuantiles {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

// timing summarises one latency sample set: median, the highest
// supported tail, and the count.
type timing struct {
	p50, tail, tailQ float64
	n                int
}

func summarize(ms []float64) timing {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	t := timing{tailQ: supportedTail(len(s))}
	t.p50, t.n = quantile(s, 0.5)
	t.tail, _ = quantile(s, t.tailQ)
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("p50=%.4f p%.4g=%.4f n=%d", t.p50, t.tailQ*100, t.tail, t.n)
}

// nodeCounters is one node's public counters at an instant.
type nodeCounters struct {
	snap    server.StatsSnapshot
	l1      cache.Stats
	db      sqldb.DBStats
	metrics *obs.Exposition
}

// scrapeClient reads /metrics without keeping idle connections, so a
// scrape leaves no goroutine behind.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}

func readNode(n *node) (nodeCounters, error) {
	c := nodeCounters{snap: n.srv.Snapshot(), l1: n.srv.BackendCache().Stats(), db: n.srv.DB().Stats()}
	resp, err := scrapeClient.Get(n.url + "/metrics")
	if err != nil {
		return c, fmt.Errorf("scrape %s/metrics: %w", n.url, err)
	}
	defer resp.Body.Close()
	c.metrics, err = obs.ParseExposition(resp.Body)
	if err != nil {
		return c, fmt.Errorf("parse %s/metrics: %w", n.url, err)
	}
	return c, nil
}

// procCounters is the process-wide resource use at an instant.
type procCounters struct {
	cpu          time.Duration // user + system
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcPause      time.Duration
}

var procMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := make([]metrics.Sample, len(procMetricNames))
	for i, name := range procMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		gcPause:      time.Duration(ms.PauseTotalNs),
	}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleKey identifies one exposition series.
func sampleKey(s obs.Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString(s.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, s.Labels[k])
	}
	return b.String()
}

// stageDelta folds every node's stage histograms over a window (after
// minus before, summed across nodes) through obs.HistogramQuantiles.
func stageDelta(before, after []nodeCounters) map[string]obs.StageQuantiles {
	const family = "kyrix_stage_duration_seconds"
	sum := map[string]*obs.Sample{}
	var order []string
	for i := range after {
		prev := map[string]float64{}
		for _, s := range before[i].metrics.Samples {
			prev[sampleKey(s)] = s.Value
		}
		for _, s := range after[i].metrics.Samples {
			if !strings.HasPrefix(s.Name, family) {
				continue
			}
			k := sampleKey(s)
			if acc, ok := sum[k]; ok {
				acc.Value += s.Value - prev[k]
				continue
			}
			d := s
			d.Value -= prev[k]
			sum[k] = &d
			order = append(order, k)
		}
	}
	e := &obs.Exposition{Types: map[string]string{family: "histogram"}}
	for _, k := range order {
		e.Samples = append(e.Samples, *sum[k])
	}
	return e.HistogramQuantiles(family, "stage")
}
