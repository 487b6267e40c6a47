package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantiles are the candidates for a tail percentile, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile is the highest candidate quantile that leaves at least ten
// of n samples beyond it, so a tail value never rests on a handful of
// samples. Below twenty samples it falls back to the median.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// beyond counts the samples of sorted strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - (int(float64(n)*q+0.999999) - 1) - 1
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// opSummary is one op class's latency distribution in the report.
type opSummary struct {
	N      int     `json:"n"`
	Failed int     `json:"failed"`
	P1Ms   float64 `json:"p1_ms"`
	P50Ms  float64 `json:"p50_ms"`
	TailQ  float64 `json:"tail_quantile"`
	TailMs float64 `json:"tail_ms"`
	Beyond int     `json:"samples_beyond_tail"`
	MaxMs  float64 `json:"max_ms"`
}

// summarize sorts lat (milliseconds) in place and summarizes it at the
// tail quantile q.
func summarize(lat []float64, failed int, q float64) opSummary {
	sort.Float64s(lat)
	s := opSummary{N: len(lat), Failed: failed, TailQ: q}
	if len(lat) == 0 {
		return s
	}
	s.P1Ms = percentile(lat, 0.01)
	s.P50Ms = percentile(lat, 0.5)
	s.TailMs = percentile(lat, q)
	s.Beyond = beyond(len(lat), q)
	s.MaxMs = lat[len(lat)-1]
	return s
}

// heapSampler tracks the peak of live-plus-unswept heap objects, read from
// runtime/metrics every 10 ms, above the baseline taken when it starts.
type heapSampler struct {
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapBaseline collects garbage and returns the heap that stays live, the
// level set-up and the measured window are charged above.
func heapBaseline() uint64 {
	runtime.GC()
	return heapBytes()
}

func startHeapSampler(base uint64) *heapSampler {
	h := &heapSampler{base: base, stop: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapBytes()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops the sampler and returns the peak above the baseline in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.observe()
	peak := h.peak.Load()
	if peak < h.base {
		return 0
	}
	return float64(peak-h.base) / (1 << 20)
}

// runtimeCounters is a before/after reading of the Go runtime's work.
type runtimeCounters struct {
	gcCycles   uint64
	pauseNs    uint64
	allocBytes uint64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{gcCycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs, allocBytes: ms.TotalAlloc}
}

// setRuntime records the runtime layer's work between two readings, per
// op where a rate makes sense.
func (r *run) setRuntime(before, after runtimeCounters, ops int) {
	r.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), "count")
	r.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")
	per := 0.0
	if ops > 0 {
		per = float64(after.allocBytes-before.allocBytes) / float64(ops)
	}
	r.set("runtime.alloc_bytes_per_op", per, "bytes")
}
