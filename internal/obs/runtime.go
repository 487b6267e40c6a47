package obs

// Go runtime health in every registry: goroutine count, heap in-use/sys,
// GC cycles, and a GC pause histogram, all sourced from runtime/metrics.
// Nothing polls — the instruments refresh via the registry's OnScrape hook,
// so a scrape always sees the runtime as of that scrape and an idle process
// does no sampling work at all.

import (
	"math"
	"runtime/metrics"
	"sync"
)

// Runtime metric names, probed against metrics.All so a toolchain that
// renames one degrades to "family stays at zero" instead of a panic.
const (
	mGoroutines   = "/sched/goroutines:goroutines"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
	mHeapUnused   = "/memory/classes/heap/unused:bytes"
	mHeapFree     = "/memory/classes/heap/free:bytes"
	mHeapReleased = "/memory/classes/heap/released:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCPauses     = "/sched/pauses/total/gc:seconds"
	mGCPausesOld  = "/gc/pauses:seconds" // pre-1.22 name
)

// gcPauseBuckets bound the pause histogram: 10µs to 100ms.
var gcPauseBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
}

// RuntimeMetrics bridges runtime/metrics into a Registry.
type RuntimeMetrics struct {
	mu         sync.Mutex
	goroutines *Gauge
	heapInuse  *Gauge
	heapSys    *Gauge
	gcCycles   *Counter
	gcPause    *Histogram

	samples    []metrics.Sample
	idx        map[string]int
	lastCycles uint64
	lastPause  []uint64 // previous cumulative pause bucket counts
	primed     bool
}

// NewRuntimeMetrics registers the Go runtime families under prefix (for
// example "paris" → paris_go_goroutines, paris_go_heap_inuse_bytes,
// paris_go_heap_sys_bytes, paris_go_gc_cycles_total,
// paris_go_gc_pause_seconds) and hooks them to refresh on every scrape of
// reg.
func NewRuntimeMetrics(reg *Registry, prefix string) *RuntimeMetrics {
	rm := &RuntimeMetrics{
		goroutines: reg.Gauge(prefix+"_go_goroutines",
			"Goroutines at last scrape."),
		heapInuse: reg.Gauge(prefix+"_go_heap_inuse_bytes",
			"Heap bytes in spans holding objects (live plus not-yet-swept) at last scrape."),
		heapSys: reg.Gauge(prefix+"_go_heap_sys_bytes",
			"Heap bytes obtained from the OS (in use, unused, free, and released) at last scrape."),
		gcCycles: reg.Counter(prefix+"_go_gc_cycles_total",
			"Completed GC cycles."),
		gcPause: reg.Histogram(prefix+"_go_gc_pause_seconds",
			"Stop-the-world GC pause durations.", gcPauseBuckets),
		idx: make(map[string]int),
	}
	avail := make(map[string]bool)
	for _, d := range metrics.All() {
		avail[d.Name] = true
	}
	want := []string{mGoroutines, mHeapObjects, mHeapUnused, mHeapFree, mHeapReleased, mGCCycles}
	switch {
	case avail[mGCPauses]:
		want = append(want, mGCPauses)
	case avail[mGCPausesOld]:
		want = append(want, mGCPausesOld)
	}
	for _, name := range want {
		if !avail[name] {
			continue
		}
		rm.idx[name] = len(rm.samples)
		rm.samples = append(rm.samples, metrics.Sample{Name: name})
	}
	reg.OnScrape(rm.Update)
	return rm
}

func (rm *RuntimeMetrics) val(name string) (metrics.Value, bool) {
	i, ok := rm.idx[name]
	if !ok {
		return metrics.Value{}, false
	}
	return rm.samples[i].Value, true
}

// Update reads the runtime and refreshes every instrument. Called on each
// registry scrape; safe to call directly.
func (rm *RuntimeMetrics) Update() {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if len(rm.samples) == 0 {
		return
	}
	metrics.Read(rm.samples)

	if v, ok := rm.val(mGoroutines); ok && v.Kind() == metrics.KindUint64 {
		rm.goroutines.Set(float64(v.Uint64()))
	}
	var inuse, sys float64
	add := func(name string, both bool) {
		if v, ok := rm.val(name); ok && v.Kind() == metrics.KindUint64 {
			sys += float64(v.Uint64())
			if both {
				inuse += float64(v.Uint64())
			}
		}
	}
	add(mHeapObjects, true)
	add(mHeapUnused, true)
	add(mHeapFree, false)
	add(mHeapReleased, false)
	rm.heapInuse.Set(inuse)
	rm.heapSys.Set(sys)

	if v, ok := rm.val(mGCCycles); ok && v.Kind() == metrics.KindUint64 {
		cur := v.Uint64()
		if rm.primed && cur > rm.lastCycles {
			rm.gcCycles.Add(cur - rm.lastCycles)
		}
		rm.lastCycles = cur
	}

	pauses, ok := rm.val(mGCPauses)
	if !ok {
		pauses, ok = rm.val(mGCPausesOld)
	}
	if ok && pauses.Kind() == metrics.KindFloat64Histogram {
		rm.foldPauses(pauses.Float64Histogram())
	}
	rm.primed = true
}

// foldPauses replays the delta between two cumulative runtime pause
// histograms into the fixed-bucket gcPause histogram, attributing each
// bucket's new counts to a representative point inside it.
func (rm *RuntimeMetrics) foldPauses(h *metrics.Float64Histogram) {
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return
	}
	if rm.lastPause == nil || len(rm.lastPause) != len(h.Counts) {
		rm.lastPause = make([]uint64, len(h.Counts))
		copy(rm.lastPause, h.Counts)
		// First sighting: counts accumulated before the bridge existed
		// are skipped, the same baseline rule as gc cycles.
		return
	}
	for i, c := range h.Counts {
		prev := rm.lastPause[i]
		rm.lastPause[i] = c
		if c <= prev {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		rep := lo
		switch {
		case !isFinite(lo) && !isFinite(hi):
			rep = 0
		case !isFinite(lo):
			rep = hi
		case !isFinite(hi):
			rep = lo
		default:
			rep = (lo + hi) / 2
		}
		rm.gcPause.addN(rep, c-prev)
	}
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
