package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request: its op class, its latency counted from
// the time it was due, and how late the generator sent it.
type sample struct {
	class   int
	latency time.Duration
	late    time.Duration
	ok      bool
}

// openLoop issues n requests, request i due at start + i/rate, over conns
// connections. Each worker takes the next due request, waits for its due
// time if it is early, and sends it. A request is timed from its due time,
// not from when it was sent: when a stall holds every connection, the
// requests due during the stall are charged the wait, as independent
// users arriving on schedule would be.
func openLoop(start time.Time, rate float64, n, conns int, issue func(i int) (class int, ok bool)) []sample {
	var next atomic.Int64
	out := make([]sample, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				waitUntil(due)
				sent := time.Now()
				class, ok := issue(i)
				out[i] = sample{class: class, latency: time.Since(due), late: sent.Sub(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// spinMargin is how long before a due time the generator stops sleeping and
// spins. A sleeper wakes late, by about 80 µs at the median and 120 µs at
// p99 on a shared 2-vCPU virtual machine, and since requests are timed from
// their due time that lateness would be charged to the system under test.
const spinMargin = 150 * time.Microsecond

// waitUntil returns at t, sleeping until shortly before it and spinning the
// rest.
func waitUntil(t time.Time) {
	sleepUntil(t.Add(-spinMargin))
	for time.Now().Before(t) {
	}
}
