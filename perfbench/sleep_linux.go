package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than
// time.Sleep: the Go timer wakes a sleeper on a millisecond grain here,
// which would make the open loop's own lateness dwarf a sub-millisecond
// lookup. nanosleep overshoots by the kernel's timer slack, about 50 µs.
// A signal (the runtime preempts with SIGURG) cuts a sleep short, so it
// sleeps again for the rest.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}
