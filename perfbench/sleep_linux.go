package main

import (
	"runtime"
	"syscall"
	"time"
)

// spinFor is how long before the due time sleep stops sleeping and spins.
// The runtime's timers wake up to a millisecond late, and even nanosleep
// wakes about 0.1 ms late, more while the host is busy; an open-loop
// generator would add that lateness to every request's latency.
const spinFor = 300 * time.Microsecond

// sleep blocks the calling goroutine for d: with the kernel's
// high-resolution timer until spinFor before the end, then by spinning,
// yielding to any goroutine that is ready to run.
func sleep(d time.Duration) {
	due := time.Now().Add(d)
	// Let the goroutines the caller just started run first. While this
	// thread sleeps in the kernel its processor stays with it, and the
	// goroutines queued there wait for the runtime's monitor to notice,
	// which can take milliseconds.
	runtime.Gosched()
	if d > spinFor {
		ts := syscall.NsecToTimespec(int64(d - spinFor))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
