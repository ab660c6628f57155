//go:build unix

package main

import (
	"syscall"
	"time"
)

// spinWindow is how long before a due time sleepUntil stops sleeping and
// spins: a woken thread is tens of microseconds late, a spinning one is not.
const spinWindow = 200 * time.Microsecond

// sleepUntil blocks until t. It sleeps with nanosleep rather than
// time.Sleep — the runtime's timers wake up to about a millisecond late on
// Linux, which would be charged to every open-loop request timed from its
// due time — and spins through the last spinWindow.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - spinWindow
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			break
		}
	}
	for time.Now().Before(t) {
	}
}
