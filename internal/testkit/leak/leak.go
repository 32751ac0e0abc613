// Package leak is the goroutine-leak assertion of the test suite: a test
// that owns a spawner whose goroutines outlive one call (a server's
// worker pool, a shard runner's per-shard loops, a line inversion's
// fan-out) calls Check first, and its cleanup fails the test if the
// goroutine count has not fallen back to where it started.
//
// The package imports only the standard library so every package's
// internal tests can use it; internal/testkit itself depends on mdc and
// batch and would cycle.
package leak

import (
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Check's cleanup waits for goroutines that were
// told to stop (a closed pool, a drained runner) to actually exit.
const settle = 5 * time.Second

// Check records runtime.NumGoroutine now and registers a cleanup that
// polls until the count is back at or below that baseline, failing tb
// with every live goroutine's stack if it is still above it after a
// short deadline. Cleanups run last-in first-out, so call Check before
// registering the cleanup that stops the spawner (for example a
// deferred or t.Cleanup'd Close).
func Check(tb testing.TB) {
	tb.Helper()
	check(tb, settle)
}

func check(tb testing.TB, wait time.Duration) {
	base := runtime.NumGoroutine()
	tb.Cleanup(func() {
		deadline := time.Now().Add(wait)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				tb.Errorf("goroutine leak: %d goroutines still running %v after the test, %d at its start\n%s",
					n, wait, base, buf)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}
