package leak

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeTB captures what Check reports and the cleanups it registers, so a
// leaking body can be judged without failing the real test.
type fakeTB struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

// runChecked runs body between check and its cleanup on a fake TB and
// returns what the cleanup reported.
func runChecked(t *testing.T, body func()) []string {
	f := &fakeTB{TB: t}
	check(f, 100*time.Millisecond)
	body()
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
	return f.errs
}

// recvSpin is the goroutine shape `for { <-ch }`: it has no exit, and a
// closed channel would only turn the block into a spin. The one
// goroutine it parks here stays parked for the rest of the test binary.
func recvSpin(ch chan int) {
	go func() {
		for {
			<-ch
		}
	}()
}

func TestCheckFlagsRecvSpin(t *testing.T) {
	errs := runChecked(t, func() { recvSpin(make(chan int)) })
	if len(errs) != 1 || !strings.Contains(errs[0], "goroutine leak") ||
		!strings.Contains(errs[0], "recvSpin") {
		t.Fatalf("recvSpin leak not flagged with its stack; got %q", errs)
	}
}

// A goroutine that exits after the test body returns, but inside the
// deadline, is a slow shutdown and not a leak.
func TestCheckWaitsForLateExit(t *testing.T) {
	errs := runChecked(t, func() {
		done := make(chan struct{})
		go func() {
			<-done
		}()
		time.AfterFunc(10*time.Millisecond, func() { close(done) })
	})
	if len(errs) != 0 {
		t.Fatalf("goroutine that exits inside the deadline flagged: %q", errs)
	}
}

func TestCheckPassesCleanTest(t *testing.T) {
	Check(t)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
