// Package leakcheck is the test suites' one goroutine-leak check.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Goroutines notes how many goroutines are running and returns a function
// that waits until no more than that many are again, failing the test when
// five seconds do not get there. Call it before the code under test starts
// anything, and the returned function once everything has been stopped.
func Goroutines(t testing.TB) (settled func()) {
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left, %d before the call", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
