package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain holds the package's tests to leaving no goroutine behind: once
// they have run, the goroutine count must fall back to what it was before
// the first, within a bound, or the run fails with the stacks of what is
// left — an unclosed Client's async pool, a façade server or a breaker's
// probe that outlived its test.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := goroutinesBackTo(before, 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// goroutinesBackTo waits up to bound for the goroutine count to fall to n
// and reports the leftover stacks if it does not.
func goroutinesBackTo(n int, bound time.Duration) error {
	for deadline := time.Now().Add(bound); runtime.NumGoroutine() > n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Errorf("core tests leaked goroutines: %d running, %d before the tests\n%s",
				runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
	}
	return nil
}
