package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// leakCheck records the current goroutine count and, when the test
// finishes, fails it if the count has not fallen back to that baseline.
// Call it first thing in a test, before any hosts or servers are
// created: t.Cleanup runs LIFO, so the check executes after every
// later-registered teardown has closed its services and listeners.
func leakCheck(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() { waitForGoroutines(t, baseline) })
}

// waitForGoroutines polls until the goroutine count falls back to the
// recorded baseline (small slack for runtime helpers), failing with a
// full stack dump when it does not — the leak signal.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		if now = runtime.NumGoroutine(); now <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak: %d at baseline, %d after teardown\n%s",
		baseline, now, trimStack(buf))
}

// trimStack bounds a full-stack dump to something a CI log can show.
func trimStack(b []byte) string {
	const max = 8192
	if len(b) <= max {
		return string(b)
	}
	return fmt.Sprintf("%s\n... (%d bytes elided)", b[:max], len(b)-max)
}
