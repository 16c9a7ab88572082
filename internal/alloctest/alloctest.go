// Package alloctest checks a test's claim that code — a store's round, a
// maintainer's repair — allocates nothing. runtime.MemStats.Mallocs
// counts the whole process, so a stray allocation on another goroutine
// reads as the measured code's. Zero keeps the exact criterion — no
// object allocated in any measured run, which testing.AllocsPerRun's
// integer average does not — and sorts a non-zero count out: it runs the
// test body again with every allocation profiled, fails with the stacks
// that start inside the measured code, and when none does, measures again
// in a process that runs only the failing test.
package alloctest

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// childArg, an argument after the test flags, marks the process Zero
// starts to measure one test alone.
const childArg = "alloctest.child"

// Zero runs body, which calls measure around each stretch of code that
// must allocate nothing, on one P, and fails t unless no measured stretch
// allocated an object. body may run up to twice in this process, so it
// must leave its state able to run again.
func Zero(t *testing.T, body func(measure func(f func()))) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n, runs := count(body)
	if n == 0 {
		return
	}
	if inside := profile(body); inside != "" {
		t.Fatalf("%d allocations in %d measured runs; profiled again, the measured code allocates%s", n, runs, inside)
	}
	if slices.Contains(flag.Args(), childArg) {
		t.Fatalf("%d allocations in %d measured runs in a process running only this test, none inside the measured code when profiled again", n, runs)
	}
	pattern := "^" + strings.Join(strings.Split(regexp.QuoteMeta(t.Name()), "/"), "$/^") + "$"
	cmd := exec.Command(os.Args[0], "-test.run="+pattern, "-test.count=1", "-test.v", childArg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%d allocations in %d measured runs, none inside the measured code when profiled; in a process running only %s: %v\n%s", n, runs, t.Name(), err, out)
	}
	t.Logf("%d allocations in %d measured runs did not recur in the measured code under the profiler, and a process running only %s allocated nothing", n, runs, t.Name())
}

// count runs body once and returns the objects its measured stretches
// allocated and how many stretches it measured.
func count(body func(measure func(f func()))) (n uint64, runs int) {
	var m0, m1 runtime.MemStats
	body(func(f func()) {
		runtime.ReadMemStats(&m0)
		within(f)
		runtime.ReadMemStats(&m1)
		n += m1.Mallocs - m0.Mallocs
		runs++
	})
	return n, runs
}

// within calls f; an allocation whose stack passes through it was made
// by measured code.
//
//go:noinline
func within(f func()) { f() }

// profile runs body again with every allocation profiled and renders the
// stacks of the allocations made inside its measured stretches, each down
// to the measured code's entry.
func profile(body func(measure func(f func()))) string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	before := records()
	runtime.MemProfileRate = 1
	body(func(f func()) { within(f) })
	runtime.MemProfileRate = 0
	var b strings.Builder
	for stk, objs := range records() {
		if objs -= before[stk]; objs <= 0 {
			continue
		}
		r := runtime.MemProfileRecord{Stack0: stk}
		frames := runtime.CallersFrames(r.Stack())
		var at strings.Builder
		for {
			fr, more := frames.Next()
			if strings.HasSuffix(fr.Function, "alloctest.within") {
				fmt.Fprintf(&b, "\n%d objects at\n%s", objs, at.String())
				break
			}
			fmt.Fprintf(&at, "\t%s\n\t\t%s:%d\n", fr.Function, fr.File, fr.Line)
			if !more {
				break
			}
		}
	}
	return b.String()
}

// records returns the objects allocated so far at each profiled stack,
// made current by a collection.
func records() map[[32]uintptr]int64 {
	runtime.GC()
	var p []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		p = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(p, true)
	}
	m := make(map[[32]uintptr]int64, n)
	for _, r := range p[:n] {
		m[r.Stack0] += r.AllocObjects
	}
	return m
}
