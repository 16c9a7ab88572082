// Package faults is the deterministic fault-injection harness behind the
// durability tests: it plugs into the plain function hooks the production
// code exposes (wal.Options.SyncHook, serve.Options.BeforeApply) — no
// build tags, no global state — so crash-recovery and panic-isolation
// scenarios replay byte-for-byte identically run after run.
//
// Three fault families cover the failure modes the recovery design
// claims to survive:
//
//   - lying disks: DropFsyncs makes every fsync after the Nth a silent
//     no-op, so acknowledged updates evaporate on kill -9 exactly as
//     they would on a volatile write cache;
//   - torn writes: TruncateTail chops the end off a segment file the way
//     a crash mid-write does;
//   - poisoned applies: PanicOn makes the Nth apply on a chosen algo
//     panic, driving the host's isolation/heal/quarantine path.
package faults

import (
	"fmt"
	"os"
	"sync"

	"incgraph/internal/graph"
)

// Injector is a deterministic fault plan. The zero value injects
// nothing; arm faults with DropFsyncs and PanicOn. All methods are
// safe for concurrent use — hooks are called from apply loops and
// fsync paths on different goroutines.
type Injector struct {
	mu sync.Mutex

	dropAfter int64 // fsyncs after this ordinal are dropped; <0 disabled
	fsyncs    int64

	panicAlgo string // "" for every algo
	panicAt   int64  // apply ordinal (1-based) on panicAlgo that panics; 0 disabled
	applies   map[string]int64
}

// New returns an injector with no faults armed.
func New() *Injector {
	return &Injector{dropAfter: -1, applies: make(map[string]int64)}
}

// DropFsyncs arms the lying-disk fault: the first n fsyncs succeed, every
// later one is silently skipped. n = 0 drops all fsyncs.
func (i *Injector) DropFsyncs(afterN int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.dropAfter = afterN
}

// SyncHook is the wal.Options.SyncHook implementation: it returns true
// (skip the fsync) once the armed budget is exhausted.
func (i *Injector) SyncHook() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.dropAfter < 0 {
		return false
	}
	i.fsyncs++
	return i.fsyncs > i.dropAfter
}

// PanicOn arms the poisoned-apply fault: the nth (1-based) apply on algo
// panics, or with algo "" the nth apply on every algo. A second call
// re-arms (the counter keeps running).
func (i *Injector) PanicOn(algo string, nth int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.panicAlgo, i.panicAt = algo, nth
}

// BeforeApply is the serve.Options.BeforeApply implementation. It
// panics deterministically on the armed apply ordinal.
func (i *Injector) BeforeApply(algo string, b graph.Batch) {
	i.mu.Lock()
	i.applies[algo]++
	boom := (i.panicAlgo == "" || algo == i.panicAlgo) && i.panicAt > 0 && i.applies[algo] == i.panicAt
	n := i.applies[algo]
	i.mu.Unlock()
	if boom {
		panic(fmt.Sprintf("faults: injected panic on %s apply #%d (batch of %d)", algo, n, len(b)))
	}
}

// TruncateTail chops n bytes off the end of a file — a torn write, the
// signature a crash mid-append leaves in a WAL segment.
func TruncateTail(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n > fi.Size() {
		n = fi.Size()
	}
	return os.Truncate(path, fi.Size()-n)
}
