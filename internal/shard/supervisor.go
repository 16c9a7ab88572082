package shard

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"incgraph/internal/obs"
	"incgraph/internal/resilience"
)

// Supervisor owns the shard topology as processes: it spawns each shard
// daemon (and its warm replica) as a child, restarts crashed children
// with backoff, probes health, and — when a primary dies or stops
// answering — promotes its replica and repoints the shared routing
// Table. The router never learns any of this happened except through
// the table: health-gated routing and promotion are table writes.
//
// Failover policy: a primary that exits (or fails probeFailures
// consecutive probes) while its slot has a live replica is replaced by
// that replica, once; the dead primary is not restarted — its data
// directory is behind the promoted replica's, and restarting it as
// primary would resurrect a stale past. A primary with no replica, and
// any replica, is restarted with backoff until it answers /healthz
// again; while it is down the slot is marked unhealthy and the router
// sheds writes touching it.

// ProcSpec describes one child process the supervisor manages.
type ProcSpec struct {
	// Name labels the child in logs (e.g. "shard0", "shard0-replica").
	Name string
	// Shard is the slot this child belongs to.
	Shard int
	// Replica marks a warm follower (promotion target), as opposed to
	// the slot's primary.
	Replica bool
	// Addr is the child's base URL (http://host:port).
	Addr string
	// Argv is the full command line: binary then arguments.
	Argv []string
}

// SupervisorOptions configure a Supervisor.
type SupervisorOptions struct {
	// Table is the routing table shared with the router; the supervisor
	// is its writer.
	Table *Table
	// Specs lists every child to manage.
	Specs []ProcSpec
	// Logf receives supervisor events; nil discards them.
	Logf func(format string, args ...any)
	// Events, when set, receives every topology action (spawn, exit,
	// restart, probe-fail, promote) for GET /cluster/events; the bounded
	// ring caps memory no matter how unstable the topology gets.
	Events *obs.Ring[TopologyEvent]
}

// TopologyEvent is one supervisor action on the shard topology.
type TopologyEvent struct {
	// UnixNanos is the event's wall-clock time.
	UnixNanos int64 `json:"unix_nanos"`
	// Kind is "spawn", "exit", "restart", "probe-fail", "promote", or
	// "promote-fail".
	Kind string `json:"kind"`
	// Member names the child involved ("shard0", "shard0-replica").
	Member string `json:"member"`
	// Shard is the slot the member belongs to.
	Shard int `json:"shard"`
	// Detail is a human-readable cause or outcome.
	Detail string `json:"detail"`
}

// The supervisor's policy. Each number is written here once.
const (
	// probeInterval is the health-probe cadence, and each probe's
	// timeout.
	probeInterval = 250 * time.Millisecond
	// probeFailures is how many consecutive failed probes demote a
	// member.
	probeFailures = 3
	// restartBase is the delay before restarting a crashed child; it
	// doubles per consecutive crash up to restartMax, with equal jitter
	// (uniform over the upper half of the current ceiling) so members
	// crash-looping on a shared cause don't synchronize their restarts
	// into restorms. The jitter is seeded from the clock.
	restartBase = 250 * time.Millisecond
	restartMax  = 16 * restartBase
)

// Supervisor spawns and monitors the children described by its specs.
type Supervisor struct {
	opt SupervisorOptions
	// restartBackoff jitters restart delays; shared across monitors so
	// concurrent crash loops draw decorrelated sleeps.
	restartBackoff *resilience.Backoff

	mu    sync.Mutex
	procs map[string]*managedProc
	// promoted marks slots whose replica has been promoted, so exit
	// monitoring and probing only fail a slot over once.
	promoted map[int]bool

	stopping bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

type managedProc struct {
	spec ProcSpec
	mu   sync.Mutex
	cmd  *exec.Cmd
	// retired children (demoted primaries) are left down on purpose.
	retired bool
}

// NewSupervisor validates the specs against the table and builds a
// supervisor; Start launches the children.
func NewSupervisor(opt SupervisorOptions) (*Supervisor, error) {
	if opt.Table == nil {
		return nil, fmt.Errorf("shard: supervisor needs a routing table")
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	s := &Supervisor{
		opt:            opt,
		restartBackoff: resilience.NewBackoff(restartBase, restartMax, time.Now().UnixNano()),
		procs:          make(map[string]*managedProc),
		promoted:       make(map[int]bool),
		stop:           make(chan struct{}),
	}
	for _, spec := range opt.Specs {
		if spec.Shard < 0 || spec.Shard >= opt.Table.Shards() {
			return nil, fmt.Errorf("shard: spec %q names slot %d of %d", spec.Name, spec.Shard, opt.Table.Shards())
		}
		if len(spec.Argv) == 0 {
			return nil, fmt.Errorf("shard: spec %q has no command", spec.Name)
		}
		if _, dup := s.procs[spec.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate spec name %q", spec.Name)
		}
		s.procs[spec.Name] = &managedProc{spec: spec}
		if spec.Replica {
			opt.Table.SetReplica(spec.Shard, spec.Addr)
		}
	}
	return s, nil
}

// record pushes a topology event when an event ring is configured.
func (s *Supervisor) record(kind, member string, shard int, detail string) {
	if s.opt.Events != nil {
		s.opt.Events.Push(TopologyEvent{
			UnixNanos: time.Now().UnixNano(),
			Kind:      kind, Member: member, Shard: shard, Detail: detail,
		})
	}
}

// Start spawns every child and begins monitoring and probing. Use
// WaitReady to block until the topology answers health checks.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	procs := make([]*managedProc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		if err := s.spawn(p); err != nil {
			s.Stop()
			return err
		}
		s.wg.Add(1)
		go s.monitor(p)
	}
	s.wg.Add(1)
	go s.probeLoop()
	return nil
}

// spawn launches p's process, inheriting the supervisor's stderr so
// child logs interleave visibly.
func (s *Supervisor) spawn(p *managedProc) error {
	cmd := exec.Command(p.spec.Argv[0], p.spec.Argv[1:]...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("shard: spawn %s: %w", p.spec.Name, err)
	}
	p.mu.Lock()
	p.cmd = cmd
	p.mu.Unlock()
	s.opt.Logf("supervisor: started %s (pid %d) at %s", p.spec.Name, cmd.Process.Pid, p.spec.Addr)
	s.record("spawn", p.spec.Name, p.spec.Shard, fmt.Sprintf("pid %d at %s", cmd.Process.Pid, p.spec.Addr))
	return nil
}

// monitor waits on p's process and reacts to exits: fail over a primary
// with a replica, otherwise restart with backoff.
func (s *Supervisor) monitor(p *managedProc) {
	defer s.wg.Done()
	crashes := 0
	for {
		p.mu.Lock()
		cmd := p.cmd
		p.mu.Unlock()
		if cmd == nil {
			return
		}
		err := cmd.Wait()
		if s.isStopping() {
			return
		}
		s.opt.Logf("supervisor: %s exited: %v", p.spec.Name, err)
		s.record("exit", p.spec.Name, p.spec.Shard, fmt.Sprintf("%v", err))
		if !p.spec.Replica && s.failover(p.spec.Shard, "process exit") {
			p.mu.Lock()
			p.retired = true
			p.mu.Unlock()
			return
		}
		// No replica took over: the slot (or the replica role) is simply
		// down until the restart answers probes again.
		if !p.spec.Replica {
			s.opt.Table.SetHealth(p.spec.Shard, false)
		}
		backoff := s.restartBackoff.DelayFloored(crashes)
		crashes++
		select {
		case <-s.stop:
			return
		case <-time.After(backoff):
		}
		s.record("restart", p.spec.Name, p.spec.Shard, fmt.Sprintf("after %s backoff", backoff))
		if err := s.spawn(p); err != nil {
			s.opt.Logf("supervisor: restart %s: %v", p.spec.Name, err)
			return
		}
	}
}

// failover promotes shard's replica if one is configured, alive, and
// the slot has not already failed over. It returns whether promotion
// happened (and the table now routes to the replica).
func (s *Supervisor) failover(shard int, cause string) bool {
	s.mu.Lock()
	if s.promoted[shard] {
		s.mu.Unlock()
		return true // already failed over; the exiting proc is stale
	}
	replica := s.opt.Table.Replica(shard)
	if replica == "" {
		s.mu.Unlock()
		return false
	}
	// Claim the promotion before releasing the lock so the prober and
	// the exit monitor cannot both run it.
	s.promoted[shard] = true
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &Client{Base: replica}
	epochs, err := c.Promote(ctx)
	if err != nil {
		s.opt.Logf("supervisor: promote replica %s for shard %d: %v", replica, shard, err)
		s.record("promote-fail", replica, shard, err.Error())
		s.mu.Lock()
		s.promoted[shard] = false
		s.mu.Unlock()
		s.opt.Table.SetHealth(shard, false)
		return false
	}
	if _, err := s.opt.Table.Promote(shard); err != nil {
		s.opt.Logf("supervisor: table promote shard %d: %v", shard, err)
		return false
	}
	s.opt.Logf("supervisor: shard %d failed over to %s (%s; epochs %v)", shard, replica, cause, epochs)
	s.record("promote", replica, shard, fmt.Sprintf("%s; epochs %v", cause, epochs))
	return true
}

// probeLoop health-checks every slot's active member and maintains the
// table's health bits; sustained failure of a primary with a replica
// triggers failover even without a process exit (hangs, not just
// crashes).
func (s *Supervisor) probeLoop() {
	defer s.wg.Done()
	fails := make(map[int]int)
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		for i := 0; i < s.opt.Table.Shards(); i++ {
			addr, _ := s.opt.Table.Active(i)
			if addr == "" {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), probeInterval)
			c := &Client{Base: addr}
			err := c.Healthz(ctx)
			cancel()
			if err == nil {
				fails[i] = 0
				s.opt.Table.SetHealth(i, true)
				continue
			}
			fails[i]++
			if fails[i] < probeFailures {
				continue
			}
			s.opt.Table.SetHealth(i, false)
			s.record("probe-fail", addr, i, fmt.Sprintf("%d consecutive failures: %v", fails[i], err))
			if !s.slotPromoted(i) && s.failover(i, fmt.Sprintf("%d failed probes", fails[i])) {
				fails[i] = 0
			}
		}
	}
}

// Pid returns the live process id of the named child, if running — the
// handle a chaos test needs to kill -9 a specific member.
func (s *Supervisor) Pid(name string) (int, bool) {
	s.mu.Lock()
	p, ok := s.procs[name]
	s.mu.Unlock()
	if !ok {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil || p.cmd.Process == nil {
		return 0, false
	}
	return p.cmd.Process.Pid, true
}

func (s *Supervisor) slotPromoted(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted[i]
}

func (s *Supervisor) isStopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// WaitReady blocks until every slot's active member answers /healthz,
// or the timeout elapses. It polls on a backoff that starts at 2ms and
// doubles up to 50ms, so a cluster that comes up in a few milliseconds
// is seen within a few milliseconds instead of at the next 50ms tick.
func (s *Supervisor) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	poll := resilience.NewBackoff(2*time.Millisecond, 50*time.Millisecond, time.Now().UnixNano())
	for attempt := 0; ; attempt++ {
		ready := 0
		for i := 0; i < s.opt.Table.Shards(); i++ {
			addr, _ := s.opt.Table.Active(i)
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			c := &Client{Base: addr}
			err := c.Healthz(ctx)
			cancel()
			if err == nil {
				ready++
			}
		}
		if ready == s.opt.Table.Shards() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard: topology not ready after %s (%d/%d healthy)",
				timeout, ready, s.opt.Table.Shards())
		}
		time.Sleep(poll.DelayFloored(attempt))
	}
}

// Stop terminates every child gracefully (SIGTERM, then SIGKILL after a
// grace period) and waits for the monitors to exit.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return
	}
	s.stopping = true
	procs := make([]*managedProc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	close(s.stop)
	for _, p := range procs {
		p.mu.Lock()
		cmd := p.cmd
		p.mu.Unlock()
		if cmd == nil || cmd.Process == nil {
			continue
		}
		cmd.Process.Signal(syscall.SIGTERM)
	}
	graceDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(graceDone)
	}()
	select {
	case <-graceDone:
	case <-time.After(5 * time.Second):
		for _, p := range procs {
			p.mu.Lock()
			cmd := p.cmd
			p.mu.Unlock()
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
		s.wg.Wait()
	}
}
