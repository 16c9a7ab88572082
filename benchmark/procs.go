//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the two daemons the end-to-end runs drive into
// dir. The build is never timed. It inherits the environment, so a caller
// that wants the Go build cache inside the checkout sets GOCACHE.
func buildBinaries(dir string) (incgraphd, incrouter string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(os.PathSeparator), "./cmd/incgraphd", "./cmd/incrouter")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("go build ./cmd/incgraphd ./cmd/incrouter (run from the repository root): %v\n%s", err, out.String())
	}
	return filepath.Join(abs, "incgraphd"), filepath.Join(abs, "incrouter"), nil
}

// procs tracks every process group the benchmark started so that exit and
// signal paths can kill them all.
type procs struct {
	mu     sync.Mutex
	groups map[int]*exec.Cmd // keyed by pgid (= the leader's pid)
}

func newProcs() *procs { return &procs{groups: make(map[int]*exec.Cmd)} }

// start launches argv as the leader of a new process group, so that
// children it spawns (incrouter's shards) die with it when the group is
// killed, and asks the kernel to kill it if the benchmark itself dies.
// The child's stderr goes to logw.
func (p *procs) start(logw io.Writer, argv ...string) (*exec.Cmd, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logw, logw
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.groups[cmd.Process.Pid] = cmd
	p.mu.Unlock()
	return cmd, nil
}

// kill SIGKILLs cmd's whole process group and waits until the leader has
// been reaped and no member of the group is left.
func (p *procs) kill(cmd *exec.Cmd) {
	pgid := cmd.Process.Pid
	syscall.Kill(-pgid, syscall.SIGKILL)
	cmd.Wait() // the error is the kill signal itself
	for deadline := time.Now().Add(5 * time.Second); len(groupPids(pgid)) > 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	p.mu.Lock()
	delete(p.groups, pgid)
	p.mu.Unlock()
}

// killAll is the exit/signal path: nothing the benchmark started survives it.
func (p *procs) killAll() {
	p.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(p.groups))
	for _, c := range p.groups {
		cmds = append(cmds, c)
	}
	p.mu.Unlock()
	for _, c := range cmds {
		p.kill(c)
	}
}

// groupPids lists the live processes whose process group is pgid, by
// scanning /proc (field 5 of /proc/<pid>/stat).
func groupPids(pgid int) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		f, ok := statFields(pid)
		if !ok || f[0] == "Z" { // a zombie holds no resources and is about to be reaped
			continue
		}
		if g, _ := strconv.Atoi(f[2]); g == pgid {
			pids = append(pids, pid)
		}
	}
	return pids
}

// statFields returns the fields of /proc/<pid>/stat after the command
// name: index 0 is the state (field 3 of proc(5)), so field k is f[k-3].
func statFields(pid int) ([]string, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, false
	}
	// The command name may contain spaces; everything after the last ')'
	// is space-separated.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return nil, false
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return nil, false
	}
	return f, true
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux port Go runs on.
const clockTick = 100

// cpuSeconds sums user+system CPU time of pids (fields 14 and 15).
func cpuSeconds(pids []int) float64 {
	var ticks int64
	for _, pid := range pids {
		if f, ok := statFields(pid); ok {
			u, _ := strconv.ParseInt(f[11], 10, 64)
			s, _ := strconv.ParseInt(f[12], 10, 64)
			ticks += u + s
		}
	}
	return float64(ticks) / clockTick
}

// stealSeconds is the CPU time, summed over the cores, that the hypervisor
// spent running other guests while this one had work to do: field 8 of the
// first line of /proc/stat. It is why a run on a busy host is slow.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return float64(ticks) / clockTick
}

// rssPeakMB sums VmHWM (peak resident set) of pids, in MiB.
func rssPeakMB(pids []int) float64 {
	var kb int64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				kb += v
			}
		}
	}
	return float64(kb) / 1024
}

// freePortBlock finds n consecutive free loopback ports in the ephemeral
// range — never the daemons' 8356/9321 defaults, which a developer's own
// instance may hold.
func freePortBlock(n int) (int, error) {
	for attempt := 0; attempt < 50; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		base := l.Addr().(*net.TCPAddr).Port
		l.Close()
		ok := true
		for p := base; p < base+n && ok; p++ {
			probe, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
			} else {
				probe.Close()
			}
		}
		if ok {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no block of %d free ports found", n)
}

// waitReady polls until base answers /healthz and every hosted class has
// a published view, or process pid is gone, or the timeout passes.
func waitReady(ctx context.Context, hc *http.Client, pid int, base string, algos []string, timeout time.Duration) error {
	paths := []string{"/healthz"}
	for _, a := range algos {
		paths = append(paths, "/query/"+a)
	}
	deadline := time.Now().Add(timeout)
	for _, p := range paths {
		for {
			resp, err := hc.Get(base + p)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			if f, ok := statFields(pid); !ok || f[0] == "Z" {
				return fmt.Errorf("process %d exited before %s answered", pid, p)
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s%s not ready after %s (last error: %v)", base, p, timeout, err)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}
	return nil
}
