package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// renderFlagTable renders the daemon's flag definitions as the markdown
// table README.md carries, rows in flag.VisitAll (lexicographic) order.
func renderFlagTable(fs *flag.FlagSet) string {
	var b strings.Builder
	b.WriteString("| Flag | Default | Description |\n")
	b.WriteString("|---|---|---|\n")
	fs.VisitAll(func(f *flag.Flag) {
		def := ""
		if f.DefValue != "" {
			def = "`" + f.DefValue + "`"
		}
		usage := strings.ReplaceAll(f.Usage, "|", "\\|")
		b.WriteString("| `-" + f.Name + "` | " + def + " | " + usage + " |\n")
	})
	return strings.TrimSpace(b.String())
}

// TestReadmeFlagTable diffs README.md's incgraphd flag reference against
// the live flag definitions, so the documented table cannot drift from
// the binary: adding, renaming, or re-defaulting a flag without updating
// the README fails this test (and vice versa).
func TestReadmeFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("incgraphd", flag.ContinueOnError)
	newFlags(fs)
	want := renderFlagTable(fs)

	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- incgraphd-flags:begin -->", "<!-- incgraphd-flags:end -->"
	s := string(raw)
	i, j := strings.Index(s, begin), strings.Index(s, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md is missing the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(s[i+len(begin) : j])
	if got != want {
		t.Fatalf("README.md flag table is out of date.\n--- want (generated from newFlags) ---\n%s\n--- got (README.md) ---\n%s", want, got)
	}
}

// TestFlagDefaults spot-checks defaults the serving docs promise.
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("incgraphd", flag.ContinueOnError)
	c := newFlags(fs)
	if err := fs.Parse([]string{"-algos", "sssp"}); err != nil {
		t.Fatal(err)
	}
	if c.algos != "sssp" {
		t.Fatalf("parsed algos=%q", c.algos)
	}
	if c.listen != ":8356" || c.maxBatch != 256 || c.queue != 1024 {
		t.Fatalf("defaults drifted: listen=%q max-batch=%d queue=%d", c.listen, c.maxBatch, c.queue)
	}
}

// TestWorkersFlagRejected: the retired -workers is an unknown flag, so a
// command line that still carries it exits 2 (usage) instead of starting
// a daemon that silently ignores it.
func TestWorkersFlagRejected(t *testing.T) {
	out, err := exec.Command(buildDaemon(t), "-gen", "grid", "-algos", "cc", "-workers", "2").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("incgraphd -workers 2: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -workers") {
		t.Fatalf("incgraphd -workers 2 did not name the unknown flag:\n%s", out)
	}
}

// TestSourceOutOfRange: an -src outside [0, |V|) stops the daemon with exit
// 1 before it serves, including 2³², which a 32-bit NodeID would wrap to
// node 0.
func TestSourceOutOfRange(t *testing.T) {
	bin := buildDaemon(t)
	for _, src := range []string{"4294967296", "-1", "16"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-gen", "grid", "-nodes", "16", "-algos", "sssp",
			"-src", src, "-listen", "127.0.0.1:0").CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("-src %s on 16 nodes started serving:\n%s", src, out)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-src %s: err = %v, want exit status 1\n%s", src, err, out)
		}
		if !strings.Contains(string(out), "source "+src+" out of range") {
			t.Fatalf("-src %s: no range error:\n%s", src, out)
		}
	}
}

// TestValidateFlags is the table-driven contract for conflicting-mode
// rejection: combinations that parse but cannot mean anything — an -algos
// list that names no class, an unknown one or one twice, sim without
// -pattern among them — must be refused before any graph is loaded or
// listener bound.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // "" means valid
	}{
		{"defaults", []string{"-algos", "cc"}, ""},
		{"negative shards", []string{"-shards", "-2"}, "-shards"},
		{"shard-id without shards", []string{"-shard-id", "0"}, "set together"},
		{"shards without shard-id", []string{"-shards", "2"}, "set together"},
		{"shard-id out of range", []string{"-shard-id", "2", "-shards", "2"}, "out of range"},
		{"valid shard mode", []string{"-algos", "cc", "-shard-id", "1", "-shards", "2"}, ""},
		{"replica without data-dir", []string{"-replica-of", "http://primary:8356"}, "-data-dir"},
		{"valid replica", []string{"-algos", "cc", "-replica-of", "http://primary:8356", "-data-dir", "/tmp/r"}, ""},
		{"sharded replica", []string{"-algos", "cc", "-replica-of", "http://p:1", "-data-dir", "/tmp/r", "-shard-id", "0", "-shards", "2"}, ""},
		{"bad fsync", []string{"-data-dir", "/tmp/d", "-fsync", "sometimes"}, "-fsync"},
		{"bad fsync on a replica", []string{"-replica-of", "http://p:1", "-data-dir", "/tmp/r", "-fsync", "sometimes"}, "-fsync"},
		{"fsync interval", []string{"-algos", "cc", "-data-dir", "/tmp/d", "-fsync", "interval"}, ""},
		{"no algos", nil, "missing -algos"},
		{"empty algos", []string{"-algos", " , "}, "missing -algos"},
		{"unknown algo", []string{"-algos", "sssp,ssp"}, `unknown algo "ssp"`},
		{"duplicate algo", []string{"-algos", "cc,sssp,cc"}, "cc twice"},
		{"sim without pattern", []string{"-algos", "cc,sim"}, "sim needs -pattern"},
		{"sim with pattern", []string{"-algos", "cc,sim", "-pattern", "q.txt"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("incgraphd", flag.ContinueOnError)
			c := newFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := validateFlags(c)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
