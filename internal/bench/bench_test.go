package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyCfg runs every experiment at a small scale so the whole suite stays
// in test-friendly time.
func tinyCfg(buf *bytes.Buffer) Config {
	return Config{Seed: 1, Scale: 0.05, Out: buf}
}

func runAndCheck(t *testing.T, name string, f func(Config), wantSnippets ...string) {
	t.Helper()
	var buf bytes.Buffer
	f(tinyCfg(&buf))
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", name)
	}
	for _, s := range wantSnippets {
		if !strings.Contains(out, s) {
			t.Fatalf("%s output missing %q:\n%s", name, s, out)
		}
	}
}

func TestTable1Smoke(t *testing.T) { checkGolden(t, "table1", Table1) }

func TestExp1Smoke(t *testing.T) { checkGolden(t, "exp1", Exp1) }

func TestExp2Smoke(t *testing.T) {
	if got := strings.Join(Classes(), ","); got != "sssp,cc,sim,lcc,dfs,bc" {
		t.Fatalf("Classes() = %s", got)
	}
	for _, c := range Classes() {
		t.Run(c, func(t *testing.T) { checkGolden(t, "exp2-"+c, func(cfg Config) { Exp2(cfg, c) }) })
	}
}

func TestExp2TypesSmoke(t *testing.T) { checkGolden(t, "exp2types", Exp2Types) }

func TestExp3Smoke(t *testing.T) { checkGolden(t, "exp3", Exp3) }

func TestExp4Smoke(t *testing.T) { checkGolden(t, "exp4", Exp4) }

func TestExpAffSmoke(t *testing.T) { checkGolden(t, "aff", ExpAff) }

func TestExpAblationSmoke(t *testing.T) {
	runAndCheck(t, "ExpAblation", ExpAblation, "Ablation 1", "Ablation 2", "Ablation 3", "IncCCNaive", "push")
}

func TestExpExtensionsSmoke(t *testing.T) {
	runAndCheck(t, "ExpExtensions", ExpExtensions, "Extensions", "BC", "DualSim")
}

// TestExpExchangeResults checks rung (f)'s rows: four counts per
// topology, no evals or pairs at all on one shard, and counts that
// repeat exactly for a fixed seed (they are what -diff gates).
func TestExpExchangeResults(t *testing.T) {
	run := func() []Result {
		var buf bytes.Buffer
		cfg := tinyCfg(&buf)
		var results []Result
		cfg.Report = func(r Result) { results = append(results, r) }
		ExpExchange(cfg)
		if !strings.Contains(buf.String(), "Boundary exchange") {
			t.Fatalf("table missing:\n%s", buf.String())
		}
		return results
	}
	first, second := run(), run()
	if len(first) != 12 {
		t.Fatalf("got %d results, want 12 (3 topologies × 4 counts)", len(first))
	}
	for i, r := range first {
		if r.Work != second[i].Work {
			t.Fatalf("%s at %d shards does not repeat: %d then %d", r.Workload, r.Workers, r.Work, second[i].Work)
		}
		switch {
		case r.Workers == 1 && r.Workload != "bytes" && r.Work != 0:
			t.Fatalf("one shard made %d %s", r.Work, r.Workload)
		case r.Workers > 1 && r.Work == 0:
			t.Fatalf("%d shards report no %s", r.Workers, r.Workload)
		}
	}
}

func TestExpDatasetsSmoke(t *testing.T) {
	runAndCheck(t, "ExpDatasets", ExpDatasets, "Dataset stand-ins", "OKT", "max deg")
}

func TestHelpers(t *testing.T) {
	if got := speedup(2, 1); got != "2.0x" {
		t.Fatalf("speedup = %q", got)
	}
	if got := speedup(1, 0); got != "-" {
		t.Fatalf("speedup zero = %q", got)
	}
	if got := mib(1 << 20); got != "1.0MiB" {
		t.Fatalf("mib = %q", got)
	}
	if got := pct(0.5); got != "50.00%" {
		t.Fatalf("pct = %q", got)
	}
	if got := ms(0.001); got != "1.000ms" {
		t.Fatalf("ms = %q", got)
	}
}
