package shard

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incgraph/internal/obs"
)

func TestNewSupervisorValidation(t *testing.T) {
	table := NewTable([]string{"http://a", "http://b"})
	ok := ProcSpec{Name: "shard0", Shard: 0, Addr: "http://a", Argv: []string{"true"}}
	cases := []struct {
		name  string
		specs []ProcSpec
		want  string
	}{
		{"slot out of range", []ProcSpec{{Name: "x", Shard: 2, Argv: []string{"true"}}}, "slot 2"},
		{"negative slot", []ProcSpec{{Name: "x", Shard: -1, Argv: []string{"true"}}}, "slot -1"},
		{"empty argv", []ProcSpec{{Name: "x", Shard: 0}}, "no command"},
		{"duplicate name", []ProcSpec{ok, ok}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSupervisor(SupervisorOptions{Table: table, Specs: tc.specs})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	if _, err := NewSupervisor(SupervisorOptions{Specs: []ProcSpec{ok}}); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := NewSupervisor(SupervisorOptions{Table: table, Specs: []ProcSpec{ok}}); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestSupervisorRegistersReplicas: replica specs land in the routing
// table so a promotion has a target even before Start.
func TestSupervisorRegistersReplicas(t *testing.T) {
	table := NewTable([]string{"http://a"})
	_, err := NewSupervisor(SupervisorOptions{Table: table, Specs: []ProcSpec{
		{Name: "shard0", Shard: 0, Addr: "http://a", Argv: []string{"true"}},
		{Name: "shard0-replica", Shard: 0, Replica: true, Addr: "http://a2", Argv: []string{"true"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r := table.Replica(0); r != "http://a2" {
		t.Fatalf("replica not registered: %q", r)
	}
}

// TestSupervisorProbeFailover: a supervisor with zero specs is a pure
// prober — it must detect a hung active member via consecutive probe
// failures and promote the registered (external) replica.
func TestSupervisorProbeFailover(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer healthy.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer dead.Close()
	// The replica answers both healthz and the promote call.
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/replica/promote" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"epochs":{"sssp":7}}`))
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer replica.Close()

	table := NewTable([]string{dead.URL, healthy.URL})
	table.SetReplica(0, replica.URL)
	events := obs.NewRing[TopologyEvent](32)
	sup, err := NewSupervisor(SupervisorOptions{
		Table:  table,
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if addr, ok := table.Active(0); ok && addr == replica.URL {
			break
		}
		if time.Now().After(deadline) {
			addr, ok := table.Active(0)
			t.Fatalf("no failover: active=%q healthy=%v", addr, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The healthy slot must be untouched.
	if addr, ok := table.Active(1); !ok || addr != healthy.URL {
		t.Fatalf("healthy slot disturbed: %q %v", addr, ok)
	}
	snap := table.Snapshot()
	if snap[0].Generation != 1 {
		t.Fatalf("slot 0 generation = %d, want 1", snap[0].Generation)
	}
	// The failover left an audit trail: the threshold probe failure on
	// the dead member, then the promotion, all timestamped.
	kinds := map[string]int{}
	for _, ev := range events.Snapshot() {
		kinds[ev.Kind]++
		if ev.UnixNanos == 0 {
			t.Fatalf("event %+v has no timestamp", ev)
		}
	}
	if kinds["probe-fail"] < 1 || kinds["promote"] != 1 {
		t.Fatalf("topology events = %v, want >=1 probe-fail and exactly 1 promote", kinds)
	}
}
