package doclint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// audited lists the packages whose exported surface must be fully
// documented (module-root-relative). CI runs this test as the doc-lint
// job; adding an undocumented exported symbol to any of them fails it.
var audited = []string{
	".",                   // root facade (incgraph.go)
	"internal/graph",      // graph substrate + flat sorted-span core
	"internal/fixpoint",   // generic engine
	"internal/serve",      // serving layer
	"internal/wal",        // durability substrate
	"internal/shard",      // sharded serving
	"internal/obs",        // metrics
	"internal/trace",      // flight recorder
	"internal/resilience", // retry/breaker/deadline substrate
	"internal/doclint",    // keep the linter honest about itself
}

func TestAuditedPackagesDocumented(t *testing.T) {
	for _, rel := range audited {
		findings, err := CheckDir("../../" + rel)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// parseSrc is a test helper compiling one in-memory file through the
// same checker path CheckDir uses.
func parseSrc(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return checkFile(fset, f)
}

func symbols(fs []Finding) string {
	var names []string
	for _, f := range fs {
		names = append(names, f.Kind+":"+f.Symbol)
	}
	return strings.Join(names, ",")
}

func TestCheckerRules(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undocumented func", "package p\nfunc Exported() {}\n", "func:Exported"},
		{"documented func", "package p\n// Exported does.\nfunc Exported() {}\n", ""},
		{"unexported func", "package p\nfunc hidden() {}\n", ""},
		{"undocumented type", "package p\ntype T struct{}\n", "type:T"},
		{"method on unexported type", "package p\ntype t struct{}\nfunc (x *t) Exported() {}\n", ""},
		{"undocumented method", "package p\n// T is.\ntype T struct{}\nfunc (x *T) M() {}\n", "method:T.M"},
		{"generic receiver", "package p\n// T is.\ntype T[V any] struct{}\nfunc (x *T[V]) M() {}\n", "method:T.M"},
		{"documented const group", "package p\n// Modes.\nconst (\n\tA = 1\n\tB = 2\n)\n", ""},
		{"bare const", "package p\nconst A = 1\n", "const:A"},
		{"line-commented var", "package p\nvar A = 1 // A is one.\n", ""},
		{"undocumented var", "package p\nvar A = 1\n", "var:A"},
	}
	for _, c := range cases {
		if got := symbols(parseSrc(t, c.src)); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func TestReceiverName(t *testing.T) {
	src := "package p\nfunc (x *T[A, B]) M() {}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	if got := receiverName(fd.Recv.List[0].Type); got != "T" {
		t.Fatalf("receiverName = %q, want T", got)
	}
}
