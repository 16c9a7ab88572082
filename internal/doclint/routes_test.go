package doclint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// routeInventories names the functions that build an HTTP API and so
// carry its route inventory in their doc comment: file (module-root-
// relative) and receiver type of a method called Handler.
var routeInventories = []struct{ file, recv string }{
	{"internal/serve/http.go", "Service"},
	{"internal/shard/router.go", "Router"},
}

// TestRouteInventories holds each API's doc comment to the routes it
// registers: every literal pattern passed to Handle or HandleFunc in the
// Handler method must appear in the comment above it, as a line
// "METHOD /path" (optionally followed by "[?query]" and prose), so a route
// added without a line in the inventory fails here.
func TestRouteInventories(t *testing.T) {
	for _, inv := range routeInventories {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "../../"+inv.file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		fn := handlerOf(f, inv.recv)
		if fn == nil || fn.Doc == nil {
			t.Fatalf("%s: no documented (*%s).Handler", inv.file, inv.recv)
		}
		doc := fn.Doc.Text()
		patterns := registeredPatterns(fn)
		if len(patterns) == 0 {
			t.Fatalf("%s: (*%s).Handler registers no literal route", inv.file, inv.recv)
		}
		for _, p := range patterns {
			if !documentsRoute(doc, p) {
				t.Errorf("%s: (*%s).Handler registers %q, but its doc comment does not list it", inv.file, inv.recv, p)
			}
		}
	}
}

// handlerOf finds the method Handler on *recv (or recv).
func handlerOf(f *ast.File, recv string) *ast.FuncDecl {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Handler" || fn.Recv == nil || len(fn.Recv.List) != 1 {
			continue
		}
		if receiverName(fn.Recv.List[0].Type) == recv {
			return fn
		}
	}
	return nil
}

// registeredPatterns lists the string-literal patterns fn passes as the
// first argument of a Handle or HandleFunc call.
func registeredPatterns(fn *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if p, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, p)
			}
		}
		return true
	})
	return out
}

// documentsRoute reports whether doc has a line listing pattern: its
// method, then its path, bare or followed by a "[" of optional parameters.
func documentsRoute(doc, pattern string) bool {
	method, path, _ := strings.Cut(pattern, " ")
	for _, line := range strings.Split(doc, "\n") {
		fs := strings.Fields(line)
		if len(fs) >= 2 && fs[0] == method && (fs[1] == path || strings.HasPrefix(fs[1], path+"[")) {
			return true
		}
	}
	return false
}

func TestDocumentsRoute(t *testing.T) {
	doc := "Handler:\n\n\tPOST /update[?wait=1]   body\n\tGET  /query/{algo}  view\n"
	for pattern, want := range map[string]bool{
		"POST /update":       true,
		"GET /query/{algo}":  true,
		"GET /update":        false,
		"POST /up":           false,
		"GET /query":         false,
		"GET /metrics.json":  false,
		"DELETE /query/{id}": false,
	} {
		if got := documentsRoute(doc, pattern); got != want {
			t.Errorf("documentsRoute(%q) = %v, want %v", pattern, got, want)
		}
	}
}
