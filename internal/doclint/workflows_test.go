package doclint

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// workflows are the CI definitions whose go test steps select tests by
// pattern (module-root-relative).
var workflows = []string{".github/workflows/ci.yml", ".github/workflows/nightly.yml"}

// goTestValueFlags are the go test flags that take a value, so the word
// after one is not a package; testPatternFlags are those whose value
// selects functions by name.
var (
	goTestValueFlags = map[string]bool{"-run": true, "-fuzz": true, "-bench": true, "-count": true,
		"-timeout": true, "-fuzztime": true, "-benchtime": true, "-parallel": true, "-cpu": true, "-C": true}
	testPatternFlags = map[string]bool{"-run": true, "-fuzz": true, "-bench": true}
)

// TestWorkflowTestPatterns holds the -run, -fuzz and -bench patterns of
// every go test step in the workflows to the code: each alternative of a
// pattern must match a Test, Fuzz, Benchmark or Example function in the
// packages the step names, so a renamed test cannot drop silently out of
// its race or -count step. "xxx" and "^$" are the intended empty
// selections.
func TestWorkflowTestPatterns(t *testing.T) {
	funcs := map[string][]string{} // package dir → its test functions
	for _, wf := range workflows {
		steps, err := goTestSteps("../../" + wf)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) == 0 {
			t.Fatalf("%s: no go test step found", wf)
		}
		for _, st := range steps {
			if len(st.patterns) == 0 {
				continue
			}
			var names []string
			for _, dir := range expandPackages(t, st.pkgs) {
				if _, ok := funcs[dir]; !ok {
					funcs[dir] = testFuncs(t, dir)
				}
				names = append(names, funcs[dir]...)
			}
			for _, p := range st.patterns {
				if p == "xxx" || p == "^$" {
					continue
				}
				for _, alt := range alternatives(p) {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: pattern %q: %v", wf, st.line, p, err)
						continue
					}
					if !matchesAny(re, names) {
						t.Errorf("%s:%d: %q of pattern %q matches no test function in %v", wf, st.line, alt, p, st.pkgs)
					}
				}
			}
		}
	}
}

// goTestStep is one go test command of a workflow: its line, the values
// of its pattern flags, and its package arguments.
type goTestStep struct {
	line     int
	patterns []string
	pkgs     []string
}

// goTestSteps finds every go test command in the workflow at path, one
// per line, outside comments.
func goTestSteps(path string) ([]goTestStep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var steps []goTestStep
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		st := goTestStep{line: n}
		words := shellWords(cmd)
		for i := 0; i < len(words); i++ {
			w := words[i]
			if w == "&&" || w == "||" || w == ";" || w == "|" {
				break
			}
			if !strings.HasPrefix(w, "-") {
				st.pkgs = append(st.pkgs, w)
				continue
			}
			if goTestValueFlags[w] && i+1 < len(words) {
				if testPatternFlags[w] {
					st.patterns = append(st.patterns, words[i+1])
				}
				i++
			}
		}
		steps = append(steps, st)
	}
	return steps, sc.Err()
}

// shellWords splits s into words as a POSIX shell would for the plain
// commands workflows run: whitespace separates, single and double quotes
// group.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// alternatives splits a pattern's top level — what go test matches
// against a function name, before any "/" of a subtest level — at each
// "|" outside parentheses and brackets.
func alternatives(p string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return append(out, p[start:i])
			}
		case '|':
			if depth == 0 {
				out = append(out, p[start:i])
				start = i + 1
			}
		}
	}
	return append(out, p[start:])
}

// expandPackages turns go test package arguments into module-root-relative
// directories under ../..: "./..." is every directory of the module that
// holds Go files (a nested module such as benchmark/ is not part of it).
func expandPackages(t *testing.T, pkgs []string) []string {
	t.Helper()
	var dirs []string
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		root = filepath.Join("../..", root)
		if !recursive {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// testFuncs lists the Test, Fuzz, Benchmark and Example functions of the
// package in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

func TestAlternatives(t *testing.T) {
	for p, want := range map[string]string{
		"TestA|TestB":        "TestA,TestB",
		"^FuzzRead$":         "^FuzzRead$",
		"Test(A|B)C|TestD":   "Test(A|B)C,TestD",
		"TestX/sub|ignored":  "TestX",
		`Test\|Lit|[|]Other`: `Test\|Lit,[|]Other`,
	} {
		if got := strings.Join(alternatives(p), ","); got != want {
			t.Errorf("alternatives(%q) = %q, want %q", p, got, want)
		}
	}
}
