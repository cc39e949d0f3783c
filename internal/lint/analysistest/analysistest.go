// Package analysistest runs a lint analyzer over a fixture directory
// and checks its diagnostics against `// want` expectations, in the
// style of golang.org/x/tools/go/analysis/analysistest (which the
// offline build cannot vendor).
//
// Fixture files live under testdata/ (invisible to the go tool, so
// deliberately-broken code never taints the build) and may import any
// package of this module or the standard library; imports resolve
// through the build cache. Expectations are trailing comments:
//
//	if secret == 0 { // want `depends on secret`
//
// Each backquoted or quoted string is a regexp that must match one
// diagnostic reported on that line; diagnostics with no matching want,
// and wants with no matching diagnostic, fail the test.
package analysistest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Run loads dir as one package, applies a, and verifies the
// diagnostics against the fixture's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := load.Dir(root, dir, "fixture/"+a.Name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	wants := collectWants(t, pkg.Fset, pkg.Files)

	type key struct {
		file string
		line int
	}
	unmatched := map[key][]string{}
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		unmatched[k] = append(unmatched[k], d.Message)
	}
	for _, w := range wants {
		k := key{w.file, w.line}
		found := -1
		for i, msg := range unmatched[k] {
			if w.rx.MatchString(msg) {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("%s:%d: no diagnostic matching %q (got %v)", w.file, w.line, w.rx, unmatched[k])
			continue
		}
		unmatched[k] = append(unmatched[k][:found], unmatched[k][found+1:]...)
	}
	for k, msgs := range unmatched {
		for _, msg := range msgs {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
		}
	}
}

type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				matches := wantRe.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", p.Filename, p.Line, c.Text)
				}
				for _, m := range matches {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", p.Filename, p.Line, pat, err)
					}
					out = append(out, want{p.Filename, p.Line, rx})
				}
			}
		}
	}
	return out
}
