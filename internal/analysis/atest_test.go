package analysis

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixtureTest loads fixture packages from testdata/src and checks one
// analyzer's diagnostics against the "// want `regexp`" comments in the
// fixture sources, analysistest-style: every want must be matched by a
// diagnostic on its line, and every diagnostic must be wanted.
func runFixtureTest(t *testing.T, a *Analyzer, patterns ...string) {
	t.Helper()
	l := NewSrcLoader(filepath.Join("testdata", "src"))
	pkgs, err := l.Load(patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages matched %v", patterns)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					res, ok := parseWant(t, c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], res...)
				}
			}
		}
	}

	got := map[key][]Diagnostic{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d)
	}

	for k, ds := range got {
		ws := wants[k]
		if len(ws) != len(ds) {
			t.Errorf("%s:%d: got %d diagnostics, want %d:\n%s",
				k.file, k.line, len(ds), len(ws), diagLines(ds))
			continue
		}
		for i, d := range ds {
			if !ws[i].MatchString(d.Message) {
				t.Errorf("%s:%d: diagnostic %q does not match want %q",
					k.file, k.line, d.Message, ws[i])
			}
		}
	}
	for k, ws := range wants {
		if len(got[k]) == 0 {
			t.Errorf("%s:%d: want %d diagnostics (%v), got none", k.file, k.line, len(ws), ws)
		}
	}
}

func diagLines(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// parseWant extracts the expectation regexps from a want comment. The second
// result is false for comments that are not want comments at all.
func parseWant(t *testing.T, comment string) ([]*regexp.Regexp, bool) {
	t.Helper()
	text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(comment), "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return nil, false
	}
	var res []*regexp.Regexp
	for _, q := range wantArgRe.FindAllString(rest, -1) {
		s, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("bad want expectation %s: %v", q, err)
		}
		re, err := regexp.Compile(s)
		if err != nil {
			t.Fatalf("bad want regexp %q: %v", s, err)
		}
		res = append(res, re)
	}
	if len(res) == 0 {
		t.Fatalf("want comment with no quoted expectation: %s", comment)
	}
	return res, true
}

func TestMapOrderFixtures(t *testing.T) {
	runFixtureTest(t, MapOrder, "maporder/...")
}
