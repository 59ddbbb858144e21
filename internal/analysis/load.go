package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package ready for analysis. Test
// files are not included: the invariants govern code that can run on a
// measured path, and the analyzer exempts tests anyway.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader resolves import-path patterns to type-checked Packages. Two
// layouts are supported:
//
//   - module layout (NewModuleLoader): import paths under the go.mod module
//     path map to directories under the module root — how the repo-wide
//     regression test loads the real repository;
//   - src layout (NewSrcLoader): an import path maps directly to a
//     subdirectory of a fixture root, mirroring analysistest's
//     testdata/src/<importpath> convention.
//
// Standard-library imports are satisfied by the compiler-independent
// "source" importer, so loading needs no pre-built export data and no
// network.
type Loader struct {
	Fset *token.FileSet

	root       string // module root or fixture src root
	modulePath string // "" for src layout

	pkgs     map[string]*Package
	checking map[string]bool
}

// NewModuleLoader creates a loader for the Go module containing dir,
// discovered by walking up to the nearest go.mod.
func NewModuleLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		root:       root,
		modulePath: modPath,
		pkgs:       map[string]*Package{},
		checking:   map[string]bool{},
	}, nil
}

// NewSrcLoader creates a loader rooted at an analysistest-style source tree:
// import path p lives in srcRoot/p.
func NewSrcLoader(srcRoot string) *Loader {
	return &Loader{
		Fset:     token.NewFileSet(),
		root:     srcRoot,
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}
}

// Load resolves each pattern ("./...", a relative directory, or an import
// path) and returns the matched packages in sorted import-path order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := l.walkDirs(l.root)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				paths[l.pathFor(d)] = true
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			dirs, err := l.walkDirs(l.dirFor(l.cleanPattern(base)))
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				paths[l.pathFor(d)] = true
			}
		default:
			paths[l.cleanPattern(pat)] = true
		}
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	pkgs := make([]*Package, 0, len(sorted))
	for _, p := range sorted {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// cleanPattern turns a pattern into an import path.
func (l *Loader) cleanPattern(pat string) string {
	if strings.HasPrefix(pat, "./") || pat == "." {
		rel := strings.TrimPrefix(strings.TrimPrefix(pat, "."), "/")
		return l.pathFor(filepath.Join(l.root, filepath.FromSlash(rel)))
	}
	return pat
}

// pathFor maps a directory under the root to its import path.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	if l.modulePath == "" {
		return rel
	}
	if rel == "" {
		return l.modulePath
	}
	return l.modulePath + "/" + rel
}

// dirFor maps an internal import path to its directory, reporting whether
// the path belongs to this loader's tree.
func (l *Loader) dirFor(path string) string {
	if l.modulePath == "" {
		return filepath.Join(l.root, filepath.FromSlash(path))
	}
	if path == l.modulePath {
		return l.root
	}
	rel, ok := strings.CutPrefix(path, l.modulePath+"/")
	if !ok {
		return ""
	}
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// internal reports whether the import path is resolved by this loader (as
// opposed to the standard library).
func (l *Loader) internal(path string) bool {
	if l.modulePath != "" {
		return path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")
	}
	// Src layout: internal iff the fixture directory exists.
	st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

// walkDirs returns every directory under base holding at least one buildable
// non-test Go file, skipping testdata, vendor, hidden, and underscore dirs.
func (l *Loader) walkDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := buildableGoFiles(path); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// buildableGoFiles lists the non-test Go files of dir that build on the host
// platform, in sorted order.
func buildableGoFiles(dir string) ([]string, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := append([]string(nil), bp.GoFiles...)
	sort.Strings(files)
	return files, nil
}

// stdImporter is the shared source-based importer for standard-library
// packages. It type-checks GOROOT sources on demand and caches results for
// the life of the process; its FileSet is private because no diagnostic ever
// points into the standard library.
var (
	stdImporterOnce sync.Once
	stdImporterInst types.ImporterFrom
)

func stdImporter() types.ImporterFrom {
	stdImporterOnce.Do(func() {
		stdImporterInst = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	})
	return stdImporterInst
}

// loaderImporter satisfies types.ImporterFrom for one Loader, routing
// internal paths back into the loader and everything else to the shared
// standard-library importer.
type loaderImporter struct{ l *Loader }

func (i loaderImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, i.l.root, 0)
}

func (i loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if i.l.internal(path) {
		pkg, err := i.l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return stdImporter().ImportFrom(path, dir, mode)
}

// load parses and type-checks one package (memoized).
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: %q is not under this loader's root", path)
	}
	names, err := buildableGoFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: loaderImporter{l}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
