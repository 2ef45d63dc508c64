package loop_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

const loopPath = "repro/internal/loop"

// vFieldReads type-checks one package from its parsed files and returns
// the package and the position of every selection of loop.Structure's V
// field in it.
func vFieldReads(t *testing.T, fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, []string) {
	t.Helper()
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	var out []string
	for sel, s := range info.Selections {
		if s.Kind() != types.FieldVal || s.Obj().Name() != "V" {
			continue
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Name() != "Structure" || named.Obj().Pkg().Path() != loopPath {
			continue
		}
		out = append(out, fset.Position(sel.Sel.Pos()).String())
	}
	return pkg, out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestVertexSetHasOneReadPath: outside this package, non-test code reads
// a structure's vertex set only through Points or Point (and counts it
// with Len), never through the V field, which a loopmap.PrepareCtx stage
// (NewCountedStructureCtx) leaves nil.
// One go list call orders the module's packages after their
// dependencies; each module package is type-checked from source once,
// and the standard library is imported from its export data. perfbench
// is its own module and is not listed.
func TestVertexSetHasOneReadPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool and type-checks the module from source")
	}
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "repro/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var pkgs []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	var bad []string
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, af)
		}
		pkg, reads := vFieldReads(t, fset, imp, p.ImportPath, files)
		checked[p.ImportPath] = pkg
		if p.ImportPath != loopPath {
			bad = append(bad, reads...)
		}
	}
	if len(checked) < 20 {
		t.Fatalf("checked only %d packages; go list output:\n%s", len(checked), out)
	}

	// The check must see a read that is there.
	probe, err := parser.ParseFile(fset, filepath.Join(".", "probe.go"),
		"package probe\nimport \"repro/internal/loop\"\nfunc f(s *loop.Structure) int { return len(s.V) }\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := vFieldReads(t, fset, imp, "probe", []*ast.File{probe}); len(got) != 1 {
		t.Fatalf("probe reading s.V: found %d reads, want 1", len(got))
	}

	sort.Strings(bad)
	for _, pos := range bad {
		t.Errorf("%s: reads loop.Structure.V, which a loopmap.PrepareCtx stage leaves nil; use Points, Point or Len()", pos)
	}
}
