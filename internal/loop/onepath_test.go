package loop_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const loopPath = "repro/internal/loop"

// vFieldReads type-checks one package from its parsed files and returns
// the position of every selection of loop.Structure's V field in it.
func vFieldReads(t *testing.T, fset *token.FileSet, imp types.Importer, path string, files []*ast.File) []string {
	t.Helper()
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
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
	return out
}

// TestVertexSetHasOneReadPath: outside this package, non-test code reads
// a structure's vertex set only through Vertices (and counts it with
// Len), never through the V field, which a compact structure leaves nil.
// Every package of the module is type-checked from source; perfbench is
// its own module and is not listed.
func TestVertexSetHasOneReadPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool and type-checks the module from source")
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "repro/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	// Type-check the standard library's pure-Go files, as the go tool
	// does without a C toolchain.
	build.Default.CgoEnabled = false
	imp := importer.ForCompiler(fset, "source", nil)

	// The check must see a read that is there.
	probe, err := parser.ParseFile(fset, filepath.Join(".", "probe.go"),
		"package probe\nimport \"repro/internal/loop\"\nfunc f(s *loop.Structure) int { return len(s.V) }\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := vFieldReads(t, fset, imp, "probe", []*ast.File{probe}); len(got) != 1 {
		t.Fatalf("probe reading s.V: found %d reads, want 1", len(got))
	}

	var bad []string
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 || f[0] == loopPath || f[2] == "" {
			continue
		}
		var files []*ast.File
		for _, name := range strings.Fields(f[2]) {
			af, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, af)
		}
		bad = append(bad, vFieldReads(t, fset, imp, f[0], files)...)
		checked++
	}
	if checked < 20 {
		t.Fatalf("checked only %d packages; go list output:\n%s", checked, out)
	}
	sort.Strings(bad)
	for _, pos := range bad {
		t.Errorf("%s: reads loop.Structure.V; use Vertices() or Len()", pos)
	}
}
