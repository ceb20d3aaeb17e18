package wal

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWALOwnerIsTheOnlyWriter keeps the log protocol in one place: no
// non-test file of the module outside this package calls the methods that
// write a Log — Append, SyncTo, SyncToOp and Reset — so every
// commit, checkpoint and recovery goes through Owner. benchmark/ is left
// out: it times the raw log calls as a per-layer probe. Calls are found by
// type, not by name, so a bytes.Buffer's Reset is no match.
func TestWALOwnerIsTheOnlyWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	const self, skip = "unixhash/internal/wal", "unixhash/benchmark"
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \" \"}}\t{{.Standard}}", "unixhash/...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	type pkg struct {
		path, dir string
		files     []string
	}
	export := map[string]string{}
	var targets []pkg
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			t.Fatalf("go list line %q", sc.Text())
		}
		export[f[0]] = f[1]
		if f[4] == "false" && f[0] != self && f[0] != skip && !strings.HasPrefix(f[0], skip+"/") {
			targets = append(targets, pkg{f[0], f[2], strings.Fields(f[3])})
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	writers := map[string]bool{"Append": true, "SyncTo": true, "SyncToOp": true, "Reset": true}
	for _, p := range targets {
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if _, err := (&types.Config{Importer: imp}).Check(p.path, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		for sel, s := range info.Selections {
			fn, ok := s.Obj().(*types.Func)
			if !ok || !writers[fn.Name()] || fn.Pkg() == nil || fn.Pkg().Path() != self {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && strings.HasSuffix(recv.Type().String(), self+".Log") {
				t.Errorf("%s: calls Log.%s; the log is written only by wal.Owner", fset.Position(sel.Pos()), fn.Name())
			}
		}
	}
}
