// Command doclint enforces the repository's documentation contract:
//
//   - the root package and every package under internal/ must carry a
//     package doc comment (the one-paragraph "why does this package
//     exist" statement that `go doc` prints first), and
//   - the packages listed in strictPkgs — the root bistream package,
//     which is the public façade, and the state-durability, migration,
//     and routing/skew surface, where an undocumented exported symbol
//     is an operational hazard — must document every exported top-level
//     declaration.
//
// It is a plain go/parser + go/ast walk with no dependencies, wired
// into `make check` so CI fails on documentation regressions the same
// way it fails on vet findings.
//
// Usage: go run ./tools/doclint [root]   (root defaults to ".")
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// strictPkgs are packages (relative to the repo root; "." is the root
// package) where every exported symbol, not just the package, must be
// documented.
var strictPkgs = map[string]bool{
	".":                   true,
	"internal/checkpoint": true,
	"internal/core":       true,
	"internal/migrate":    true,
	"internal/router":     true,
	"internal/sketch":     true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := packageDirs(filepath.Join(root, "internal"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(1)
	}
	dirs = append([]string{root}, dirs...)
	var problems []string
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		ps, err := lintPackage(dir, rel, strictPkgs[rel])
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(1)
		}
		problems = append(problems, ps...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// packageDirs returns every directory under root that contains at
// least one non-test .go file.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		seen[filepath.Dir(path)] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// lintPackage parses one package directory and reports the missing
// package doc and, in strict mode, undocumented exported declarations.
func lintPackage(dir, rel string, strict bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
				break
			}
		}
		if !hasDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", rel, pkg.Name))
		}
		if !strict {
			continue
		}
		for name, f := range pkg.Files {
			problems = append(problems, lintFile(fset, filepath.ToSlash(name), f)...)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// lintFile reports every exported top-level declaration in f that has
// no doc comment. Grouped var/const blocks count as documented if the
// block itself has a doc comment.
func lintFile(fset *token.FileSet, name string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what, sym string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s is undocumented", name, p.Line, what, sym))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			blockDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !blockDoc && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if blockDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}
