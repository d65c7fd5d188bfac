// Command checkdocs is the repository's documentation gate, run by
// scripts/checkdocs.sh as part of `make ci`. It enforces two rules:
//
//  1. Every exported identifier in the audited packages (internal/fpset,
//     internal/explorer, internal/ranking, internal/scenario,
//     internal/shrink, internal/conformance, internal/transport,
//     internal/serve, internal/sandtable) carries
//     a doc comment, and every audited package has a package-level doc
//     comment.
//  2. Every relative link in the repository's *.md files resolves to an
//     existing file, and the operator-facing documents (README.md,
//     ARCHITECTURE.md, OPERATIONS.md, EXPERIMENTS.md) exist — the link
//     check only sees documents that are linked, so existence is asserted
//     separately.
//
// It prints one line per problem and exits non-zero if any were found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// auditedPackages are the directories whose exported API must be fully
// documented (the godoc-audit scope fixed by the docs PR).
var auditedPackages = []string{
	"internal/fpset",
	"internal/explorer",
	"internal/ranking",
	"internal/scenario",
	"internal/shrink",
	"internal/conformance",
	"internal/transport",
	"internal/serve",
	"internal/sandtable",
	"internal/trace",
	"internal/obs",
}

// requiredDocs are the operator-facing documents that must exist at the
// repository root. The relative-link walk can only validate links that
// are written, so a deleted (or never-committed) document would pass
// silently without this list.
var requiredDocs = []string{
	"README.md",
	"ARCHITECTURE.md",
	"OPERATIONS.md",
	"EXPERIMENTS.md",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems := 0
	for _, pkg := range auditedPackages {
		problems += checkPackageDocs(filepath.Join(root, pkg))
	}
	for _, doc := range requiredDocs {
		if _, err := os.Stat(filepath.Join(root, doc)); err != nil {
			fmt.Printf("%s: required document missing\n", doc)
			problems++
		}
	}
	problems += checkMarkdownLinks(root)
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "checkdocs: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

// checkPackageDocs parses one package directory (tests excluded) and
// reports exported declarations without doc comments.
func checkPackageDocs(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Printf("%s: %v\n", dir, err)
		return 1
	}
	problems := 0
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s has no doc comment\n", p.Filename, p.Line, what)
		problems++
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package-level doc comment\n", dir, pkg.Name)
			problems++
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if d.Recv != nil && len(d.Recv.List) > 0 {
						// Methods on unexported receivers are internal API.
						if !ast.IsExported(receiverTypeName(d.Recv.List[0].Type)) {
							continue
						}
						report(d.Pos(), fmt.Sprintf("method %s.%s", receiverTypeName(d.Recv.List[0].Type), d.Name.Name))
						continue
					}
					report(d.Pos(), "function "+d.Name.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch spec := s.(type) {
						case *ast.TypeSpec:
							if spec.Name.IsExported() && d.Doc == nil && spec.Doc == nil {
								report(spec.Pos(), "type "+spec.Name.Name)
							}
						case *ast.ValueSpec:
							// A doc on the grouped decl covers its members.
							if d.Doc != nil || spec.Doc != nil || spec.Comment != nil {
								continue
							}
							for _, name := range spec.Names {
								if name.IsExported() {
									report(name.Pos(), "declaration "+name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverTypeName unwraps *T / generic instantiations to the base type name.
func receiverTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// mdLink matches inline markdown links [text](target). Images and
// reference-style links are out of scope.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies that every relative link in the repo's *.md
// files points at an existing file. External (scheme://), mailto, and
// pure-anchor (#...) targets are skipped; a #fragment on a relative target
// is stripped before the existence check.
func checkMarkdownLinks(root string) int {
	problems := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and editor/tool caches.
			if name := d.Name(); path != root && (name == ".git" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					fmt.Printf("%s:%d: broken relative link %q\n", path, i+1, m[1])
					problems++
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Printf("markdown walk: %v\n", err)
		problems++
	}
	return problems
}
