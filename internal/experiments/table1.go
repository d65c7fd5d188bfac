package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Table1Row is one row of the integration inventory (the reproduction's
// Table 1): per-system implementation and specification sizes.
type Table1Row struct {
	System  string
	ImplLOC int
	SpecLOC int
	Vars    int
	Actions int
	Invs    int
	Defects int
}

// implDirs maps systems to the implementation packages whose lines Table 1
// counts (forks share their upstream's code the way RedisRaft/DaosRaft
// share WRaft's).
var implDirs = map[string][]string{
	"gosyncobj": {"internal/systems/gosyncobj"},
	"craft":     {"internal/systems/craft"},
	"redisraft": {"internal/systems/craft"},
	"daosraft":  {"internal/systems/craft"},
	"asyncraft": {"internal/systems/asyncraft"},
	"xraft":     {"internal/systems/xraft"},
	"xraftkv":   {"internal/systems/xraft", "internal/systems/xraftkv"},
	"zabkeeper": {"internal/systems/zabkeeper"},
}

var specDirs = map[string][]string{
	"gosyncobj": {"internal/specs/raftbase", "internal/specs/gosyncobj"},
	"craft":     {"internal/specs/raftbase", "internal/specs/craft"},
	"redisraft": {"internal/specs/raftbase", "internal/specs/redisraft"},
	"daosraft":  {"internal/specs/raftbase", "internal/specs/daosraft"},
	"asyncraft": {"internal/specs/raftbase", "internal/specs/asyncraft"},
	"xraft":     {"internal/specs/raftbase", "internal/specs/xraft"},
	"xraftkv":   {"internal/specs/raftbase", "internal/specs/xraftkv"},
	"zabkeeper": {"internal/specs/zabkeeper"},
}

// Table1 builds the inventory.
func Table1() ([]Table1Row, error) {
	root := moduleRoot()
	var rows []Table1Row
	for _, name := range Systems {
		sys, err := integrations.Get(name)
		if err != nil {
			return nil, err
		}
		m := sys.NewMachine(sys.DefaultConfig, sys.DefaultBudget, bugdb.AllBugs(name))
		row := Table1Row{
			System:  name,
			Vars:    countVars(m.Init()[0]),
			Invs:    len(m.Invariants()),
			Defects: len(bugdb.ForSystem(name)),
		}
		if acts, ok := m.(interface{ Actions() []string }); ok {
			row.Actions = len(acts.Actions())
		}
		if root != "" {
			for _, d := range implDirs[name] {
				row.ImplLOC += countLines(filepath.Join(root, d))
			}
			for _, d := range specDirs[name] {
				row.SpecLOC += countLines(filepath.Join(root, d))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// countVars counts distinct specification variable families ("role[0]" and
// "role[2]" are one variable, "role").
func countVars(s spec.State) int {
	names := make(map[string]struct{})
	for k := range spec.VarsOf(s) {
		if i := strings.IndexByte(k, '['); i >= 0 {
			k = k[:i]
		}
		names[k] = struct{}{}
	}
	return len(names)
}

// moduleRoot locates the repository root (the directory holding go.mod).
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// countLines counts non-test Go source lines under dir.
func countLines(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		total += strings.Count(string(b), "\n")
	}
	return total
}

// FormatTable1 renders the inventory.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: integrated systems and specification inventory\n")
	fmt.Fprintf(&b, "%-11s %9s %9s %6s %6s %6s %8s\n", "System", "Impl LOC", "Spec LOC", "#Var", "#Act", "#Inv", "Defects")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %9d %9d %6d %6d %6d %8d\n", r.System, r.ImplLOC, r.SpecLOC, r.Vars, r.Actions, r.Invs, r.Defects)
	}
	return b.String()
}
