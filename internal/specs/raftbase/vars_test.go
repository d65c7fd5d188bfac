package raftbase_test

import (
	"maps"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	sasync "github.com/sandtable-go/sandtable/internal/specs/asyncraft"
	scraft "github.com/sandtable-go/sandtable/internal/specs/craft"
	sdaos "github.com/sandtable-go/sandtable/internal/specs/daosraft"
	sgso "github.com/sandtable-go/sandtable/internal/specs/gosyncobj"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
	sredis "github.com/sandtable-go/sandtable/internal/specs/redisraft"
	sxraft "github.com/sandtable-go/sandtable/internal/specs/xraft"
	sxkv "github.com/sandtable-go/sandtable/internal/specs/xraftkv"
)

// TestVarsMatchReference holds Vars — per-arity key tables, strconv appends —
// to the fmt-based rendering it replaced, byte for byte, at every state of
// random walks over all seven dialects, with and without the dirty-crash
// fault model. Vars is what conformance compares against the implementation
// and what a counterexample trace carries, so one changed byte would show as
// a discrepancy or a different trace file. The walks must reach every
// rendering branch the dialect has: crashed nodes, leaders, candidates, the
// durability mirrors, snapshots and the KV read ghost.
func TestVarsMatchReference(t *testing.T) {
	systems := map[string]func(spec.Config, spec.Budget, bugdb.Set) *raftbase.Machine{
		"gosyncobj": sgso.New, "craft": scraft.New, "redisraft": sredis.New, "daosraft": sdaos.New,
		"asyncraft": sasync.New, "xraft": sxraft.New, "xraftkv": sxkv.New,
	}
	dirty := budget()
	dirty.MaxDirtyCrashes = 1
	for name, mk := range systems {
		for variant, b := range map[string]spec.Budget{"plain": budget(), "dirty": dirty} {
			t.Run(name+"/"+variant, func(t *testing.T) {
				t.Parallel()
				m := mk(cfg3(), b, bugdb.NoBugs())
				states := 0
				seen := map[string]bool{}
				spectest.Walk(m, 120, 30, 11, func(s spec.State, _ int) bool {
					states++
					got, want := spec.VarsOf(s), raftbase.VarsReference(s)
					if !maps.Equal(got, want) {
						t.Fatalf("state %d: Vars differs from the reference:\n got %v\nwant %v", states, got, want)
					}
					for k, v := range got {
						base := k[:max(strings.IndexByte(k, '['), 0)]
						switch {
						case base == "status" && v == "crashed", base == "role" && (v == "leader" || v == "candidate"):
							seen[v] = true
						case base == "durTerm", base == "snapshot", base == "lastRead":
							seen[base] = true
						}
					}
					return true
				})
				if states < 2000 {
					t.Fatalf("only %d states walked", states)
				}
				want := []string{"crashed", "leader", "candidate"}
				if b.MaxDirtyCrashes > 0 {
					want = append(want, "durTerm")
				}
				if m.Options().Snapshots {
					want = append(want, "snapshot")
				}
				if m.Options().KV {
					want = append(want, "lastRead")
				}
				for _, w := range want {
					if !seen[w] {
						t.Errorf("no walked state renders %q (seen %v)", w, seen)
					}
				}
			})
		}
	}
}
