package zabkeeper_test

import (
	"maps"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
)

// TestVarsMatchReference holds Vars to the fmt-based rendering it replaced,
// byte for byte, at every state of random walks over the budget `sandtable
// conform` uses; the walks must reach crashed nodes, a leader (synced and
// acked rows) and a non-empty history.
func TestVarsMatchReference(t *testing.T) {
	m := zabkeeper.New(spec.DefaultConfig(), spec.Budget{
		Name: "hunt", MaxTimeouts: 6, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 3,
		MaxPartitions: 1, MaxBuffer: 4,
	}, bugdb.NoBugs())
	states := 0
	seen := map[string]bool{}
	spectest.Walk(m, 120, 30, 11, func(s spec.State, _ int) bool {
		states++
		got, want := spec.VarsOf(s), zabkeeper.VarsReference(s)
		if !maps.Equal(got, want) {
			t.Fatalf("state %d: Vars differs from the reference:\n got %v\nwant %v", states, got, want)
		}
		for k, v := range got {
			switch {
			case strings.HasPrefix(k, "status[") && v == "crashed", strings.HasPrefix(k, "state[") && v == "leading":
				seen[v] = true
			case strings.HasPrefix(k, "history[") && v != "[]":
				seen["history"] = true
			}
		}
		return true
	})
	if states < 2000 {
		t.Fatalf("only %d states walked", states)
	}
	for _, w := range []string{"crashed", "leading", "history"} {
		if !seen[w] {
			t.Errorf("no walked state renders %q (seen %v)", w, seen)
		}
	}
}
