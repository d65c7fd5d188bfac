package integrations

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// TestAllSystemsConform is the repository's §3.2 gate: for every integrated
// Raft-family system, random specification traces replay on the
// implementation with every compared variable agreeing after every event —
// in the aligned verification build and in the fully fixed build.
func TestAllSystemsConform(t *testing.T) {
	for _, name := range []string{"gosyncobj", "craft", "redisraft", "daosraft", "asyncraft", "xraft", "xraftkv", "zabkeeper"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}
			for _, bugs := range []bugdb.Set{bugdb.VerificationBugs(name), bugdb.NoBugs()} {
				st := sandtable.New(sys, cfg, defaultBudget(), bugs)
				rep, err := st.Conform(conformance.Options{Walks: 100, WalkDepth: 25, Seed: 20})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Passed() {
					t.Fatalf("bugs=%v:\n%v\ntrace:\n%s", bugs, rep.Discrepancy, rep.Discrepancy.Trace.Format(false))
				}
			}
		})
	}
}
