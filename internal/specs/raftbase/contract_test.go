package raftbase_test

import (
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

// TestContract runs every law of the spec.Machine contract over the raftbase
// dialects that between them reach every enumeration branch, every codec row
// and every orbit sub-digest: TCP with partitions (gosyncobj), UDP with
// drops/duplicates, snapshots and retries (craft), the KV workload with
// PreVote (xraftkv), the dirty-crash fault model (durability mirrors), a
// two-node arity, and the buggy builds, whose states carry Viol.Flag.
//
// flagNamesNodes marks the builds whose walks raise a flag whose message
// names node ids ("leader 0 votes for candidate 2"). Permute carries the
// message over verbatim, so the successor of a permuted state and the
// permuted successor differ in that text — and therefore in fingerprint —
// and equivariance is pinned as failing at this walk budget, with the witness
// logged (gosyncobj-buggy has the same flaw but these walks do not reach it).
// A flagged state violates the same invariant whichever text it carries, so
// what the asymmetry costs is a reported message, and in principle a count of
// flagged states, that depends on which member of an orbit the explorer
// happened to store.
func TestContract(t *testing.T) {
	dirty := budget()
	dirty.MaxDirtyCrashes = 1
	cases := []struct {
		name           string
		m              spec.Machine
		flagNamesNodes bool
	}{
		{"gosyncobj", sgso.New(cfg3(), budget(), bugdb.NoBugs()), false},
		{"gosyncobj-dirty", sgso.New(cfg3(), dirty, bugdb.NoBugs()), false},
		{"gosyncobj-n2", sgso.New(cfg2(), spec.Budget{Name: "lean", MaxTimeouts: 4, MaxRequests: 2, MaxBuffer: 3}, bugdb.NoBugs()), false},
		{"craft", scraft.New(cfg3(), budget(), bugdb.NoBugs()), false},
		{"craft-dirty", scraft.New(cfg3(), dirty, bugdb.NoBugs()), false},
		{"xraftkv", sxkv.New(cfg3(), budget(), bugdb.NoBugs()), false},
		{"gosyncobj-buggy", sgso.New(cfg3(), budget(), bugdb.AllBugs("gosyncobj")), false},
		{"craft-buggy", scraft.New(cfg3(), budget(), bugdb.AllBugs("craft")), true},
		{"xraftkv-buggy", sxkv.New(cfg3(), budget(), bugdb.AllBugs("xraftkv")), false},
		// Exploration continues past a flag, so flagged states have successors.
		{"craft-past-flag", raftbase.New(raftbase.Options{
			System: "craft", Profile: raftbase.CRaft, Transport: spec.UDP, Snapshots: true,
			Bugs: bugdb.VerificationBugs("craft"), ContinuePastFlag: true,
			Config: cfg3(), Budget: budget(),
		}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.flagNamesNodes {
				spectest.AssertContractExceptEquivariance(t, tc.m, 12, 80, 7)
			} else {
				spectest.AssertContract(t, tc.m, 12, 80, 7)
			}
		})
	}
}

// TestStoredMessagesLossless is the store/load law at every message of every
// channel of every state of a bounded BFS, over the fixed and the all-defects
// build of each of the seven systems: what a queue stores of a message loads
// back to the message that was sent. (mustPack panics on a message that would not,
// so a handler that set an operand outside its kind's set fails this search
// rather than losing the operand.)
func TestStoredMessagesLossless(t *testing.T) {
	systems := map[string]func(spec.Config, spec.Budget, bugdb.Set) *raftbase.Machine{
		"gosyncobj": sgso.New, "craft": scraft.New, "redisraft": sredis.New, "daosraft": sdaos.New,
		"asyncraft": sasync.New, "xraft": sxraft.New, "xraftkv": sxkv.New,
	}
	for name, mk := range systems {
		for build, bugs := range map[string]bugdb.Set{"fixed": bugdb.NoBugs(), "all-defects": bugdb.AllBugs(name)} {
			t.Run(name+"/"+build, func(t *testing.T) {
				t.Parallel()
				states := 0
				spectest.BFS(mk(cfg3(), budget(), bugs), 20000, func(s spec.State) {
					states++
					if err := raftbase.CheckStoredMessages(s); err != nil {
						t.Fatalf("state %d: %v", states, err)
					}
				})
				if states < 1000 {
					t.Fatalf("only %d states reached", states)
				}
			})
		}
	}
}
