package raftbase_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	sasync "github.com/sandtable-go/sandtable/internal/specs/asyncraft"
	scraft "github.com/sandtable-go/sandtable/internal/specs/craft"
	sdaos "github.com/sandtable-go/sandtable/internal/specs/daosraft"
	sgso "github.com/sandtable-go/sandtable/internal/specs/gosyncobj"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
	sxraft "github.com/sandtable-go/sandtable/internal/specs/xraft"
	sxkv "github.com/sandtable-go/sandtable/internal/specs/xraftkv"
)

func cfg2() spec.Config { return spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}} }
func cfg3() spec.Config { return spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}} }

func budget() spec.Budget {
	return spec.Budget{
		Name: "test", MaxTimeouts: 6, MaxCrashes: 1, MaxRestarts: 1,
		MaxRequests: 2, MaxPartitions: 1, MaxDrops: 2, MaxDuplicates: 1,
		MaxBuffer: 4, MaxCompactions: 1,
	}
}

// checkFinds asserts that model checking the machine hits a violation of the
// named invariant whose message contains msgPart.
func checkFinds(t *testing.T, m spec.Machine, invariant, msgPart string) *explorer.Violation {
	t.Helper()
	opts := explorer.DefaultOptions()
	opts.Deadline = 2 * time.Minute
	res := explorer.NewChecker(m, opts).Run()
	v := res.FirstViolation()
	if v == nil {
		t.Fatalf("no violation found (states=%d, stop=%s)", res.DistinctStates, res.StopReason)
	}
	if v.Invariant != invariant {
		t.Fatalf("violated %s (%v), want %s", v.Invariant, v.Err, invariant)
	}
	if msgPart != "" && !strings.Contains(v.Err.Error(), msgPart) {
		t.Fatalf("violation message %q does not mention %q", v.Err, msgPart)
	}
	if v.Trace == nil || v.Trace.Depth() != v.Depth {
		t.Fatalf("counterexample trace missing or wrong depth")
	}
	return v
}

func TestGoSyncObjBug2CommitNonMonotonic(t *testing.T) {
	m := sgso.New(cfg2(), budget(), bugdb.NoBugs().With(bugdb.GSOCommitNonMonotonic))
	v := checkFinds(t, m, "NoFlaggedViolation", "commit index is not monotonic")
	if v.Depth > 16 {
		t.Errorf("BFS counterexample unexpectedly deep: %d", v.Depth)
	}
}

func TestGoSyncObjBug3NextLEMatch(t *testing.T) {
	m := sgso.New(cfg2(), budget(), bugdb.NoBugs().With(bugdb.GSONextLEMatch))
	checkFinds(t, m, "NextIndexAfterMatchIndex", "next index")
}

func TestGoSyncObjBug4MatchNonMonotonic(t *testing.T) {
	m := sgso.New(cfg2(), budget(), bugdb.NoBugs().With(bugdb.GSOMatchNonMonotonic))
	checkFinds(t, m, "NoFlaggedViolation", "match index is not monotonic")
}

func TestGoSyncObjBug5CommitOldTerm(t *testing.T) {
	m := sgso.New(cfg2(), budget(), bugdb.NoBugs().With(bugdb.GSOCommitOldTerm))
	checkFinds(t, m, "NoFlaggedViolation", "older term")
}

func TestGoSyncObjFixedSmallSpaceClean(t *testing.T) {
	b := spec.Budget{Name: "tiny", MaxTimeouts: 4, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 1, MaxPartitions: 1, MaxBuffer: 3}
	m := sgso.New(cfg2(), b, bugdb.NoBugs())
	opts := explorer.DefaultOptions()
	res := explorer.NewChecker(m, opts).Run()
	if v := res.FirstViolation(); v != nil {
		t.Fatalf("fixed gosyncobj violated %s: %v\n%s", v.Invariant, v.Err, v.Trace.Format(false))
	}
	if !res.Exhausted {
		t.Fatalf("expected exhaustive exploration, stopped: %s after %d states", res.StopReason, res.DistinctStates)
	}
}

func TestLeaderElectionReachableInAllProfiles(t *testing.T) {
	b := spec.Budget{Name: "elect", MaxTimeouts: 2, MaxBuffer: 4}
	machines := []spec.Machine{
		sgso.New(cfg3(), b, bugdb.NoBugs()),
		scraft.New(cfg3(), b, bugdb.NoBugs()),
		sdaos.New(cfg3(), b, bugdb.NoBugs()),
		sasync.New(cfg3(), b, bugdb.NoBugs()),
		sxraft.New(cfg3(), b, bugdb.NoBugs()),
		sxkv.New(cfg3(), b, bugdb.NoBugs()),
	}
	hasLeader := func(st spec.State) bool {
		s := st.(*raftbase.State)
		for i := range s.Role {
			if s.Role[i] == raftbase.Leader {
				return true
			}
		}
		return false
	}
	for _, m := range machines {
		res := explorer.NewChecker(spectest.WithGoal(m, hasLeader), explorer.DefaultOptions()).Run()
		if v := res.FirstViolation(); v == nil {
			t.Errorf("%s: no leader electable within %d states", m.Name(), res.DistinctStates)
		} else if v.Invariant != spectest.GoalInvariant {
			t.Errorf("%s: unexpected violation %v\n%s", m.Name(), v, v.Trace.Format(false))
			continue
		}
		// The goal run stops at the first leader; m alone checks its
		// invariants over the whole space.
		if v := explorer.NewChecker(m, explorer.DefaultOptions()).Run().FirstViolation(); v != nil {
			t.Errorf("%s: unexpected violation %v\n%s", m.Name(), v, v.Trace.Format(false))
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	m := scraft.New(cfg3(), budget(), bugdb.AllBugs("craft"))
	rng := rand.New(rand.NewSource(3))
	cur := m.Init()[0]
	perm := []int{1, 2, 0}
	inv := []int{2, 0, 1}
	for step := 0; step < 200; step++ {
		fp := cur.Fingerprint()
		round := m.Permute(m.Permute(cur, perm), inv)
		if round.Fingerprint() != fp {
			t.Fatalf("step %d: permute round trip changed fingerprint", step)
		}
		succs := m.AppendNext(cur, nil)
		if len(succs) == 0 {
			break
		}
		cur = succs[rng.Intn(len(succs))].State
	}
}

func TestVarsRenderingStable(t *testing.T) {
	m := sgso.New(cfg2(), budget(), bugdb.NoBugs())
	s := m.Init()[0]
	vars := spec.VarsOf(s)
	for _, key := range []string{"role[0]", "term[0]", "votedFor[0]", "log[0]", "commit[0]", "net[0->1]", "status[1]"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("missing rendered variable %s", key)
		}
	}
	if vars["role[0]"] != "follower" || vars["log[0]"] != "[]" || vars["votedFor[0]"] != "-1" {
		t.Errorf("unexpected initial rendering: %v", vars)
	}
}
