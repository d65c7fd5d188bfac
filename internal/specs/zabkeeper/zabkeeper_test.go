package zabkeeper_test

import (
	"math/rand"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
)

func cfg() spec.Config {
	return spec.Config{Name: "n3w1", Nodes: 3, Workload: []string{"v1"}}
}

func electionBudget() spec.Budget {
	return spec.Budget{Name: "el", MaxTimeouts: 2, MaxBuffer: 3}
}

func TestSupersedesIsTotalOrderWhenFixed(t *testing.T) {
	m := zabkeeper.New(cfg(), electionBudget(), bugdb.NoBugs())
	votes := []zabkeeper.Vote{}
	for leader := 0; leader < 3; leader++ {
		for e := 0; e < 3; e++ {
			for c := 0; c < 3; c++ {
				votes = append(votes, zabkeeper.Vote{Leader: leader, Epoch: e, Counter: c})
			}
		}
	}
	for _, a := range votes {
		for _, b := range votes {
			if a == b {
				continue
			}
			if m.Supersedes(a, b) == m.Supersedes(b, a) {
				t.Fatalf("fixed comparator not total: %v vs %v", a, b)
			}
		}
	}
}

func TestBuggySupersedesLosesAntisymmetry(t *testing.T) {
	m := zabkeeper.New(cfg(), electionBudget(), bugdb.NoBugs().With(bugdb.ZabVoteOrder))
	a := zabkeeper.Vote{Leader: 0, Epoch: 2, Counter: 1}
	b := zabkeeper.Vote{Leader: 1, Epoch: 1, Counter: 2}
	if !m.Supersedes(a, b) || !m.Supersedes(b, a) {
		t.Fatal("the buggy comparator should order both directions for crossing zxids")
	}
}

// assertReachable checks that BFS over m within maxStates reaches a state
// satisfying goal before any of m's invariants fails, and that none of them
// fails anywhere in those maxStates states.
func assertReachable(t *testing.T, m spec.Machine, maxStates int, goal func(*zabkeeper.State) bool) {
	t.Helper()
	opts := explorer.DefaultOptions()
	opts.MaxStates = maxStates
	res := explorer.NewChecker(spectest.WithGoal(m, func(st spec.State) bool {
		return goal(st.(*zabkeeper.State))
	}), opts).Run()
	v := res.FirstViolation()
	if v == nil {
		t.Fatalf("goal not reachable in %d states", res.DistinctStates)
	}
	if v.Invariant != spectest.GoalInvariant {
		t.Fatalf("fixed zab violated %s: %v\n%s", v.Invariant, v.Err, v.Trace.Format(false))
	}
	// The goal run stops at the goal's level; m alone checks its invariants
	// over the whole budget.
	if v := explorer.NewChecker(m, opts).Run().FirstViolation(); v != nil {
		t.Fatalf("fixed zab violated %s: %v\n%s", v.Invariant, v.Err, v.Trace.Format(false))
	}
}

func TestLeaderElectableAndActivates(t *testing.T) {
	m := zabkeeper.New(cfg(), electionBudget(), bugdb.NoBugs())
	assertReachable(t, m, 30000, func(s *zabkeeper.State) bool {
		return s.Activated != 0
	})
}

func TestCommitReachableInFixedBuild(t *testing.T) {
	b := spec.Budget{Name: "commit", MaxTimeouts: 1, MaxRequests: 1, MaxBuffer: 3}
	m := zabkeeper.New(cfg(), b, bugdb.NoBugs())
	assertReachable(t, m, 50000, func(s *zabkeeper.State) bool {
		for i := range s.Commit {
			if s.Commit[i] > 0 {
				return true
			}
		}
		return false
	})
}

func TestPermuteRoundTripPreservesFingerprint(t *testing.T) {
	m := zabkeeper.New(cfg(), spec.Budget{Name: "x", MaxTimeouts: 2, MaxRequests: 1, MaxCrashes: 1, MaxRestarts: 1, MaxBuffer: 3}, bugdb.AllBugs("zabkeeper"))
	rng := rand.New(rand.NewSource(11))
	cur := m.Init()[0]
	perm := []int{2, 0, 1}
	inv := []int{1, 2, 0}
	for step := 0; step < 250; step++ {
		fp := cur.Fingerprint()
		round := m.Permute(m.Permute(cur, perm), inv)
		if round.Fingerprint() != fp {
			t.Fatalf("step %d: permute round trip changed fingerprint", step)
		}
		// Permuted states must render permuted variables consistently.
		pv := m.Permute(cur, perm).Vars()
		cv := cur.Vars()
		if cv["state[0]"] != pv["state[2]"] {
			t.Fatalf("step %d: permuted state[2]=%s, original state[0]=%s", step, pv["state[2]"], cv["state[0]"])
		}
		succs := m.AppendNext(cur, nil)
		if len(succs) == 0 {
			break
		}
		cur = succs[rng.Intn(len(succs))].State
	}
}

func TestVoteOrderBugFoundByBFS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute BFS")
	}
	t.Parallel()
	b := spec.Budget{Name: "zab", MaxTimeouts: 2, MaxRequests: 3, MaxBuffer: 3}
	m := zabkeeper.New(cfg(), b, bugdb.NoBugs().With(bugdb.ZabVoteOrder))
	opts := explorer.DefaultOptions()
	res := explorer.NewChecker(m, opts).Run()
	v := res.FirstViolation()
	if v == nil {
		t.Fatalf("vote-order violation not found (%d states)", res.DistinctStates)
	}
	if v.Invariant != "VoteTotalOrder" {
		t.Fatalf("violated %s (%v), want VoteTotalOrder", v.Invariant, v.Err)
	}
}

// TestContract runs every law of the spec.Machine contract under the full
// fault budget (vote-carrying messages, crashes and partitions all appear in
// the walked states), in the fixed and the buggy (ZabVoteOrder) builds so
// flagged states are covered too. Equivariance is pinned as failing in both:
// Supersedes breaks (epoch, counter) ties on the proposed leader's id, as
// ZooKeeper's FLE does on sid, so which of two tied votes wins — and with it
// which notifications a node sends next — changes when the ids are swapped.
func TestContract(t *testing.T) {
	b := spec.Budget{Name: "contract", MaxTimeouts: 4, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3}
	for name, bugs := range map[string]bugdb.Set{
		"fixed": bugdb.NoBugs(),
		"buggy": bugdb.AllBugs("zabkeeper"),
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spectest.AssertContractExceptEquivariance(t, zabkeeper.New(cfg(), b, bugs), 12, 80, 29)
		})
	}
}

// TestStoredMessagesLossless is the store/load law at every message of every
// channel of every state of a bounded BFS, fixed and buggy build: what a queue
// stores of a message loads back to the message that was sent (see raftbase's).
func TestStoredMessagesLossless(t *testing.T) {
	b := spec.Budget{Name: "law", MaxTimeouts: 4, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3}
	for name, bugs := range map[string]bugdb.Set{"fixed": bugdb.NoBugs(), "buggy": bugdb.AllBugs("zabkeeper")} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			states := 0
			spectest.BFS(zabkeeper.New(cfg(), b, bugs), 20000, func(s spec.State) {
				states++
				if err := zabkeeper.CheckStoredMessages(s); err != nil {
					t.Fatalf("state %d: %v", states, err)
				}
			})
			if states < 1000 {
				t.Fatalf("only %d states reached", states)
			}
		})
	}
}

// FuzzDecodeState fuzzes the zabkeeper codec, seeded with reachable states;
// see spectest.FuzzDecodeState.
func FuzzDecodeState(f *testing.F) {
	b := spec.Budget{Name: "fuzz", MaxTimeouts: 4, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3}
	spectest.FuzzDecodeState(f, zabkeeper.New(cfg(), b, bugdb.NoBugs()), 8, 60, 3)
}
