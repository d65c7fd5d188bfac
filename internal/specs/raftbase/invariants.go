package raftbase

import (
	"fmt"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// Invariants implements spec.Machine: the safety properties the paper draws
// from the Raft protocol design (election safety, log matching, commitment,
// durability, monotonicity — the latter via the flagged-violation channel)
// plus system-specific properties (linearizability for the KV store, the
// non-empty-retry rule for CRaft).
func (m *Machine) Invariants() []spec.Invariant {
	invs := []spec.Invariant{
		spec.ViolationInvariant(func(st spec.State) string { return st.(*State).Viol.Flag }),
		{Name: "AtMostOneLeaderPerTerm", Check: m.atMostOneLeaderPerTerm},
		{Name: "NextIndexAfterMatchIndex", Check: m.nextAfterMatch},
		{Name: "CommittedLogConsistency", Check: m.committedLogConsistency},
		{Name: "LogDurability", Check: m.logDurability},
		{Name: "LogMatching", Check: m.logMatching},
		{Name: "CommitWithinLog", Check: m.commitWithinLog},
		{Name: "LeaderVotesForSelf", Check: m.leaderVotesForSelf},
		{Name: "TermMonotonePerMessageFlow", Check: m.voteSelfConsistent},
	}
	if m.opt.KV {
		invs = append(invs, spec.Invariant{Name: "Linearizability", Check: func(st spec.State) error {
			if lr := st.(*State).lastRead(); lr.Bad {
				return fmt.Errorf("read of %q at node %d returned %q, committed value is %q",
					lr.Key, lr.Node, lr.Val, lr.Want)
			}
			return nil
		}})
	}
	return invs
}

// atMostOneLeaderPerTerm: election safety (Raft's fundamental guarantee).
func (m *Machine) atMostOneLeaderPerTerm(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if !s.Up.Has(i) || s.Role[i] != Leader {
			continue
		}
		for j := i + 1; j < s.n; j++ {
			if s.Up.Has(j) && s.Role[j] == Leader && s.Term[i] == s.Term[j] {
				return fmt.Errorf("nodes %d and %d are both leaders in term %d", i, j, s.Term[i])
			}
		}
	}
	return nil
}

// nextAfterMatch: a leader's next index for a follower always exceeds its
// match index (violated by GoSyncObj#3 and CRaft#7).
func (m *Machine) nextAfterMatch(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if !s.Up.Has(i) || s.Role[i] != Leader {
			continue
		}
		for p := 0; p < s.n; p++ {
			if p == i {
				continue
			}
			if s.Next[i][p] <= s.Match[i][p] {
				return fmt.Errorf("leader %d: next index %d <= match index %d for follower %d",
					i, s.Next[i][p], s.Match[i][p], p)
			}
		}
	}
	return nil
}

// committedLogConsistency: every node's committed prefix agrees with the
// ghost committed log (violated by the CRaft#1+#2 combination).
func (m *Machine) committedLogConsistency(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if !s.Up.Has(i) {
			continue
		}
		hi := s.Commit[i]
		if hi > len(s.Committed) {
			hi = len(s.Committed)
		}
		for abs := s.SnapIdx[i] + 1; abs <= hi; abs++ {
			e, ok := s.entryAt(i, abs)
			if !ok {
				continue
			}
			if e != s.Committed[abs-1] {
				return fmt.Errorf("node %d committed entry %d is %d:%s, cluster committed %d:%s",
					i, abs, e.Term, e.Value, s.Committed[abs-1].Term, s.Committed[abs-1].Value)
			}
		}
	}
	return nil
}

// logDurability: every committed entry survives on a quorum (violated by
// AsyncRaft#2's erasure of matched entries).
func (m *Machine) logDurability(st spec.State) error {
	s := st.(*State)
	for abs := 1; abs <= len(s.Committed); abs++ {
		holders := 0
		for i := 0; i < s.n; i++ {
			if abs <= s.SnapIdx[i] {
				holders++ // compacted into the snapshot: still durable
				continue
			}
			if e, ok := s.entryAt(i, abs); ok && e == s.Committed[abs-1] {
				holders++
			}
		}
		if holders < m.quorum() {
			return fmt.Errorf("committed entry %d (%d:%s) survives on only %d/%d nodes",
				abs, s.Committed[abs-1].Term, s.Committed[abs-1].Value, holders, s.n)
		}
	}
	return nil
}

// logMatching: two logs holding an entry with the same index and term hold
// the same entry.
func (m *Machine) logMatching(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		for j := i + 1; j < s.n; j++ {
			lo := maxInt(s.SnapIdx[i], s.SnapIdx[j]) + 1
			hi := minInt(s.lastIndex(i), s.lastIndex(j))
			for abs := lo; abs <= hi; abs++ {
				ei, _ := s.entryAt(i, abs)
				ej, _ := s.entryAt(j, abs)
				if ei.Term == ej.Term && ei.Value != ej.Value {
					return fmt.Errorf("nodes %d and %d disagree at index %d term %d: %q vs %q",
						i, j, abs, ei.Term, ei.Value, ej.Value)
				}
			}
		}
	}
	return nil
}

// commitWithinLog: a commit index never points past the log end.
func (m *Machine) commitWithinLog(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if s.Commit[i] > s.lastIndex(i) {
			return fmt.Errorf("node %d commit index %d exceeds last log index %d", i, s.Commit[i], s.lastIndex(i))
		}
	}
	return nil
}

// leaderVotesForSelf: a leader's recorded vote is itself.
func (m *Machine) leaderVotesForSelf(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if s.Up.Has(i) && s.Role[i] == Leader && s.VotedFor[i] != i {
			return fmt.Errorf("leader %d has votedFor=%d", i, s.VotedFor[i])
		}
	}
	return nil
}

// voteSelfConsistent: a candidate counts its own vote and voted for itself.
func (m *Machine) voteSelfConsistent(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if s.Up.Has(i) && s.Role[i] == Candidate {
			if !s.Votes[i].Has(i) || s.VotedFor[i] != i {
				return fmt.Errorf("candidate %d did not vote for itself", i)
			}
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
