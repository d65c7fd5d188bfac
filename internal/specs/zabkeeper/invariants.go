package zabkeeper

import (
	"fmt"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// Invariants implements spec.Machine. The headline property is
// VoteTotalOrder — the oracle for ZabKeeper#1 ("votes are not total
// ordered", the ZOOKEEPER-1419 analogue) — alongside Zab's structural
// safety properties.
func (m *Machine) Invariants() []spec.Invariant {
	return []spec.Invariant{
		spec.ViolationInvariant(func(st spec.State) string { return st.(*State).Viol.Flag }),
		{Name: "VoteTotalOrder", Check: m.voteTotalOrder},
		{Name: "AtMostOneActiveLeaderPerEpoch", Check: m.oneLeaderPerEpoch},
		{Name: "CommittedHistoryConsistency", Check: m.committedConsistency},
		{Name: "HistoryZxidOrder", Check: m.historyZxidOrder},
		{Name: "CommitWithinHistory", Check: m.commitWithinHistory},
	}
}

// voteTotalOrder: the vote comparator ("totalOrderPredicate") must be a
// strict total order over the reachable vote space — the votes LOOKING
// nodes currently hold plus the vote every up node would cast on its next
// election, (node id, last zxid). For every distinct pair, exactly one
// direction may supersede. The buggy comparator makes two votes whose
// zxids cross epochs supersede each other, so elections oscillate and
// never settle (ZOOKEEPER-1419).
func (m *Machine) voteTotalOrder(st spec.State) error {
	s := st.(*State)
	// At most two votes per node. The lists live on the stack up to the
	// arity the orbit buffers assume (append moves them to the heap beyond
	// it): this runs once per fresh state.
	var voteBuf [2 * orbitMaxNodes]Vote
	var ownerBuf [2 * orbitMaxNodes]int
	votes, owner := voteBuf[:0], ownerBuf[:0]
	for i := 0; i < s.n; i++ {
		if !s.Up.Has(i) {
			continue
		}
		if s.ZState[i] == Looking {
			votes = append(votes, s.Vote[i])
			owner = append(owner, i)
		}
		e, c := s.lastZxid(i)
		votes = append(votes, Vote{Leader: i, Epoch: e, Counter: c})
		owner = append(owner, i)
	}
	for x := range votes {
		for y := x + 1; y < len(votes); y++ {
			a, b := votes[x], votes[y]
			if a == b {
				continue
			}
			ab, ba := m.Supersedes(a, b), m.Supersedes(b, a)
			if ab == ba {
				return fmt.Errorf("votes %s (node %d) and %s (node %d) are not totally ordered (a>b=%v, b>a=%v)",
					a, owner[x], b, owner[y], ab, ba)
			}
		}
	}
	return nil
}

// oneLeaderPerEpoch: two activated leaders never share an established epoch.
func (m *Machine) oneLeaderPerEpoch(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if !s.Up.Has(i) || s.ZState[i] != Leading || !s.Activated.Has(i) {
			continue
		}
		for j := i + 1; j < s.n; j++ {
			if s.Up.Has(j) && s.ZState[j] == Leading && s.Activated.Has(j) && s.PendEpoch[i] == s.PendEpoch[j] {
				return fmt.Errorf("nodes %d and %d both lead epoch %d", i, j, s.PendEpoch[i])
			}
		}
	}
	return nil
}

// committedConsistency: every node's committed prefix agrees with the ghost
// committed transaction sequence.
func (m *Machine) committedConsistency(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if !s.Up.Has(i) {
			continue
		}
		hi := s.Commit[i]
		if hi > len(s.Committed) {
			hi = len(s.Committed)
		}
		for idx := 1; idx <= hi; idx++ {
			if s.History[i][idx-1] != s.Committed[idx-1] {
				return fmt.Errorf("node %d committed txn %d is %d.%d:%s, cluster committed %d.%d:%s",
					i, idx, s.History[i][idx-1].Epoch, s.History[i][idx-1].Counter, s.History[i][idx-1].Value,
					s.Committed[idx-1].Epoch, s.Committed[idx-1].Counter, s.Committed[idx-1].Value)
			}
		}
	}
	return nil
}

// historyZxidOrder: zxids within each history are strictly increasing.
func (m *Machine) historyZxidOrder(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		h := s.History[i]
		for k := 1; k < len(h); k++ {
			prev, cur := h[k-1], h[k]
			if cur.Epoch < prev.Epoch || (cur.Epoch == prev.Epoch && cur.Counter <= prev.Counter) {
				return fmt.Errorf("node %d history not zxid-ordered at %d: %d.%d after %d.%d",
					i, k, cur.Epoch, cur.Counter, prev.Epoch, prev.Counter)
			}
		}
	}
	return nil
}

// commitWithinHistory: a node never commits past its history.
func (m *Machine) commitWithinHistory(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		if s.Commit[i] > len(s.History[i]) {
			return fmt.Errorf("node %d committed %d beyond history length %d", i, s.Commit[i], len(s.History[i]))
		}
	}
	return nil
}
