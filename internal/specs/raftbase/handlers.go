package raftbase

import (
	"sort"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// syncDurable is the specification-level fsync: everything node i has
// written so far (term, vote, log) becomes crash-durable. The
// implementations persist hard state (term/vote) synchronously, and a sync
// flushes the whole write journal, so any earlier unsynced log write
// becomes durable here too — which is why the mirror copies all three.
// No-op unless the budget enables the durability fault model.
func (m *Machine) syncDurable(s *State, i int) {
	if !s.durability {
		return
	}
	s.put(fDurTerm, i, s.term(i))
	s.put(fDurVote, i, s.votedFor(i))
	s.setRegion(durLog(s.n, i), s, i)
}

// persistLog mirrors the implementations' log-persistence path: write the
// log and fsync. Under the unsynced-log defect (GoSyncObj#6) the write is
// buffered but never synced, so the durable mirrors do not advance — the
// log write sits in the journal until a later hard-state sync flushes it,
// and a dirty crash in between loses it.
func (m *Machine) persistLog(s *State, i int) {
	if m.opt.Profile == GoSyncObj && m.bug(bugdb.GSOUnsyncedLog) {
		return
	}
	m.syncDurable(s, i)
}

// electionTimeout fires the election timer of non-leader node i: it starts
// a (pre-)election, mirroring the implementations' Tick paths.
func (m *Machine) electionTimeout(s *State, i int) {
	if m.opt.PreVote {
		m.startPreVote(s, i)
		return
	}
	m.startElection(s, i)
}

func (m *Machine) startPreVote(s *State, i int) {
	s.setRole(i, PreCandidate)
	s.setPreVotes(i, spec.SingleNode(i))
	for p := 0; p < m.n; p++ {
		if p == i {
			continue
		}
		s.Send(i, p, mustPack(Msg{Type: "rv", Term: s.term(i) + 1, Pre: true, LastIndex: s.lastIndex(i), LastTerm: s.logTerm(i, s.lastIndex(i))}))
	}
	m.maybeWinPreVote(s, i)
}

func (m *Machine) startElection(s *State, i int) {
	s.setRole(i, Candidate)
	s.setTerm(i, s.term(i)+1)
	s.setVotedFor(i, i)
	s.setPreVotes(i, 0)
	s.setVotes(i, spec.SingleNode(i))
	m.syncDurable(s, i) // implementations persist hard state before campaigning
	for p := 0; p < m.n; p++ {
		if p == i {
			continue
		}
		s.Send(i, p, mustPack(Msg{Type: "rv", Term: s.term(i), LastIndex: s.lastIndex(i), LastTerm: s.logTerm(i, s.lastIndex(i))}))
	}
	m.maybeWinElection(s, i)
}

func (m *Machine) maybeWinPreVote(s *State, i int) {
	if s.role(i) == PreCandidate && s.preVotes(i).Count() >= m.quorum() {
		m.startElection(s, i)
	}
}

func (m *Machine) maybeWinElection(s *State, i int) {
	if s.role(i) == Candidate && s.votes(i).Count() >= m.quorum() {
		m.becomeLeader(s, i)
	}
}

func (m *Machine) becomeLeader(s *State, i int) {
	s.setRole(i, Leader)
	s.setVotes(i, 0)
	s.setPreVotes(i, 0)
	s.setRows(i, true)
	for p := 0; p < m.n; p++ {
		s.setNext(i, p, s.lastIndex(i)+1)
	}
	s.setMatch(i, i, s.lastIndex(i))
	m.broadcastAppend(s, i)
}

// stepDown adopts a higher term and reverts to follower.
func (m *Machine) stepDown(s *State, i, term int) {
	s.setTerm(i, term)
	s.setRole(i, Follower)
	s.setVotedFor(i, -1)
	s.setVotes(i, 0)
	s.setPreVotes(i, 0)
	s.setRows(i, false)
	m.syncDurable(s, i) // the adopted term is persisted synchronously
}

// yieldToLeader makes a same-term candidate revert to follower while
// keeping its vote.
func (m *Machine) yieldToLeader(s *State, i int) {
	if s.role(i) != Follower {
		s.setRole(i, Follower)
		s.setVotes(i, 0)
		s.setPreVotes(i, 0)
		s.setRows(i, false)
	}
}

// broadcastAppend sends replication traffic to every connected peer (the
// heartbeat body). The conformance-stage CRaft#8 defect (loop break on the
// first disconnected peer) lives only in the implementation; the
// specification models the intended behaviour.
func (m *Machine) broadcastAppend(s *State, i int) {
	for p := 0; p < m.n; p++ {
		if p == i || s.Cut(i).Has(p) {
			continue
		}
		m.sendAppend(s, i, p, false)
	}
}

// sendAppend sends one AppendEntries (or InstallSnapshot) to peer p.
func (m *Machine) sendAppend(s *State, i, p int, retry bool) {
	ni := s.next(i, p)
	if ni < 1 {
		ni = 1
	}
	if m.opt.Snapshots && ni <= s.snapIdx(i) {
		if m.bug(bugdb.CRaftAEInsteadOfSnapshot) {
			// BUG(CRaft#2): the compacted case falls through to the
			// AppendEntries path: the prefix the follower needs is gone, so
			// the message carries no entries but still advertises the
			// leader's commit index (Figure 7). The specification asserts
			// the snapshot obligation the way the system's own source
			// assertion would (§3.1: properties come from code assertions
			// too), so model checking flags the send.
			s.Viol.Set("AppendEntries sent where snapshot transfer is required (leader %d, follower %d, next=%d, snapshot=%d)", i, p, ni, s.snapIdx(i))
			s.Send(i, p, mustPack(Msg{Type: "ae", Term: s.term(i), PrevIndex: ni - 1, PrevTerm: s.logTerm(i, ni-1), Commit: s.commit(i), Retry: retry}))
			return
		}
		s.Send(i, p, mustPack(Msg{Type: "snap", Term: s.term(i), SnapIndex: s.snapIdx(i), SnapTerm: s.snapTerm(i)}))
		s.setNext(i, p, s.snapIdx(i)+1)
		return
	}
	prev := ni - 1
	entries := s.poolLog(i, ni)
	if retry && entries.N == 0 && m.bug(bugdb.CRaftEmptyRetry) {
		// BUG(CRaft#5): the retry after a rejection carries an empty log —
		// the follower still needs synchronisation, so the retry is useless
		// and the system churns. The system-specific safety property
		// "retrying requests must not contain an empty log" flags it.
		s.Viol.Set("retry message includes empty log (leader %d -> follower %d, next=%d)", i, p, ni)
	}
	s.Send(i, p, mustPack(Msg{Type: "ae", Term: s.term(i), PrevIndex: prev, PrevTerm: s.logTerm(i, prev), Ents: entries, Commit: s.commit(i), Retry: retry}))
	if m.opt.Profile == GoSyncObj {
		// Aggressive next-index advance (PySyncObj optimisation).
		s.setNext(i, p, s.lastIndex(i)+1)
	}
}

// clientAppend appends a client value at the leader. CRaft and AsyncRaft
// replicate eagerly on entry receipt (WRaft's raft_recv_entry sends
// appendentries immediately); GoSyncObj and Xraft replicate on the next
// heartbeat.
// The value is logged by its index in the machine's vocabulary; under KV it
// is the write "x=v".
func (m *Machine) clientAppend(s *State, i int, v uint32) {
	s.push(i, s.term(i), v)
	s.setMatch(i, i, s.lastIndex(i))
	m.persistLog(s, i)
	if m.opt.Profile == CRaft || m.opt.Profile == AsyncRaft {
		m.broadcastAppend(s, i)
	}
}

// clientGet is the KV read: the leader answers from its locally applied
// state. The buggy implementation (XraftKV#1) serves any node that believes
// itself leader, so a deposed leader returns stale data; the fixed
// implementation performs the ReadIndex protocol, which getEnabled models as
// an enabling condition (quorum confirmation + applied catch-up), making the
// local read linearizable by construction.
func (m *Machine) clientGet(s *State, i int, key string) {
	got := appliedValue(s, i, key)
	want := committedValue(s, key)
	s.LastRead = &kvRead{Node: i, Key: key, Val: got, Want: want, Bad: got != want}
}

// getEnabled models when a read can complete. With the XraftKV#1 defect any
// self-styled leader answers immediately. The fixed system runs ReadIndex:
// the leader confirms leadership against a quorum of same-term reachable
// peers and waits until its applied state covers every committed write.
func (m *Machine) getEnabled(s *State, i int) bool {
	if m.bug(bugdb.XKVStaleRead) {
		return true
	}
	reachable := 1
	for p := 0; p < m.n; p++ {
		if p != i && s.Up().Has(p) && !s.Cut(i).Has(p) && s.term(p) == s.term(i) {
			reachable++
		}
	}
	return reachable >= m.quorum() && s.commit(i) >= s.count(committed(s.n))
}

// committedValue is the latest committed write to key.
func committedValue(s *State, key string) string {
	vals, r := s.vocab().vals, committed(s.n)
	for k := s.count(r) - 1; k >= 0; k-- {
		_, v := s.at(r, k)
		if kk, vv, ok := splitKV(vals[v]); ok && kk == key {
			return vv
		}
	}
	return ""
}

// appliedValue is node i's locally applied value for key (its log up to its
// own commit index).
func appliedValue(s *State, i int, key string) string {
	vals := s.vocab().vals
	for abs := s.commit(i); abs > s.snapIdx(i); abs-- {
		_, v, ok := s.entryAt(i, abs)
		if !ok {
			break
		}
		if kk, vv, ok := splitKV(vals[v]); ok && kk == key {
			return vv
		}
	}
	return ""
}

func splitKV(v string) (key, val string, ok bool) {
	for c := 0; c < len(v); c++ {
		if v[c] == '=' {
			return v[:c], v[c+1:], true
		}
	}
	return "", "", false
}

// compactLog discards the committed prefix into a snapshot (CRaft).
func (m *Machine) compactLog(s *State, i int) {
	c := s.commit(i)
	term := s.logTerm(i, c)
	s.dropPrefix(i, c-s.snapIdx(i))
	s.setSnapshot(i, c, term)
	m.syncDurable(s, i) // snapshotting rewrites the durable log synchronously
}

// extendCommitted grows the ghost committed prefix after node i's commit
// index advanced.
func (m *Machine) extendCommitted(s *State, i int) {
	for abs := s.count(committed(s.n)) + 1; abs <= s.commit(i); abs++ {
		t, v, ok := s.entryAt(i, abs)
		if !ok {
			return
		}
		s.push(committed(s.n), t, v)
	}
}

// --- Message handlers -------------------------------------------------

func (m *Machine) handleRequestVote(s *State, dst, src int, msg Msg) {
	if msg.Pre {
		m.handlePreVoteRequest(s, dst, src, msg)
		return
	}
	if msg.Term > s.term(dst) {
		m.stepDown(s, dst, msg.Term)
	}
	last := s.lastIndex(dst)
	upToDate := msg.LastTerm > s.logTerm(dst, last) ||
		(msg.LastTerm == s.logTerm(dst, last) && msg.LastIndex >= last)
	granted := msg.Term == s.term(dst) && (s.votedFor(dst) == -1 || s.votedFor(dst) == src) && upToDate
	if granted {
		s.setVotedFor(dst, src)
		m.syncDurable(s, dst) // the vote is persisted before it is answered
	}
	s.Send(dst, src, mustPack(Msg{Type: "rvr", Term: s.term(dst), Granted: granted}))
}

func (m *Machine) handlePreVoteRequest(s *State, dst, src int, msg Msg) {
	granted := msg.Term >= s.term(dst)
	if granted {
		last := s.lastIndex(dst)
		granted = msg.LastTerm > s.logTerm(dst, last) ||
			(msg.LastTerm == s.logTerm(dst, last) && msg.LastIndex >= last)
	}
	if granted && s.role(dst) == Leader {
		if m.bug(bugdb.DaosLeaderVotes) {
			// BUG(DaosRaft#1): a live leader grants pre-votes, effectively
			// voting for a competing candidate it should suppress.
			s.Viol.Set("leader %d votes for candidate %d while leading term %d", dst, src, s.term(dst))
		} else {
			granted = false
		}
	}
	s.Send(dst, src, mustPack(Msg{Type: "rvr", Term: s.term(dst), Pre: true, Granted: granted}))
}

func (m *Machine) handleRequestVoteResponse(s *State, dst, src int, msg Msg) {
	if msg.Pre {
		if msg.Term > s.term(dst) && !msg.Granted {
			m.stepDown(s, dst, msg.Term)
			return
		}
		if s.role(dst) != PreCandidate || !msg.Granted {
			return
		}
		s.setPreVotes(dst, s.preVotes(dst)|spec.SingleNode(src))
		m.maybeWinPreVote(s, dst)
		return
	}
	if msg.Term > s.term(dst) {
		m.stepDown(s, dst, msg.Term)
		return
	}
	if s.role(dst) != Candidate || !msg.Granted {
		return
	}
	if !m.bug(bugdb.XRaftStaleVotes) && msg.Term != s.term(dst) {
		// A response from an earlier election round is stale.
		return
	}
	// BUG(Xraft#1): with the flag on, granted responses are accepted
	// unconditionally — votes earned in an older term count toward the
	// current election, producing two valid leaders in the same term.
	s.setVotes(dst, s.votes(dst)|spec.SingleNode(src))
	m.maybeWinElection(s, dst)
}

func (m *Machine) handleAppendEntries(s *State, dst, src int, msg Msg) {
	if msg.Term < s.term(dst) {
		s.Send(dst, src, mustPack(Msg{Type: "aer", Term: s.term(dst), Flag: false, NextIndex: s.lastIndex(dst) + 1}))
		return
	}
	if msg.Term > s.term(dst) {
		m.stepDown(s, dst, msg.Term)
	}
	m.yieldToLeader(s, dst)

	// Log consistency check on the previous entry.
	if msg.PrevIndex > s.lastIndex(dst) ||
		(msg.PrevIndex >= 1 && msg.PrevIndex > s.snapIdx(dst) && s.logTerm(dst, msg.PrevIndex) != msg.PrevTerm) {
		if !(msg.PrevIndex == 0 && m.bug(bugdb.CRaftFirstEntryAppend)) {
			s.Send(dst, src, mustPack(Msg{Type: "aer", Term: s.term(dst), Flag: false, NextIndex: s.lastIndex(dst) + 1}))
			return
		}
	}

	if m.opt.Profile == AsyncRaft && m.bug(bugdb.ARLogErase) && msg.PrevIndex < s.lastIndex(dst) {
		// BUG(AsyncRaft#2): the follower blindly truncates everything after
		// PrevIndex before appending, erasing entries that already matched
		// (a duplicated or reordered older AppendEntries destroys newer,
		// possibly committed entries).
		s.truncateTo(dst, msg.PrevIndex)
	}

	skipConflictCheck := msg.PrevIndex == 0 && m.bug(bugdb.CRaftFirstEntryAppend)
	idx := msg.PrevIndex
	for k := 0; k < msg.Ents.N; k++ {
		// Read through the pool each time: appending to the log moves it.
		t, v := s.msgEntry(msg.Ents, k)
		idx++
		if idx <= s.lastIndex(dst) {
			if idx <= s.snapIdx(dst) {
				continue
			}
			if skipConflictCheck {
				// BUG(CRaft#1): the first-entry special case skips the
				// conflict check entirely: an existing conflicting entry
				// survives and the incoming one is ignored.
				continue
			}
			if s.logTerm(dst, idx) != t {
				s.truncateTo(dst, idx-1)
				s.push(dst, t, v)
			}
			continue
		}
		s.push(dst, t, v)
	}
	m.persistLog(s, dst)

	// Commit index update.
	var leaderCommit int
	if m.bug(bugdb.CRaftFirstEntryAppend) || m.opt.Profile == GoSyncObj {
		// GoSyncObj (and buggy CRaft) cap by the local log length.
		leaderCommit = minInt(msg.Commit, s.lastIndex(dst))
	} else {
		// The Raft rule: cap by the index of the last entry this message
		// accounted for.
		leaderCommit = minInt(msg.Commit, msg.PrevIndex+msg.Ents.N)
	}
	if m.opt.Profile == GoSyncObj && m.bug(bugdb.GSOCommitNonMonotonic) {
		// BUG(GoSyncObj#2): unconditional adoption — a freshly elected
		// leader with a lagging commit index drags the follower's back.
		if leaderCommit < s.commit(dst) {
			s.Viol.Set("commit index is not monotonic on node %d: %d -> %d", dst, s.commit(dst), leaderCommit)
		}
		s.setCommit(dst, leaderCommit)
		m.extendCommitted(s, dst)
	} else if leaderCommit > s.commit(dst) {
		s.setCommit(dst, leaderCommit)
		m.extendCommitted(s, dst)
	}

	// Success reply with the follower's next-index hint: the highest index
	// this message confirmed, plus one.
	inext := msg.PrevIndex + msg.Ents.N + 1
	if m.opt.Profile == GoSyncObj && msg.Ents.N > 0 &&
		(m.bug(bugdb.GSOMatchNonMonotonic) || m.bug(bugdb.GSONextLEMatch)) {
		// BUG(GoSyncObj#3/#4, shared root cause): off-by-one in the entries
		// branch (Fig. 6) — the hint points at the last confirmed entry
		// instead of past it.
		inext--
	}
	s.Send(dst, src, mustPack(Msg{Type: "aer", Term: s.term(dst), Flag: true, NextIndex: inext}))
}

func (m *Machine) handleAppendEntriesResponse(s *State, dst, src int, msg Msg) {
	if msg.Term > s.term(dst) {
		m.stepDown(s, dst, msg.Term)
		return
	}
	if msg.Term < s.term(dst) {
		if m.opt.Profile == CRaft && m.bug(bugdb.CRaftTermNonMonotonic) {
			// BUG(CRaft#4): a stale response drags the current term
			// backwards.
			s.Viol.Set("current term is not monotonic on node %d: %d -> %d", dst, s.term(dst), msg.Term)
			s.setTerm(dst, msg.Term)
		}
		return
	}
	if s.role(dst) != Leader {
		return
	}
	if msg.Flag {
		nm := msg.NextIndex - 1
		switch {
		case m.opt.Profile == GoSyncObj && m.bug(bugdb.GSOMatchNonMonotonic):
			// BUG(GoSyncObj#4), leader side: no monotonicity guard.
			if nm < s.match(dst, src) {
				s.Viol.Set("match index is not monotonic: leader %d follower %d: %d -> %d", dst, src, s.match(dst, src), nm)
			}
			s.setMatch(dst, src, nm)
		case m.opt.Profile == AsyncRaft && m.bug(bugdb.ARMatchNonMonotonic):
			// BUG(AsyncRaft#1): plain assignment without a check — an
			// out-of-order (UDP) older response regresses the match index.
			if nm < s.match(dst, src) {
				s.Viol.Set("match index is not monotonic: leader %d follower %d: %d -> %d", dst, src, s.match(dst, src), nm)
			}
			s.setMatch(dst, src, nm)
		default:
			if nm > s.match(dst, src) {
				s.setMatch(dst, src, nm)
			}
		}
		switch {
		case m.opt.Profile == GoSyncObj && m.bug(bugdb.GSONextLEMatch):
			// BUG(GoSyncObj#3): the next index is adopted from the (wrong)
			// hint without respecting the match index.
			s.setNext(dst, src, msg.NextIndex)
		case m.opt.Profile == GoSyncObj:
			s.setNext(dst, src, maxInt(msg.NextIndex, s.match(dst, src)+1))
		default:
			if msg.NextIndex > s.next(dst, src) {
				s.setNext(dst, src, msg.NextIndex)
			}
		}
		m.advanceCommit(s, dst)
		return
	}
	// Rejection: reset the next index from the follower's hint.
	ni := msg.NextIndex
	hasEmptyRetryFix := m.opt.Profile == CRaft && !m.bug(bugdb.CRaftEmptyRetry)
	if hasEmptyRetryFix && ni > s.lastIndex(dst) {
		ni = s.lastIndex(dst)
	}
	nextLEMatchKey := bugdb.GSONextLEMatch
	if m.opt.Profile != GoSyncObj {
		nextLEMatchKey = bugdb.CRaftNextLEMatch
	}
	if !m.bug(nextLEMatchKey) && ni < s.match(dst, src)+1 {
		ni = s.match(dst, src) + 1
	}
	// BUG(GoSyncObj#3 / CRaft#7): without the clamp above, a delayed
	// rejection drives next index <= match index (the
	// NextIndexAfterMatchIndex invariant catches the resulting state).
	s.setNext(dst, src, ni)
	if m.opt.Profile == CRaft {
		// CRaft retries immediately after a rejection.
		if m.bug(bugdb.CRaftEmptyRetry) || ni <= s.lastIndex(dst) || (m.opt.Snapshots && ni <= s.snapIdx(dst)) {
			m.sendAppend(s, dst, src, true)
		}
	}
}

func (m *Machine) handleSnapshot(s *State, dst, src int, msg Msg) {
	if msg.Term < s.term(dst) {
		s.Send(dst, src, mustPack(Msg{Type: "aer", Term: s.term(dst), Flag: false, NextIndex: s.lastIndex(dst) + 1}))
		return
	}
	if msg.Term > s.term(dst) {
		m.stepDown(s, dst, msg.Term)
	}
	m.yieldToLeader(s, dst)
	// Install: discard the log and adopt the snapshot. (The implementation's
	// CRaft#3 defect — rejecting the snapshot when the local log conflicts —
	// lives only in the implementation and is caught by conformance.)
	if msg.SnapIndex > s.snapIdx(dst) {
		if s.lastIndex(dst) >= msg.SnapIndex && s.logTerm(dst, msg.SnapIndex) != msg.SnapTerm {
			s.SnapConflictInstall = true
		}
		s.truncate(dst, 0)
		s.setSnapshot(dst, msg.SnapIndex, msg.SnapTerm)
		m.syncDurable(s, dst) // snapshot installation is synchronously durable
		if msg.SnapIndex > s.commit(dst) {
			s.setCommit(dst, msg.SnapIndex)
			m.extendCommitted(s, dst)
		}
	}
	s.Send(dst, src, mustPack(Msg{Type: "aer", Term: s.term(dst), Flag: true, NextIndex: s.lastIndex(dst) + 1}))
}

// advanceCommit recomputes the leader's commit index.
func (m *Machine) advanceCommit(s *State, i int) {
	switch m.opt.Profile {
	case GoSyncObj:
		var buf [spec.MaxNodes]int
		matches := s.appendRow(buf[:0], matchAt(s.n), i)
		matches[i] = s.lastIndex(i)
		sort.Ints(matches)
		candidate := matches[m.n-m.quorum()]
		if candidate <= s.commit(i) {
			return
		}
		if !m.bug(bugdb.GSOCommitOldTerm) && s.logTerm(i, candidate) != s.term(i) {
			return
		}
		if m.bug(bugdb.GSOCommitOldTerm) && s.logTerm(i, candidate) != s.term(i) {
			// BUG(GoSyncObj#5): the current-term commitment rule is
			// skipped; the leader commits entries of older terms.
			s.Viol.Set("leader %d commits entry %d of older term %d (current %d)", i, candidate, s.logTerm(i, candidate), s.term(i))
		}
		s.setCommit(i, candidate)
		m.extendCommitted(s, i)
	case AsyncRaft:
		loopBreak := m.bug(bugdb.ARCommitLoopBreak)
		last := s.lastIndex(i)
		newCommit := s.commit(i)
		for idx := s.commit(i) + 1; idx <= last; idx++ {
			if s.logTerm(i, idx) != s.term(i) {
				if loopBreak {
					// BUG(AsyncRaft#4): the commitment-checking loop stops
					// at the first old-term entry instead of skipping it.
					break
				}
				continue
			}
			if m.matchQuorum(s, i, idx) {
				newCommit = idx
			}
		}
		if newCommit > s.commit(i) {
			s.setCommit(i, newCommit)
			m.extendCommitted(s, i)
		}
		if loopBreak {
			// Safety approximation of the liveness failure: flag when a
			// committable entry was skipped by the premature break.
			for idx := last; idx > s.commit(i); idx-- {
				if s.logTerm(i, idx) == s.term(i) && m.matchQuorum(s, i, idx) {
					s.Viol.Set("leader %d prematurely stopped commitment check before index %d", i, idx)
					break
				}
			}
		}
	default: // CRaft, Xraft: scan downward for the highest committable index.
		for idx := s.lastIndex(i); idx > s.commit(i); idx-- {
			if s.logTerm(i, idx) != s.term(i) {
				break
			}
			if m.matchQuorum(s, i, idx) {
				s.setCommit(i, idx)
				m.extendCommitted(s, i)
				break
			}
		}
	}
}

// matchQuorum reports whether index idx is replicated on a quorum.
func (m *Machine) matchQuorum(s *State, i, idx int) bool {
	count := 1 // the leader itself
	for p := 0; p < m.n; p++ {
		if p != i && s.match(i, p) >= idx {
			count++
		}
	}
	return count >= m.quorum()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
