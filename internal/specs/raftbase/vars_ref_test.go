package raftbase

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// VarsReference is the fmt-based rendering Vars replaced, kept as the
// reference its key tables and strconv appends are held to byte for byte.
func VarsReference(st spec.State) map[string]string {
	s := st.(*State)
	m := make(map[string]string)
	for i := 0; i < s.n; i++ {
		if s.durability {
			m[fmt.Sprintf("durTerm[%d]", i)] = strconv.Itoa(s.durTerm(i))
			m[fmt.Sprintf("durVote[%d]", i)] = strconv.Itoa(s.durVote(i))
			m[fmt.Sprintf("durLog[%d]", i)] = refFormatLog(s.entries(nil, durLog(s.n, i)))
		}
		if !s.Up().Has(i) {
			m[fmt.Sprintf("status[%d]", i)] = "crashed"
			continue
		}
		m[fmt.Sprintf("status[%d]", i)] = "up"
		m[fmt.Sprintf("role[%d]", i)] = roleString(s.role(i))
		m[fmt.Sprintf("term[%d]", i)] = strconv.Itoa(s.term(i))
		m[fmt.Sprintf("votedFor[%d]", i)] = strconv.Itoa(s.votedFor(i))
		m[fmt.Sprintf("log[%d]", i)] = refFormatLog(s.entries(nil, i))
		m[fmt.Sprintf("commit[%d]", i)] = strconv.Itoa(s.commit(i))
		if s.snapshots {
			m[fmt.Sprintf("snapshot[%d]", i)] = fmt.Sprintf("%d@%d", s.snapIdx(i), s.snapTerm(i))
		}
		if s.role(i) == Leader {
			m[fmt.Sprintf("next[%d]", i)] = refFormatPeerInts(s.rowOrNil(nil, nextAt(s.n), i, s.hasNext(i)), i)
			m[fmt.Sprintf("match[%d]", i)] = refFormatPeerInts(s.rowOrNil(nil, matchAt(s.n), i, s.hasMatch(i)), i)
		} else {
			m[fmt.Sprintf("next[%d]", i)] = "-"
			m[fmt.Sprintf("match[%d]", i)] = "-"
		}
		if s.role(i) == Candidate {
			var ids []string
			for j := 0; j < s.n; j++ {
				if s.votes(i).Has(j) {
					ids = append(ids, strconv.Itoa(j))
				}
			}
			m[fmt.Sprintf("votes[%d]", i)] = "{" + strings.Join(ids, " ") + "}"
		} else {
			m[fmt.Sprintf("votes[%d]", i)] = "-"
		}
	}
	for src := 0; src < s.n; src++ {
		for dst := 0; dst < s.n; dst++ {
			if src == dst {
				continue
			}
			m[fmt.Sprintf("net[%d->%d]", src, dst)] = strconv.Itoa(s.QueueLen(src, dst))
		}
	}
	if lr := s.lastRead(); s.kv && lr.Key != "" && s.Up().Has(lr.Node) {
		m[fmt.Sprintf("lastRead[%d]", lr.Node)] = lr.Key + "=" + lr.Val
	}
	c := s.Counters
	m["counters"] = fmt.Sprintf("timeouts=%d crashes=%d restarts=%d requests=%d partitions=%d drops=%d dups=%d dirty=%d",
		c.Timeouts, c.Crashes, c.Restarts, c.Requests, c.Partitions, c.Drops, c.Duplicates, c.DirtyCrashes)
	m["violation"] = s.Viol.Flag
	return m
}

func refFormatLog(log []Entry) string {
	if len(log) == 0 {
		return "[]"
	}
	parts := make([]string, len(log))
	for i, e := range log {
		parts[i] = fmt.Sprintf("%d:%s", e.Term, e.Value)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func refFormatPeerInts(vals []int, self int) string {
	parts := make([]string, 0, len(vals))
	for i, v := range vals {
		if i == self {
			parts = append(parts, "_")
			continue
		}
		parts = append(parts, strconv.Itoa(v))
	}
	return "[" + strings.Join(parts, " ") + "]"
}
