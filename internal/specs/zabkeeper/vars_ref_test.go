package zabkeeper

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
		if !s.Up().Has(i) {
			m[fmt.Sprintf("status[%d]", i)] = "crashed"
			continue
		}
		m[fmt.Sprintf("status[%d]", i)] = "up"
		m[fmt.Sprintf("state[%d]", i)] = stateString(s.ZState[i])
		m[fmt.Sprintf("round[%d]", i)] = strconv.Itoa(s.Round[i])
		v := s.Vote[i]
		m[fmt.Sprintf("vote[%d]", i)] = fmt.Sprintf("%d@(%d,%d)", v.Leader, v.Epoch, v.Counter)
		m[fmt.Sprintf("epoch[%d]", i)] = strconv.Itoa(s.Epoch[i])
		m[fmt.Sprintf("history[%d]", i)] = refFormatHistory(s.History[i])
		m[fmt.Sprintf("committed[%d]", i)] = strconv.Itoa(s.Commit[i])
		m[fmt.Sprintf("leader[%d]", i)] = strconv.Itoa(s.LeaderID[i])
		if s.ZState[i] == Leading {
			var ids []string
			for j := 0; j < s.n; j++ {
				if s.Synced[i].Has(j) {
					ids = append(ids, strconv.Itoa(j))
				}
			}
			m[fmt.Sprintf("synced[%d]", i)] = "{" + strings.Join(ids, " ") + "}"
			m[fmt.Sprintf("acked[%d]", i)] = refFormatInts(s.Acked[i], i)
		} else {
			m[fmt.Sprintf("synced[%d]", i)] = "-"
			m[fmt.Sprintf("acked[%d]", i)] = "-"
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
	c := s.Counters
	m["counters"] = fmt.Sprintf("timeouts=%d crashes=%d restarts=%d requests=%d partitions=%d drops=%d dups=%d dirty=%d",
		c.Timeouts, c.Crashes, c.Restarts, c.Requests, c.Partitions, c.Drops, c.Duplicates, c.DirtyCrashes)
	m["violation"] = s.Viol.Flag
	return m
}

func refFormatHistory(h []Txn) string {
	if len(h) == 0 {
		return "[]"
	}
	parts := make([]string, len(h))
	for i, t := range h {
		parts[i] = fmt.Sprintf("%d.%d:%s", t.Epoch, t.Counter, t.Value)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func refFormatInts(vals []int, self int) string {
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
