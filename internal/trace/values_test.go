package trace_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
	"github.com/sandtable-go/sandtable/internal/systems/gosyncobj"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// The fmt-based references below are written independently of the shared
// renderers, which every spec and implementation now call: conformance can no
// longer see a rendering bug, so these tests (and each spec's
// TestVarsMatchReference) are what hold the rendered bytes.

func refLog(log []raftbase.Entry) string {
	parts := make([]string, len(log))
	for i, e := range log {
		parts[i] = fmt.Sprintf("%d:%s", e.Term, e.Value)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func refHistory(h []zabkeeper.Txn) string {
	parts := make([]string, len(h))
	for i, t := range h {
		parts[i] = fmt.Sprintf("%d.%d:%s", t.Epoch, t.Counter, t.Value)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func refPeerRow(vals []int, self int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
		if i == self {
			parts[i] = "_"
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func refIDSet(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func TestLogMatchesReference(t *testing.T) {
	for _, log := range [][]raftbase.Entry{
		nil,
		{{Term: 1, Value: "a"}},
		{{Term: 1, Value: "a"}, {Term: 2, Value: "b"}, {Term: 2, Value: ""}},
		{{Term: 12, Value: "v10"}, {Term: 345, Value: "long-value"}, {Term: 6789, Value: "x"}},
	} {
		if got, want := trace.Log(log), refLog(log); got != want {
			t.Errorf("Log(%v) = %q, want %q", log, got, want)
		}
	}
}

// TestFormatLog renders an implementation's own Entry type, as Observe does.
func TestFormatLog(t *testing.T) {
	if got := trace.Log([]gosyncobj.Entry(nil)); got != "[]" {
		t.Errorf("empty log = %q", got)
	}
	if got := trace.Log([]gosyncobj.Entry{{Term: 1, Value: "a"}, {Term: 2, Value: "b"}}); got != "[1:a 2:b]" {
		t.Errorf("log = %q", got)
	}
}

func TestHistoryMatchesReference(t *testing.T) {
	for _, h := range [][]zabkeeper.Txn{
		nil,
		{{Epoch: 1, Counter: 1, Value: "a"}},
		{{Epoch: 1, Counter: 9, Value: "a"}, {Epoch: 12, Counter: 345, Value: "bc"}, {Epoch: 6789, Counter: 10, Value: ""}},
	} {
		if got, want := trace.History(h), refHistory(h); got != want {
			t.Errorf("History(%v) = %q, want %q", h, got, want)
		}
	}
}

func TestPeerRowMatchesReference(t *testing.T) {
	for _, c := range []struct {
		vals []int
		self int
	}{
		{[]int{4, 5, 6}, 0},
		{[]int{4, 5, 6}, 1},
		{[]int{4, 5, 6}, 2},
		{[]int{-1, 10, 0, 123, 7}, 2},
		{[]int{1, -1}, 0},
		{[]int{11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 10},
	} {
		if got, want := trace.PeerRow(c.vals, c.self), refPeerRow(c.vals, c.self); got != want {
			t.Errorf("PeerRow(%v, %d) = %q, want %q", c.vals, c.self, got, want)
		}
	}
}

// TestIDSetShapesAgree renders each id set from all three shapes a side keeps
// one in — a spec's NodeSet, an implementation's map of voters and its row of
// booleans — and holds each to the reference.
func TestIDSetShapesAgree(t *testing.T) {
	for _, ids := range [][]int{nil, {0}, {2}, {0, 2}, {1, 2, 3}, {3, 10, 11}, {0, 9, 10, 63}} {
		var set spec.NodeSet
		votes := map[int]bool{}
		var row []bool
		for _, id := range ids {
			set.Add(id)
			votes[id] = true
			for len(row) <= id {
				row = append(row, false)
			}
			row[id] = true
		}
		want := refIDSet(ids)
		if got := set.String(); got != want {
			t.Errorf("NodeSet %v = %q, want %q", ids, got, want)
		}
		if got := trace.IDSet(trace.MapIDs(votes)); got != want {
			t.Errorf("map %v = %q, want %q", ids, got, want)
		}
		if got := trace.IDSet(trace.BoolIDs(row)); got != want {
			t.Errorf("[]bool %v = %q, want %q", ids, got, want)
		}
	}
}

func TestVoteMatchesReference(t *testing.T) {
	for _, v := range []zabkeeper.Vote{{}, {Leader: 2, Epoch: 1, Counter: 3}, {Leader: -1, Epoch: 12, Counter: 345}} {
		want := fmt.Sprintf("%d@(%d,%d)", v.Leader, v.Epoch, v.Counter)
		if got := v.String(); got != want {
			t.Errorf("Vote %+v = %q, want %q", v, got, want)
		}
	}
}

// TestRenderersAllocateOnlyTheString: conformance renders every compared
// value at every step, so each renderer allocates its result and nothing else.
func TestRenderersAllocateOnlyTheString(t *testing.T) {
	log := []raftbase.Entry{{Term: 1, Value: "a"}, {Term: 2, Value: "b"}}
	h := []zabkeeper.Txn{{Epoch: 1, Counter: 1, Value: "a"}}
	row := []int{3, 4, 5}
	votes := map[int]bool{0: true, 2: true}
	bools := []bool{true, false, true}
	var sink string
	for name, f := range map[string]func(){
		"Log":     func() { sink = trace.Log(log) },
		"History": func() { sink = trace.History(h) },
		"PeerRow": func() { sink = trace.PeerRow(row, 1) },
		"MapIDs":  func() { sink = trace.IDSet(trace.MapIDs(votes)) },
		"BoolIDs": func() { sink = trace.IDSet(trace.BoolIDs(bools)) },
		"Vote":    func() { sink = trace.Vote(2, 1, 3) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 1 {
			t.Errorf("%s: %v allocations, want 1", name, n)
		}
	}
	_ = sink
}
