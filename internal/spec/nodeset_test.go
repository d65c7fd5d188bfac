package spec

import "testing"

func TestNodeSet(t *testing.T) {
	var s NodeSet
	s.Add(0)
	s.Add(5)
	s.Add(MaxNodes - 1)
	if !s.Has(0) || !s.Has(5) || !s.Has(MaxNodes-1) || s.Has(1) || s.Count() != 3 {
		t.Fatalf("after adding 0, 5 and %d: %#x", MaxNodes-1, s)
	}
	s.Del(5)
	s.Del(7) // not a member: no-op
	if s != SingleNode(0)|SingleNode(MaxNodes-1) {
		t.Fatalf("after deleting 5: %#x", s)
	}
	if got, want := (SingleNode(0) | SingleNode(2)).Permute([]int{1, 2, 0}), SingleNode(1)|SingleNode(0); got != want {
		t.Fatalf("{0,2} under 0→1, 1→2, 2→0 = %#x, want %#x", got, want)
	}
	if got := (SingleNode(2) | SingleNode(0)).String(); got != "{0 2}" || NodeSet(0).String() != "{}" {
		t.Fatalf("String: %q and %q", got, NodeSet(0).String())
	}
	if NodeSet(0).Permute(nil) != 0 {
		t.Fatal("the empty set has a member after Permute")
	}
}
