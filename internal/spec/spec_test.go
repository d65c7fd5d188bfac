package spec

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/trace"
)

func TestBudgetDoubleDoublesEveryBound(t *testing.T) {
	b := Budget{Name: "x", MaxTimeouts: 1, MaxCrashes: 2, MaxRestarts: 3, MaxRequests: 4,
		MaxPartitions: 5, MaxDrops: 6, MaxDuplicates: 7, MaxBuffer: 8, MaxCompactions: 9, MaxDepth: 10}
	d := b.Double()
	if d.MaxTimeouts != 2 || d.MaxCrashes != 4 || d.MaxRestarts != 6 || d.MaxRequests != 8 ||
		d.MaxPartitions != 10 || d.MaxDrops != 12 || d.MaxDuplicates != 14 || d.MaxBuffer != 16 ||
		d.MaxCompactions != 18 || d.MaxDepth != 20 {
		t.Errorf("double = %+v", d)
	}
	if d.Name != "xx2" {
		t.Errorf("name = %q", d.Name)
	}
	if m := b.Map(); m["MaxTimeouts"] != 1 || m["MaxBuffer"] != 8 {
		t.Errorf("map = %v", m)
	}
}

func TestCountersBudgetGates(t *testing.T) {
	b := Budget{MaxTimeouts: 1, MaxCrashes: 0}
	var c Counters
	if !c.CanTimeout(b) {
		t.Error("timeout should be allowed")
	}
	c.Timeouts++
	if c.CanTimeout(b) {
		t.Error("timeout budget should be exhausted")
	}
	if c.CanCrash(b) {
		t.Error("crash budget is zero")
	}
}

func TestCountersHashChanges(t *testing.T) {
	h1, h2 := fp.New(), fp.New()
	a, b := Counters{}, Counters{Timeouts: 1}
	a.Hash(h1)
	b.Hash(h2)
	if h1.Sum() == h2.Sum() {
		t.Error("counter difference not reflected in hash")
	}
}

func TestViolationFirstWins(t *testing.T) {
	var v Violation
	v.Set("first %d", 1)
	v.Set("second")
	if v.Flag != "first 1" {
		t.Errorf("flag = %q", v.Flag)
	}
}

func TestViolationInvariant(t *testing.T) {
	inv := ViolationInvariant(func(s State) string { return s.(fakeState).flag })
	if err := inv.Check(fakeState{}); err != nil {
		t.Errorf("clean state flagged: %v", err)
	}
	err := inv.Check(fakeState{flag: "boom"})
	if err == nil || !errors.Is(err, err) || err.Error() != "boom" {
		t.Errorf("err = %v", err)
	}
}

type fakeState struct{ flag string }

func (f fakeState) Fingerprint() uint64   { return 0 }
func (f fakeState) Schema() *trace.Schema { return trace.NewSchema(0, nil, []string{"flag"}) }
func (f fakeState) VarSlots(dst []string) { dst[0] = f.flag }

func TestPermutationsCountAndUniqueness(t *testing.T) {
	fact := []int{1, 1, 2, 6, 24, 120}
	for n := 0; n <= 5; n++ {
		perms := PermTableFor(n).All
		if len(perms) != fact[n] {
			t.Fatalf("n=%d: %d perms, want %d", n, len(perms), fact[n])
		}
		seen := map[string]bool{}
		for _, p := range perms {
			key := ""
			for _, v := range p {
				key += string(rune('0' + v))
			}
			if seen[key] {
				t.Fatalf("duplicate permutation %v", p)
			}
			seen[key] = true
		}
	}
}

func TestQuickPermutationsAreBijections(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%5 + 1
		for _, p := range PermTableFor(n).All {
			seen := make([]bool, n)
			for _, v := range p {
				if v < 0 || v >= n || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Nodes != 3 || len(c.Workload) != 2 {
		t.Errorf("default config = %+v", c)
	}
}
