package trace

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// TestSchemaLayout pins the slot order: per-node fields for nodes 0…n-1,
// then the channels, then the globals, and an extension's fields after all
// of its base's slots.
func TestSchemaLayout(t *testing.T) {
	s := NewSchema(3, []string{"role", "term"}, []string{"counters"})
	want := []string{"role[0]", "role[1]", "role[2]", "term[0]", "term[1]", "term[2]",
		"net[0->1]", "net[0->2]", "net[1->0]", "net[1->2]", "net[2->0]", "net[2->1]", "counters"}
	var got []string
	for i := 0; i < s.Len(); i++ {
		got = append(got, s.Key(i))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("keys = %v\nwant %v", got, want)
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src != dst {
				if k := s.Key(s.Net(src, dst)); k != fmt.Sprintf("net[%d->%d]", src, dst) {
					t.Errorf("Net(%d, %d) is slot of %q", src, dst, k)
				}
			}
		}
	}
	if s.Field("term") != 3 || s.Field("kv") != -1 {
		t.Errorf("Field(term) = %d, Field(kv) = %d", s.Field("term"), s.Field("kv"))
	}
	if NewSchema(3, []string{"role", "term"}, []string{"counters"}) != s {
		t.Error("equal schemas are not shared")
	}

	e := s.With([]string{"status", "term", "kv"})
	if s.With([]string{"term"}) != s || s.With([]string{"status", "kv"}) != e {
		t.Error("With does not return the base, or the cached extension")
	}
	if e.Len() != s.Len()+6 || e.Key(s.Len()) != "status[0]" || e.Key(e.Len()-1) != "kv[2]" {
		t.Fatalf("extension appends %v", e.Fields())
	}
	for i := 0; i < s.Len(); i++ {
		if e.Key(i) != s.Key(i) {
			t.Fatalf("extension moved slot %d: %q, base %q", i, e.Key(i), s.Key(i))
		}
	}
}

// TestSchemaDiffAbsentRule pins the comparison rule: a key rendered on one
// side only is never compared, a rendered "" is a value and is compared,
// masked keys are skipped, and the diverging keys come back sorted.
func TestSchemaDiffAbsentRule(t *testing.T) {
	s := NewSchema(2, []string{"x", "a"}, []string{"g"})
	spec := s.Slots(nil, map[string]string{"x[0]": "1", "x[1]": "2", "a[0]": "", "a[1]": "7", "g": "spec only"})
	impl := s.Slots(nil, map[string]string{"x[0]": "1", "x[1]": "9", "a[0]": "0", "net[0->1]": "3"})

	if got, want := s.Diff(spec, impl, nil), []string{"a[0]", "x[1]"}; !slices.Equal(got, want) {
		t.Errorf("Diff = %v, want %v (a[1], g and net[0->1] are rendered on one side only)", got, want)
	}
	if got := s.Diff(spec, impl, s.Mask([]string{"x[1]", "no such key"})); !slices.Equal(got, []string{"a[0]"}) {
		t.Errorf("masked Diff = %v, want [a[0]]", got)
	}
	if s.Mask([]string{"no such key"}) != nil {
		t.Error("a mask of no schema key is not nil")
	}
	empty := s.Slots(nil, map[string]string{"a[0]": ""})
	if got := s.Diff(spec, empty, nil); got != nil {
		t.Errorf("equal empty strings diverge: %v", got)
	}
	if got := s.Diff(empty, s.Clear(nil), nil); got != nil {
		t.Errorf("a rendered \"\" diverges from an absent slot: %v", got)
	}
}

// TestSchemaMapRoundTrip: a map of schema keys goes to slots and back
// unchanged, "" included; keys outside the schema are dropped.
func TestSchemaMapRoundTrip(t *testing.T) {
	s := NewSchema(2, []string{"x"}, []string{"g"})
	m := map[string]string{"x[0]": "", "net[1->0]": "4", "g": "v"}
	if got := s.Map(s.Slots(nil, m)); !maps.Equal(got, m) {
		t.Errorf("round trip = %v, want %v", got, m)
	}
	m["y[0]"] = "outside"
	if got := s.Map(s.Slots(nil, m)); len(got) != 3 {
		t.Errorf("a key outside the schema survived: %v", got)
	}
	reused := s.Slots(nil, map[string]string{"x[1]": "stale"})
	if got := s.Map(s.Slots(reused, map[string]string{"g": "v"})); !maps.Equal(got, map[string]string{"g": "v"}) {
		t.Errorf("refilled vector kept a stale slot: %v", got)
	}
}
