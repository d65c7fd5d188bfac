package trace

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Absent fills a schema slot that a rendering does not hold: a per-node
// variable of a crashed node, a variable only the other side renders. It is
// a marker, not a value: no renderer produces it, while a rendered "" is a
// value like any other and is compared.
const Absent = "\x00absent"

// Schema is the slot vocabulary of conformance: it fixes the order of every
// key a rendering of an n-node system can hold — each per-node field for
// nodes 0…n-1, then net[src->dst] for every channel, then the global
// variables — so that a renderer fills a []string in that order instead of
// building a map, and two renderings in one schema compare slot by slot.
// Per-node fields added by With follow that layout, so a rendering in a
// schema is also one in every extension of it (with the new slots Absent).
//
// Schemas are cached by content and shared: treat one as read-only, and
// compare two by pointer.
type Schema struct {
	n      int
	keys   []string       // slot -> key
	slots  map[string]int // key -> slot
	fields []string       // per-node fields, in slot order
	field  map[string]int // field -> slot of field[0]; field[i] is at +i
	net    int            // slot of the first channel
	id     string         // cache key
}

var schemas = struct {
	mu sync.Mutex
	m  map[string]*Schema
}{m: make(map[string]*Schema)}

// NewSchema returns the schema of an n-node rendering with the given
// per-node fields and globals, in that order.
func NewSchema(n int, fields, globals []string) *Schema {
	id := strconv.Itoa(n) + "\x00" + strings.Join(fields, ",") + "\x00" + strings.Join(globals, ",")
	return cached(id, func() *Schema {
		s := &Schema{n: n, id: id, slots: make(map[string]int), field: make(map[string]int)}
		for _, f := range fields {
			s.addField(f)
		}
		s.net = len(s.keys)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					s.add("net[" + strconv.Itoa(src) + "->" + strconv.Itoa(dst) + "]")
				}
			}
		}
		for _, g := range globals {
			s.add(g)
		}
		return s
	})
}

// With returns s extended by those of fields it lacks, each for nodes
// 0…n-1, after all of s's slots; s itself when it lacks none. Conformance
// compares in the specification's schema extended by the implementation's
// fields, so a variable only the implementation renders has a slot too.
func (s *Schema) With(fields []string) *Schema {
	var extra []string
	for _, f := range fields {
		if _, ok := s.field[f]; !ok && !slices.Contains(extra, f) {
			extra = append(extra, f)
		}
	}
	if len(extra) == 0 {
		return s
	}
	id := s.id + "\x00+" + strings.Join(extra, ",")
	return cached(id, func() *Schema {
		e := &Schema{n: s.n, net: s.net, id: id, keys: slices.Clone(s.keys), fields: slices.Clone(s.fields),
			slots: maps.Clone(s.slots), field: maps.Clone(s.field)}
		for _, f := range extra {
			e.addField(f)
		}
		return e
	})
}

func cached(id string, build func() *Schema) *Schema {
	schemas.mu.Lock()
	defer schemas.mu.Unlock()
	s, ok := schemas.m[id]
	if !ok {
		s = build()
		schemas.m[id] = s
	}
	return s
}

func (s *Schema) addField(f string) {
	if _, ok := s.field[f]; ok {
		return
	}
	s.field[f] = len(s.keys)
	s.fields = append(s.fields, f)
	for i := 0; i < s.n; i++ {
		s.add(f + "[" + strconv.Itoa(i) + "]")
	}
}

func (s *Schema) add(k string) {
	s.slots[k] = len(s.keys)
	s.keys = append(s.keys, k)
}

// N is the number of nodes the schema renders.
func (s *Schema) N() int { return s.n }

// Len is the number of slots.
func (s *Schema) Len() int { return len(s.keys) }

// Key is the variable key of slot i: "name[node]", "net[src->dst]" or a
// global's name.
func (s *Schema) Key(i int) string { return s.keys[i] }

// Slot returns the slot of a variable key.
func (s *Schema) Slot(key string) (int, bool) {
	i, ok := s.slots[key]
	return i, ok
}

// Fields lists the per-node fields in slot order.
func (s *Schema) Fields() []string { return s.fields }

// Field returns the slot of per-node field name for node 0; node i's is
// that plus i. It is -1 when the schema has no such field.
func (s *Schema) Field(name string) int {
	if i, ok := s.field[name]; ok {
		return i
	}
	return -1
}

// Net returns the slot of channel src->dst (src != dst).
func (s *Schema) Net(src, dst int) int {
	i := s.net + src*(s.n-1) + dst
	if dst > src {
		i--
	}
	return i
}

// Clear returns dst resized to the schema's length with every slot Absent,
// reusing its array when it is large enough.
func (s *Schema) Clear(dst []string) []string {
	if cap(dst) < len(s.keys) {
		dst = make([]string, len(s.keys))
	}
	dst = dst[:len(s.keys)]
	for i := range dst {
		dst[i] = Absent
	}
	return dst
}

// Map is the variable map a slot vector renders: every slot that is not
// Absent, under its key. It is the one way from slots back to the map a
// written-out trace or a reported discrepancy carries.
func (s *Schema) Map(slots []string) map[string]string {
	n := 0
	for _, v := range slots {
		if v != Absent {
			n++
		}
	}
	m := make(map[string]string, n)
	for i, v := range slots {
		if v != Absent {
			m[s.keys[i]] = v
		}
	}
	return m
}

// Slots renders map m into dst (see Clear): each key the schema has goes to
// its slot, the rest stay Absent. A key outside the schema is dropped, so
// only a schema that covers every key the other side of a comparison
// renders loses nothing to the comparison.
func (s *Schema) Slots(dst []string, m map[string]string) []string {
	dst = s.Clear(dst)
	for k, v := range m {
		if i, ok := s.slots[k]; ok {
			dst[i] = v
		}
	}
	return dst
}

// Mask returns the slot mask of keys (true = not compared), or nil when the
// schema has none of them.
func (s *Schema) Mask(keys []string) []bool {
	var mask []bool
	for _, k := range keys {
		if i, ok := s.slots[k]; ok {
			if mask == nil {
				mask = make([]bool, len(s.keys))
			}
			mask[i] = true
		}
	}
	return mask
}

// Diff compares two renderings in the schema — the specification's and the
// implementation's — and returns the sorted keys at which both rendered a
// value and the values differ, skipping the slots mask sets (nil masks
// none). A key rendered on one side only is never compared (SandTable
// compares the specification variables with their implementation
// counterparts, §3.2). Only a diverging comparison allocates.
func (s *Schema) Diff(a, b []string, mask []bool) []string {
	var keys []string
	for i, va := range a {
		vb := b[i]
		if va == vb || va == Absent || vb == Absent || mask != nil && mask[i] {
			continue
		}
		keys = append(keys, s.keys[i])
	}
	sort.Strings(keys)
	return keys
}
