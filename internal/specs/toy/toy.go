// Package toy provides small, exactly-analysable specifications used to test
// the explorer and to demo the workflow in examples/quickstart.
//
// LostUpdate models the classic read-modify-write race: n processes each
// increment a shared counter non-atomically (read into a local register,
// then write register+1 back). The safety property — when every process has
// finished, the counter equals n — is violated whenever two reads interleave
// before the corresponding writes. The model is fully symmetric in the
// processes, has a small exactly-countable state space, and a minimal
// counterexample of depth 4, which makes it ideal for asserting explorer
// behaviour precisely.
package toy

import (
	"encoding/binary"
	"fmt"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// pc values for each process.
const (
	pcIdle = iota // has not read yet
	pcRead        // holds the old counter value in its register
	pcDone        // has written back
)

// LostUpdateState is the toy machine's state.
type LostUpdateState struct {
	Mem   int
	Local []int
	PC    []int
	// ints is the array cloneInto carved Local and PC from, kept so that
	// recycling the state reuses it.
	ints []int
}

// Fingerprint implements spec.State: the identity-permutation combine of
// the orbit decomposition (see OrbitDigests), so the flat hash and the
// incremental min-of-orbit share one layout by construction.
func (s *LostUpdateState) Fingerprint() uint64 {
	var buf spec.DigestBuf
	node, edge := buf.Slices(len(s.PC))
	id := spec.IdentityPerm(len(s.PC))
	return s.OrbitCombine(node, edge, s.OrbitDigests(node, edge), id, id)
}

// OrbitDigests implements spec.Orbit: each process's local component
// (register, pc) goes into node. The model has no per-pair state, no
// node-id-valued fields and one shared variable, which OrbitCombine writes
// itself, so edge is untouched and the global digest is zero.
func (s *LostUpdateState) OrbitDigests(node, edge []uint64) uint64 {
	var h fp.Hasher
	for i := range node {
		h.Reset()
		h.WriteInt(s.Local[i])
		h.WriteInt(s.PC[i])
		node[i] = h.Sum()
	}
	return 0
}

// OrbitCombine implements spec.Orbit: the node digests in permuted slot
// order (inv[j] = the original process in slot j) plus the shared counter.
func (s *LostUpdateState) OrbitCombine(node, edge []uint64, global uint64, perm, inv []int) uint64 {
	var h fp.Hasher
	h.Reset()
	for j := range node {
		h.WriteDigest(node[inv[j]])
	}
	h.WriteInt(s.Mem)
	return h.Sum()
}

// Vars implements spec.State.
func (s *LostUpdateState) Vars() map[string]string {
	m := map[string]string{"mem": fmt.Sprint(s.Mem)}
	for i := range s.PC {
		m[fmt.Sprintf("pc[%d]", i)] = fmt.Sprint(s.PC[i])
		m[fmt.Sprintf("local[%d]", i)] = fmt.Sprint(s.Local[i])
	}
	return m
}

// cloneInto copies s into dst, reusing dst's array, and returns dst; a nil
// dst is replaced by a fresh state, and dst must not be s.
func (s *LostUpdateState) cloneInto(dst *LostUpdateState) *LostUpdateState {
	// Local and PC share one backing array (exact-cap subslices): two copies,
	// one allocation. Neither slice is ever appended to, so the shared
	// backing can never alias across fields.
	n := len(s.PC)
	if dst == nil {
		dst = new(LostUpdateState)
	}
	ints := dst.ints
	if cap(ints) < 2*n {
		ints = make([]int, 2*n)
	}
	ints = ints[:2*n]
	*dst = LostUpdateState{Mem: s.Mem, Local: ints[0:n:n], PC: ints[n : 2*n : 2*n], ints: ints}
	copy(dst.Local, s.Local)
	copy(dst.PC, s.PC)
	return dst
}

// LostUpdate is the machine. Atomic=true fixes the race (read and write
// become one action), which makes the model a useful fix-validation demo.
type LostUpdate struct {
	N      int
	Atomic bool
}

// Name implements spec.Machine.
func (m *LostUpdate) Name() string { return "toy-lostupdate" }

// Init implements spec.Machine.
func (m *LostUpdate) Init() []spec.State {
	return []spec.State{&LostUpdateState{Local: make([]int, m.N), PC: make([]int, m.N)}}
}

// Next implements spec.Machine.
func (m *LostUpdate) Next(st spec.State) []spec.Succ {
	return m.AppendNext(st, nil)
}

// AppendNext implements spec.BufferedMachine (successors appended to a
// caller-owned scratch buffer, each built in the dead state its slot holds;
// see spec.BufferedMachine).
func (m *LostUpdate) AppendNext(st spec.State, buf []spec.Succ) []spec.Succ {
	s := st.(*LostUpdateState)
	out := buf
	clone := func() *LostUpdateState { return s.cloneInto(spec.Dead[*LostUpdateState](out)) }
	for i := 0; i < m.N; i++ {
		switch s.PC[i] {
		case pcIdle:
			n := clone()
			if m.Atomic {
				n.Mem++
				n.PC[i] = pcDone
				out = append(out, succ("IncAtomic", i, n))
			} else {
				n.Local[i] = s.Mem
				n.PC[i] = pcRead
				out = append(out, succ("Read", i, n))
			}
		case pcRead:
			n := clone()
			n.Mem = s.Local[i] + 1
			n.Local[i] = 0 // register is dead after the write; normalise it
			n.PC[i] = pcDone
			out = append(out, succ("Write", i, n))
		}
	}
	return out
}

func succ(action string, node int, s spec.State) spec.Succ {
	return spec.Succ{
		Event: trace.Event{Type: trace.EvInternal, Action: action, Node: node},
		State: s,
	}
}

// Actions implements spec.ActionLister: the declared action vocabulary,
// conditioned on the Atomic switch (the atomic fix removes Read/Write and
// adds IncAtomic).
func (m *LostUpdate) Actions() []string {
	if m.Atomic {
		return []string{"IncAtomic"}
	}
	return []string{"Read", "Write"}
}

// Invariants implements spec.Machine: when every process is done, the
// counter must equal N.
func (m *LostUpdate) Invariants() []spec.Invariant {
	return []spec.Invariant{{
		Name: "NoLostUpdate",
		Check: func(st spec.State) error {
			s := st.(*LostUpdateState)
			for _, pc := range s.PC {
				if pc != pcDone {
					return nil
				}
			}
			if s.Mem != m.N {
				return fmt.Errorf("all processes done but mem = %d, want %d", s.Mem, m.N)
			}
			return nil
		},
	}}
}

// NumNodes implements spec.Symmetric.
func (m *LostUpdate) NumNodes() int { return m.N }

// Permute implements spec.Symmetric.
func (m *LostUpdate) Permute(st spec.State, perm []int) spec.State {
	s := st.(*LostUpdateState)
	n := &LostUpdateState{Mem: s.Mem, Local: make([]int, m.N), PC: make([]int, m.N)}
	for i := 0; i < m.N; i++ {
		n.Local[perm[i]] = s.Local[i]
		n.PC[perm[i]] = s.PC[i]
	}
	return n
}

// OrbitFingerprint implements spec.OrbitHasher.
func (m *LostUpdate) OrbitFingerprint(st spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) (uint64, bool) {
	return spec.OrbitMin(st.(*LostUpdateState), perms, scratch)
}

// AppendState implements spec.StateCodec: Mem then the per-process Local and
// PC registers as varints. The process count comes from the machine, so the
// encoding carries no lengths.
func (m *LostUpdate) AppendState(dst []byte, st spec.State) []byte {
	s := st.(*LostUpdateState)
	dst = binary.AppendVarint(dst, int64(s.Mem))
	for i := 0; i < m.N; i++ {
		dst = binary.AppendVarint(dst, int64(s.Local[i]))
	}
	for i := 0; i < m.N; i++ {
		dst = binary.AppendVarint(dst, int64(s.PC[i]))
	}
	return dst
}

// DecodeState implements spec.StateCodec.
func (m *LostUpdate) DecodeState(src []byte) (spec.State, []byte, error) {
	next := func() (int, error) {
		v, n := binary.Varint(src)
		if n <= 0 {
			return 0, fmt.Errorf("toy: truncated state encoding")
		}
		src = src[n:]
		return int(v), nil
	}
	mem, err := next()
	if err != nil {
		return nil, nil, err
	}
	ints := make([]int, 2*m.N)
	s := &LostUpdateState{Mem: mem, Local: ints[0:m.N:m.N], PC: ints[m.N : 2*m.N : 2*m.N]}
	for i := 0; i < m.N; i++ {
		if s.Local[i], err = next(); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < m.N; i++ {
		if s.PC[i], err = next(); err != nil {
			return nil, nil, err
		}
	}
	return s, src, nil
}
