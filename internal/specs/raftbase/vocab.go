package raftbase

import (
	"slices"
	"sync"
	"sync/atomic"
)

// vocab is the entry-value vocabulary of a machine: the values a log entry
// can hold, which a state's record stores as indexes into vals. New builds it
// from Config.Workload (as "x=v" for each v under KV), so it is a constant of
// the model instance, like the arity.
type vocab struct {
	vals []string
	idx  map[string]uint32
}

// vocabs interns every vocabulary in use, once per distinct value list, the
// way slotTables caches one slot table per arity: machines built with the
// same workload share an index, and no entry is ever changed or removed. A
// State finds its vocabulary by index (State.voc), so that its header
// carries no pointer for it. Readers load the list without the lock: it is
// only ever replaced by a longer copy.
var vocabs struct {
	mu   sync.Mutex
	list atomic.Pointer[[]*vocab]
}

// internVocab returns the index of the vocabulary holding vals, in their
// order without repeats, registering it on first use.
func internVocab(vals []string) uint32 {
	v := &vocab{idx: make(map[string]uint32, len(vals))}
	for _, x := range vals {
		if _, dup := v.idx[x]; !dup {
			v.idx[x] = uint32(len(v.vals))
			v.vals = append(v.vals, x)
		}
	}
	vocabs.mu.Lock()
	defer vocabs.mu.Unlock()
	var list []*vocab
	if p := vocabs.list.Load(); p != nil {
		list = *p
	}
	for id, w := range list {
		if slices.Equal(w.vals, v.vals) {
			return uint32(id)
		}
	}
	list = append(list[:len(list):len(list)], v)
	vocabs.list.Store(&list)
	return uint32(len(list) - 1)
}

// vocab returns the state's vocabulary.
func (s *State) vocab() *vocab { return vocabOf(s.voc) }

// vocabOf returns the vocabulary internVocab registered as id.
func vocabOf(id uint32) *vocab { return (*vocabs.list.Load())[id] }
