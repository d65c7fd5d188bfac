// Package fpset implements the explorer's concurrent fingerprint set — the
// reproduction of TLC's fingerprint set (the data structure behind the
// paper's stateful-search discipline, §2.1/§3.3). It is a lock-striped,
// power-of-two-sharded open-addressing hash table holding 64-bit state
// fingerprints plus the parent/depth edge metadata the explorer needs to
// reconstruct counterexample traces.
//
// Design:
//
//   - Sharding. A fingerprint's low bits select one of 2^k shards, each an
//     independent open-addressing table behind its own mutex. BFS expansion
//     workers probe-and-insert concurrently; two workers contend only when
//     their fingerprints land in the same shard, so throughput scales with
//     the shard count instead of funnelling every candidate state through
//     one serial dedup pass.
//   - Open addressing. Each shard stores keys in a flat power-of-two slice
//     probed linearly from a Fibonacci-hashed start slot, with the edge
//     metadata in a parallel slice so probe loops touch only the key array.
//     Growth doubles one shard at a time when it passes a ~13/16 load
//     factor, so resize cost is amortised and never stops the world.
//   - Determinism. Insert breaks parent ties deterministically: when the
//     same fingerprint is discovered at the same depth from two different
//     parents (a race between expansion workers), the numerically smallest
//     parent fingerprint wins. The final edge table — and therefore every
//     reconstructed counterexample — is identical across runs regardless of
//     scheduling.
//
// Like TLC, the explorer identifies states by fingerprint alone: distinct
// states with colliding 64-bit fingerprints are treated as identical. The
// set extends that convention to the reserved empty-slot key (fingerprint
// zero is remapped to a fixed constant on the way in).
//
// WriteRecords streams the set's entries as fixed-size records for the
// explorer's checkpoint blocks, and InsertRecords reads them back; see the
// explorer package for the checkpoint/resume protocol built on top.
package fpset

import (
	"runtime"
	"sync"
)

// fibonacci multiplier (2^64 / golden ratio) used to spread fingerprints
// across probe slots; fingerprints are already hashes, but their low bits
// also select the shard, so slot selection mixes again and uses high bits.
const fibMix = 0x9E3779B97F4A7C15

// zeroAlias is the key stored in place of fingerprint 0, which is reserved
// as the empty-slot marker. States fingerprinting to 0 and to zeroAlias
// alias each other — the same tolerance the explorer already extends to any
// 64-bit fingerprint collision.
const zeroAlias uint64 = 0x5ab1e0000000001

// minShardCap is the initial per-shard slot count (power of two).
const minShardCap = 1 << 10

// maxLoadNum/maxLoadDen is the occupancy threshold that triggers a shard
// resize: grow when n*den >= cap*num is about to be exceeded (13/16 ≈ 0.81).
const (
	maxLoadNum = 13
	maxLoadDen = 16
)

// Set is a concurrent fingerprint set with per-entry parent/depth edge
// metadata. The zero value is not usable; call New.
//
// Concurrency: Insert and Lookup may be called from any number of
// goroutines. Len, Stats, Range, and WriteRecords take all shard locks
// shard-by-shard and are intended for block/level boundaries and
// checkpointing, not hot loops.
type Set struct {
	shards []shard
	mask   uint64 // len(shards)-1
	// spill is the optional out-of-core controller (see spill.go); nil
	// until EnableSpill. When non-nil, entries live either in the shard
	// tables or in one sorted disk run, never both.
	spill *spillState
}

// shard is one independently locked open-addressing table.
type shard struct {
	mu      sync.Mutex
	keys    []uint64 // 0 = empty slot
	meta    []Edge   // parallel to keys
	n       int      // occupied slots
	grow    int      // resize threshold (= cap*13/16)
	probes  int64    // accumulated probe steps, for obs
	resizes int64
	_       [24]byte // pad to keep hot shards off one another's cache lines
}

// Edge is the metadata stored with each fingerprint: the parent state's
// canonical fingerprint and the BFS depth at which the state was first
// discovered — exactly what counterexample reconstruction walks backwards
// (TLC stores the same pair in its fingerprint graph).
type Edge struct {
	Parent uint64
	Depth  int32
}

// Stats is a point-in-time aggregate over all shards, published by the
// explorer into its obs registry at block boundaries.
type Stats struct {
	// Shards is the shard count (fixed at construction).
	Shards int
	// Entries is the number of distinct fingerprints stored.
	Entries int64
	// Slots is the total allocated slot count across shards.
	Slots int64
	// Probes is the cumulative number of probe steps performed by Insert
	// and Lookup (a measure of clustering; Probes/Entries ≈ mean probe
	// sequence length). Counts in-RAM probes only; disk probes are
	// reported separately in DiskProbes.
	Probes int64
	// Resizes counts shard growth events.
	Resizes int64
	// SpilledEntries is the number of entries currently living in on-disk
	// runs (0 unless EnableSpill was called and a spill occurred).
	SpilledEntries int64
	// SpilledShards is the cumulative count of shard-spill events: one per
	// shard that contributed at least one entry to a spill.
	SpilledShards int64
	// SpillEvents counts SpillFrozen calls that moved entries to disk.
	SpillEvents int64
	// SpillRuns is the current on-disk run count.
	SpillRuns int64
	// SpillBytes is the cumulative byte volume written to spill runs
	// (merge rewrites excluded).
	SpillBytes int64
	// SpillMerges counts run-compaction merges.
	SpillMerges int64
	// DiskProbes counts disk block reads performed by the probe path
	// (bloom-filter rejections never reach the disk and are not counted).
	DiskProbes int64
	// DiskHits counts disk probes that found the fingerprint.
	DiskHits int64
}

// DefaultShards picks a shard count for the current machine: the smallest
// power of two ≥ 4×GOMAXPROCS, clamped to [1, 1024]. Oversharding relative
// to the worker count keeps the probability of two workers contending on
// one shard lock low.
func DefaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 1024 {
		s <<= 1
	}
	return s
}

// New builds a set with the given shard count, rounded up to a power of
// two; shards <= 0 selects DefaultShards.
func New(shards int) *Set {
	if shards <= 0 {
		shards = DefaultShards()
	}
	p := 1
	for p < shards {
		p <<= 1
	}
	s := &Set{shards: make([]shard, p), mask: uint64(p - 1)}
	for i := range s.shards {
		s.shards[i].init(minShardCap)
	}
	return s
}

func (sh *shard) init(capacity int) {
	sh.keys = make([]uint64, capacity)
	sh.meta = make([]Edge, capacity)
	sh.n = 0
	sh.grow = capacity * maxLoadNum / maxLoadDen
}

// norm remaps the reserved empty-slot key.
func norm(fp uint64) uint64 {
	if fp == 0 {
		return zeroAlias
	}
	return fp
}

// shardFor selects the shard for a fingerprint.
func (s *Set) shardFor(fp uint64) *shard {
	return &s.shards[fp&s.mask]
}

// slotFor returns the starting probe slot for key in a table of size cap
// (power of two): high bits of the Fibonacci-mixed key.
func slotFor(key uint64, capacity int) int {
	return int((key * fibMix) >> 32 & uint64(capacity-1))
}

// Insert records fp as discovered at depth with the given parent
// fingerprint. It reports whether fp was newly inserted. When fp is already
// present, Insert is a deduplication hit: the stored edge is kept, except
// that an equal-depth discovery with a smaller parent fingerprint replaces
// the parent (the deterministic tie-break documented on the package).
func (s *Set) Insert(fp, parent uint64, depth int32) bool {
	key := norm(fp)
	if sp := s.spill; sp != nil {
		// Spilled entries are frozen at a strictly smaller depth, so a
		// disk hit is always a pure dedup hit — no tie-break can apply
		// (see spill.go). The check is lock-free.
		if _, ok := sp.lookup(key); ok {
			return false
		}
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	i := slotFor(key, len(sh.keys))
	steps := int64(1)
	for {
		k := sh.keys[i]
		if k == 0 {
			// Empty slot: new fingerprint.
			if sh.n+1 > sh.grow {
				sh.rehash()
				// Re-probe in the grown table.
				i = slotFor(key, len(sh.keys))
				for sh.keys[i] != 0 {
					i = (i + 1) & (len(sh.keys) - 1)
					steps++
				}
			}
			sh.keys[i] = key
			sh.meta[i] = Edge{Parent: parent, Depth: depth}
			sh.n++
			sh.probes += steps
			sh.mu.Unlock()
			return true
		}
		if k == key {
			// Duplicate: deterministic equal-depth parent tie-break.
			if m := &sh.meta[i]; m.Depth == depth && parent < m.Parent {
				m.Parent = parent
			}
			sh.probes += steps
			sh.mu.Unlock()
			return false
		}
		i = (i + 1) & (len(sh.keys) - 1)
		steps++
	}
}

// rehash doubles the shard's table. Caller holds sh.mu.
func (sh *shard) rehash() {
	oldKeys, oldMeta := sh.keys, sh.meta
	sh.init(2 * len(oldKeys))
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := slotFor(k, len(sh.keys))
		for sh.keys[i] != 0 {
			i = (i + 1) & (len(sh.keys) - 1)
		}
		sh.keys[i] = k
		sh.meta[i] = oldMeta[j]
		sh.n++
	}
	sh.resizes++
}

// Lookup returns the edge recorded for fp and whether it is present,
// checking spilled disk runs after a RAM miss.
func (s *Set) Lookup(fp uint64) (Edge, bool) {
	key := norm(fp)
	if e, ok := s.lookupRAM(key); ok {
		return e, true
	}
	if sp := s.spill; sp != nil {
		return sp.lookup(key)
	}
	return Edge{}, false
}

// lookupRAM probes only the in-RAM shard tables.
func (s *Set) lookupRAM(key uint64) (Edge, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	i := slotFor(key, len(sh.keys))
	steps := int64(1)
	for {
		k := sh.keys[i]
		if k == 0 {
			sh.probes += steps
			sh.mu.Unlock()
			return Edge{}, false
		}
		if k == key {
			m := sh.meta[i]
			sh.probes += steps
			sh.mu.Unlock()
			return m, true
		}
		i = (i + 1) & (len(sh.keys) - 1)
		steps++
	}
}

// Contains reports whether fp is present.
func (s *Set) Contains(fp uint64) bool {
	_, ok := s.Lookup(fp)
	return ok
}

// Len returns the number of distinct fingerprints stored, including entries
// spilled to disk.
func (s *Set) Len() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += int64(sh.n)
		sh.mu.Unlock()
	}
	if sp := s.spill; sp != nil {
		n += sp.spilledEntries.Load()
	}
	return n
}

// Stats aggregates per-shard counters. It locks shards one at a time, so a
// concurrent Insert may or may not be counted — fine for monitoring.
func (s *Set) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += int64(sh.n)
		st.Slots += int64(len(sh.keys))
		st.Probes += sh.probes
		st.Resizes += sh.resizes
		sh.mu.Unlock()
	}
	if sp := s.spill; sp != nil {
		st.Entries += sp.spilledEntries.Load()
		st.SpilledEntries = sp.spilledEntries.Load()
		st.SpilledShards = sp.shardSpills
		st.SpillEvents = sp.spillEvents
		st.SpillRuns = int64(len(*sp.runs.Load()))
		st.SpillBytes = sp.spillBytes.Load()
		st.SpillMerges = sp.merges
		st.DiskProbes = sp.diskProbes.Load()
		st.DiskHits = sp.diskHits.Load()
	}
	return st
}

// Range calls fn for every stored (fingerprint, edge) pair until fn returns
// false, covering both the in-RAM tables and any spilled disk runs. The
// iteration order is unspecified. Range locks one shard at a time; entries
// inserted concurrently may or may not be visited, and a disk I/O error ends
// the iteration early (use rangeAll inside the package where the error
// matters). The fingerprint passed to fn is the stored key (fingerprint 0 is
// reported as its alias, consistent with Lookup semantics).
func (s *Set) Range(fn func(fp uint64, e Edge) bool) {
	_ = s.rangeAll(fn)
}

// rangeAll is Range with disk errors surfaced; safepoint-only when the set
// has spilled entries.
func (s *Set) rangeAll(fn func(fp uint64, e Edge) bool) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j, k := range sh.keys {
			if k == 0 {
				continue
			}
			if !fn(k, sh.meta[j]) {
				sh.mu.Unlock()
				return nil
			}
		}
		sh.mu.Unlock()
	}
	if sp := s.spill; sp != nil {
		return sp.rangeSpilled(fn)
	}
	return nil
}

// RangeNewer calls fn for every stored entry with Depth > minDepth — the
// entries discovered since the BFS level minDepth completed, which is
// exactly the delta a checkpoint needs to append (edges at depth <= minDepth
// are final once that level is done). Safepoint-only; returns the first disk
// I/O error.
func (s *Set) RangeNewer(minDepth int32, fn func(fp uint64, e Edge) bool) error {
	return s.rangeAll(func(fp uint64, e Edge) bool {
		if e.Depth <= minDepth {
			return true
		}
		return fn(fp, e)
	})
}
