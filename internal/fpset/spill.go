package fpset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Out-of-core support: when a memory budget is configured the set can move
// "frozen" entries — fingerprints discovered at depths the BFS has already
// completed — out of the in-RAM open-addressing tables into sorted on-disk
// runs, the same discipline TLC uses for its fingerprint set.
//
// Why spilling frozen entries preserves determinism: the only mutation the
// set ever applies to an existing entry is the equal-depth min-parent
// tie-break in Insert, and a tie-break can only fire while the BFS is still
// inserting at that entry's depth. Once level d is complete, every entry
// with Depth <= d is immutable. Spilling exactly those entries means a disk
// record never needs updating: any rediscovery of a spilled fingerprint
// happens at a strictly greater depth and is a pure deduplication hit. The
// final edge table (RAM ∪ disk) is therefore byte-identical to the
// unspilled run's, at every worker count.
//
// An entry lives in exactly one place — the RAM tables or one disk run —
// so the hot probe-and-insert path checks disk first (bloom filter, then a
// sparse block index, then one ReadAt) without taking any shard lock, and
// only then locks the shard for the RAM probe. Runs are only created,
// merged, or scanned at explorer safepoints (block/level boundaries, with
// expansion workers quiesced); concurrent Insert/Lookup see the run list
// through an atomic pointer.

// runMagic identifies a spill run file. Runs are session-private scratch —
// they are recreated from checkpoints after a crash, never recovered — so
// the format carries no version negotiation or trailing checksum.
const runMagic = "SNDTBLR1"

// runHeaderSize is the run file preamble: 8-byte magic + uint64 record count.
const runHeaderSize = 16

// indexEvery is the block-index granularity: one in-RAM index key per this
// many on-disk records, so a point lookup reads one indexEvery-record block.
const indexEvery = 256

// maxRuns bounds the run list before a compacting merge into one run; more
// runs mean more bloom checks per probe, fewer mean more merge I/O.
const maxRuns = 8

// SpillConfig configures EnableSpill.
type SpillConfig struct {
	// Dir is the directory for run files; it is created if missing. The
	// caller owns cleanup (runs are scratch, not checkpoints).
	Dir string
	// BudgetBytes is the in-RAM footprint (MemBytes) above which MaybeSpill
	// flushes frozen entries to disk. <= 0 disables MaybeSpill; SpillFrozen
	// still works for explicit calls.
	BudgetBytes int64
}

// spillState is the per-set spill controller. The runs pointer is the only
// field touched by the concurrent probe path; everything else mutates at
// safepoints only.
type spillState struct {
	dir    string
	budget int64
	runs   atomic.Pointer[[]*spillRun]
	seq    int // run file name counter

	spilledEntries atomic.Int64
	spillBytes     atomic.Int64
	diskProbes     atomic.Int64
	diskHits       atomic.Int64
	spillEvents    int64 // safepoint-only
	shardSpills    int64 // safepoint-only
	merges         int64 // safepoint-only
}

// spillRun is one immutable sorted run on disk.
type spillRun struct {
	f      *os.File
	path   string
	count  int64
	bytes  int64
	minKey uint64
	maxKey uint64
	index  []uint64 // first key of each indexEvery-record block
	filter bloom
}

// record pairs a key with its edge while sorting a run.
type record struct {
	key uint64
	e   Edge
}

// bloom is a fixed-size blocked-free bloom filter over run keys; it keeps
// most absent-key probes off the disk entirely.
type bloom struct {
	words []uint64
	mask  uint64 // bit-count-1 (bit count is a power of two)
}

func newBloom(n int64) bloom {
	bits := int64(1 << 13)
	for bits < n*10 {
		bits <<= 1
	}
	return bloom{words: make([]uint64, bits/64), mask: uint64(bits - 1)}
}

// bloomHashes derives the two probe strides for a key. The second multiplier
// is the 64-bit xxhash avalanche prime; |1 keeps the stride odd.
func bloomHashes(key uint64) (h1, h2 uint64) {
	return key * fibMix, key*0xC2B2AE3D27D4EB4F | 1
}

const bloomProbes = 4

func (b bloom) add(key uint64) {
	h1, h2 := bloomHashes(key)
	for i := uint64(0); i < bloomProbes; i++ {
		p := (h1 + i*h2) & b.mask
		b.words[p>>6] |= 1 << (p & 63)
	}
}

func (b bloom) mightContain(key uint64) bool {
	h1, h2 := bloomHashes(key)
	for i := uint64(0); i < bloomProbes; i++ {
		p := (h1 + i*h2) & b.mask
		if b.words[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// ramBytes is the in-RAM overhead a run keeps resident (index + bloom).
func (r *spillRun) ramBytes() int64 {
	return int64(len(r.index))*8 + int64(len(r.filter.words))*8
}

// EnableSpill attaches a spill controller to the set. It must be called
// before the set is shared between goroutines; calling it twice or on a set
// that already holds spilled entries is an error.
func (s *Set) EnableSpill(cfg SpillConfig) error {
	if s.spill != nil {
		return errors.New("fpset: spill already enabled")
	}
	if cfg.Dir == "" {
		return errors.New("fpset: spill dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("fpset: spill dir: %w", err)
	}
	sp := &spillState{dir: cfg.Dir, budget: cfg.BudgetBytes}
	empty := []*spillRun{}
	sp.runs.Store(&empty)
	s.spill = sp
	return nil
}

// CloseSpill closes every run file handle. Run files themselves are left on
// disk for the owner of SpillConfig.Dir to remove. Must be called with no
// concurrent set operations.
func (s *Set) CloseSpill() {
	sp := s.spill
	if sp == nil {
		return
	}
	for _, r := range *sp.runs.Load() {
		r.f.Close()
	}
	empty := []*spillRun{}
	sp.runs.Store(&empty)
}

// MemBytes estimates the set's resident footprint: allocated table slots
// (key + edge) plus the per-run index and bloom structures. It locks shards
// one at a time; call it at block/level boundaries, not hot loops.
func (s *Set) MemBytes() int64 {
	var slots int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		slots += int64(len(sh.keys))
		sh.mu.Unlock()
	}
	// 8 bytes of key + 16 bytes of Edge (padded) per slot.
	b := slots * 24
	if sp := s.spill; sp != nil {
		for _, r := range *sp.runs.Load() {
			b += r.ramBytes()
		}
	}
	return b
}

// MaybeSpill spills frozen entries (Depth <= maxDepth) to disk when the
// configured budget is exceeded, merging runs if the run list has grown past
// its bound. It returns the number of entries moved (0 when under budget or
// nothing is frozen). Caller must be at a safepoint: no concurrent Insert,
// Lookup, Range, or snapshot.
func (s *Set) MaybeSpill(maxDepth int32) (int, error) {
	sp := s.spill
	if sp == nil || sp.budget <= 0 || s.MemBytes() <= sp.budget {
		return 0, nil
	}
	return s.SpillFrozen(maxDepth)
}

// SpillFrozen unconditionally moves every in-RAM entry with Depth <=
// maxDepth into a new sorted on-disk run and shrinks the shard tables to fit
// what remains. See the package comment on spill.go for why only frozen
// depths may move. Caller must be at a safepoint.
func (s *Set) SpillFrozen(maxDepth int32) (int, error) {
	sp := s.spill
	if sp == nil {
		return 0, errors.New("fpset: spill not enabled")
	}
	// Pass 1: collect frozen entries without touching the tables, so a
	// failed run write loses nothing.
	var recs []record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j, k := range sh.keys {
			if k != 0 && sh.meta[j].Depth <= maxDepth {
				recs = append(recs, record{key: k, e: sh.meta[j]})
			}
		}
		sh.mu.Unlock()
	}
	if len(recs) == 0 {
		return 0, nil
	}
	slices.SortFunc(recs, func(a, b record) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	w, err := sp.createRun(int64(len(recs)))
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		w.add(rec.key, rec.e)
	}
	run, err := w.finish()
	if err != nil {
		return 0, err
	}
	// Pass 2: the run is written (never fsynced: runs are session scratch,
	// not checkpoints); drop the spilled entries from RAM and shrink each
	// touched shard's table to the smallest power of two that holds the
	// remainder under the load factor.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		moved := 0
		for j, k := range sh.keys {
			if k != 0 && sh.meta[j].Depth <= maxDepth {
				moved++
			}
		}
		if moved == 0 {
			sh.mu.Unlock()
			continue
		}
		sp.shardSpills++
		remaining := sh.n - moved
		capacity := minShardCap
		for capacity*maxLoadNum/maxLoadDen <= remaining {
			capacity <<= 1
		}
		oldKeys, oldMeta := sh.keys, sh.meta
		resizes, probes := sh.resizes, sh.probes
		sh.init(capacity)
		sh.resizes, sh.probes = resizes, probes
		for j, k := range oldKeys {
			if k == 0 || oldMeta[j].Depth <= maxDepth {
				continue
			}
			slot := slotFor(k, len(sh.keys))
			for sh.keys[slot] != 0 {
				slot = (slot + 1) & (len(sh.keys) - 1)
			}
			sh.keys[slot] = k
			sh.meta[slot] = oldMeta[j]
			sh.n++
		}
		sh.mu.Unlock()
	}
	sp.spillEvents++
	sp.spilledEntries.Add(int64(len(recs)))
	sp.spillBytes.Add(run.bytes)
	runs := append(slices.Clone(*sp.runs.Load()), run)
	sp.runs.Store(&runs)
	if len(runs) > maxRuns {
		if err := sp.mergeRuns(); err != nil {
			return len(recs), err
		}
	}
	return len(recs), nil
}

// runWriter streams key-sorted records into a new run file and builds the
// run's in-RAM probe structures (sparse index, bloom filter, key bounds) as
// it goes; SpillFrozen and mergeRuns both write through it. A write error
// sticks in the bufio.Writer, so finish's Flush reports it.
type runWriter struct {
	run *spillRun
	bw  *bufio.Writer
	n   int64
	buf []byte
}

// RunWriterWrap wraps the file every spill run is written through (a
// SpillFrozen run and a merge alike). Production leaves it as the identity;
// fault-injection tests swap it to simulate ENOSPC, short writes and I/O
// errors.
var RunWriterWrap = func(w io.Writer) io.Writer { return w }

// createRun opens the next run file for count records and writes its header.
func (sp *spillState) createRun(count int64) (*runWriter, error) {
	sp.seq++
	path := filepath.Join(sp.dir, fmt.Sprintf("run-%06d.fps", sp.seq))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &runWriter{
		run: &spillRun{
			f: f, path: path, count: count,
			bytes:  runHeaderSize + count*RecordSize,
			filter: newBloom(count),
		},
		bw: bufio.NewWriterSize(RunWriterWrap(f), 1<<16),
	}
	w.bw.Write(binary.LittleEndian.AppendUint64([]byte(runMagic), uint64(count)))
	return w, nil
}

// add appends the next record; keys must arrive in increasing order.
func (w *runWriter) add(key uint64, e Edge) {
	r := w.run
	if w.n%indexEvery == 0 {
		r.index = append(r.index, key)
	}
	if w.n == 0 {
		r.minKey = key
	}
	r.maxKey = key
	r.filter.add(key)
	w.n++
	w.buf = appendRecord(w.buf[:0], key, e)
	w.bw.Write(w.buf)
}

// finish flushes the run and returns it, its file handle left open for
// ReadAt lookups. On error the file is removed.
func (w *runWriter) finish() (*spillRun, error) {
	err := w.bw.Flush()
	if err == nil && w.n != w.run.count {
		err = fmt.Errorf("fpset: run holds %d of %d records", w.n, w.run.count)
	}
	if err != nil {
		w.abort()
		return nil, err
	}
	return w.run, nil
}

// abort closes and removes the partial run file.
func (w *runWriter) abort() {
	w.run.f.Close()
	os.Remove(w.run.path)
}

// lookup probes the disk runs for key. It is lock-free: the run list is
// immutable once published and run files are immutable once written.
func (sp *spillState) lookup(key uint64) (Edge, bool) {
	for _, r := range *sp.runs.Load() {
		if key < r.minKey || key > r.maxKey || !r.filter.mightContain(key) {
			continue
		}
		sp.diskProbes.Add(1)
		if e, ok := r.find(key); ok {
			sp.diskHits.Add(1)
			return e, true
		}
	}
	return Edge{}, false
}

// blockBufPool recycles the fixed-size block buffers disk probes read into.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, indexEvery*RecordSize)
		return &b
	},
}

// find locates key in one run: binary-search the sparse index for the block,
// read it with one ReadAt, binary-search the block.
func (r *spillRun) find(key uint64) (Edge, bool) {
	// First index entry > key; the record (if present) is in block i-1.
	i := sort.Search(len(r.index), func(i int) bool { return r.index[i] > key })
	if i == 0 {
		return Edge{}, false
	}
	block := int64(i - 1)
	lo := block * indexEvery
	hi := min(lo+indexEvery, r.count)
	bufp := blockBufPool.Get().(*[]byte)
	defer blockBufPool.Put(bufp)
	buf := (*bufp)[:int(hi-lo)*RecordSize]
	if _, err := r.f.ReadAt(buf, runHeaderSize+lo*RecordSize); err != nil {
		return Edge{}, false
	}
	n := int(hi - lo)
	j := sort.Search(n, func(j int) bool {
		k, _ := getRecord(buf[j*RecordSize:])
		return k >= key
	})
	if j < n {
		if k, e := getRecord(buf[j*RecordSize:]); k == key {
			return e, true
		}
	}
	return Edge{}, false
}

// scan streams every record of the run in key order. Used by Range and the
// checkpoint writer; safepoint-only (sequential reads on a private
// descriptor).
func (r *spillRun) scan(fn func(key uint64, e Edge) bool) error {
	c, err := newRunCursor(r)
	if err != nil {
		return err
	}
	defer c.close()
	for c.ok {
		if !fn(c.key, c.e) {
			return nil
		}
		if err := c.advance(); err != nil {
			return err
		}
	}
	return nil
}

// mergeRuns streams every run into one new sorted run (keys across runs are
// disjoint, so this is a pure k-way merge) and retires the old files.
// Safepoint-only.
func (sp *spillState) mergeRuns() error {
	old := *sp.runs.Load()
	if len(old) <= 1 {
		return nil
	}
	var total int64
	for _, r := range old {
		total += r.count
	}
	w, err := sp.createRun(total)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		w.abort()
		return err
	}
	srcs := make([]*runCursor, 0, len(old))
	for _, r := range old {
		c, err := newRunCursor(r)
		if err != nil {
			return fail(err)
		}
		defer c.close()
		srcs = append(srcs, c)
	}
	for {
		var best *runCursor
		for _, c := range srcs {
			if c.ok && (best == nil || c.key < best.key) {
				best = c
			}
		}
		if best == nil {
			break
		}
		w.add(best.key, best.e)
		if err := best.advance(); err != nil {
			return fail(err)
		}
	}
	merged, err := w.finish()
	if err != nil {
		return err
	}
	runs := []*spillRun{merged}
	sp.runs.Store(&runs)
	sp.merges++
	for _, r := range old {
		r.f.Close()
		os.Remove(r.path)
	}
	return nil
}

// runCursor streams one run's records in key order (merges and scans).
type runCursor struct {
	r    *spillRun
	f    *os.File
	br   *bufio.Reader
	left int64
	buf  [RecordSize]byte
	key  uint64
	e    Edge
	ok   bool
}

func newRunCursor(r *spillRun) (*runCursor, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	if _, err := br.Discard(runHeaderSize); err != nil {
		f.Close()
		return nil, err
	}
	c := &runCursor{r: r, f: f, br: br, left: r.count}
	if err := c.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

func (c *runCursor) close() { c.f.Close() }

// advance reads the next record into key and e; ok turns false past the
// last one.
func (c *runCursor) advance() error {
	if c.left == 0 {
		c.ok = false
		return nil
	}
	if _, err := io.ReadFull(c.br, c.buf[:]); err != nil {
		return fmt.Errorf("fpset: run %s record %d/%d: %w", c.r.path, c.r.count-c.left, c.r.count, err)
	}
	c.left--
	c.key, c.e = getRecord(c.buf[:])
	c.ok = true
	return nil
}

// rangeSpilled iterates every spilled record across runs (unspecified
// inter-run order). Safepoint-only.
func (sp *spillState) rangeSpilled(fn func(key uint64, e Edge) bool) error {
	stop := false
	for _, r := range *sp.runs.Load() {
		if stop {
			return nil
		}
		err := r.scan(func(key uint64, e Edge) bool {
			if !fn(key, e) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
