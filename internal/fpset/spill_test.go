package fpset

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"testing"
)

// spillSet builds a set with spill enabled into a test temp dir.
func spillSet(t *testing.T, budget int64) *Set {
	t.Helper()
	s := New(4)
	if err := s.EnableSpill(SpillConfig{Dir: t.TempDir(), BudgetBytes: budget}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseSpill)
	return s
}

// fill inserts n pseudo-random fingerprints at the given depth and returns
// them. The rng is seeded so runs are reproducible.
func fill(s *Set, rng *rand.Rand, n int, depth int32) []uint64 {
	fps := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		fp := rng.Uint64()
		if s.Insert(fp, fp^0xabc, depth) {
			fps = append(fps, fp)
		}
	}
	return fps
}

// TestSpillFrozenPreservesLookupAndDedup spills one depth and checks that
// every spilled fingerprint still resolves with its original edge, that
// re-inserting it is a dedup hit, and that Len counts RAM and disk together.
func TestSpillFrozenPreservesLookupAndDedup(t *testing.T) {
	s := spillSet(t, 0)
	rng := rand.New(rand.NewSource(1))
	frozen := fill(s, rng, 5000, 1)
	live := fill(s, rng, 500, 2)

	moved, err := s.SpillFrozen(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(frozen) {
		t.Fatalf("spilled %d entries, want %d", moved, len(frozen))
	}
	if got := s.Len(); got != int64(len(frozen)+len(live)) {
		t.Fatalf("Len after spill = %d, want %d", got, len(frozen)+len(live))
	}
	for _, fp := range frozen {
		e, ok := s.Lookup(fp)
		if !ok {
			t.Fatalf("spilled fp %#x not found", fp)
		}
		if e.Parent != fp^0xabc || e.Depth != 1 {
			t.Fatalf("spilled fp %#x edge %+v corrupted", fp, e)
		}
		if s.Insert(fp, 0, 3) {
			t.Fatalf("re-insert of spilled fp %#x not deduplicated", fp)
		}
	}
	st := s.Stats()
	if st.SpilledEntries != int64(len(frozen)) || st.SpillRuns != 1 || st.SpillEvents != 1 {
		t.Fatalf("stats after spill: %+v", st)
	}
	if st.SpilledShards == 0 || st.SpillBytes == 0 {
		t.Fatalf("stats missing shard/byte accounting: %+v", st)
	}
	if st.DiskProbes == 0 || st.DiskHits == 0 {
		t.Fatalf("expected disk probes after spilled lookups: %+v", st)
	}
	if st.Entries != int64(len(frozen)+len(live)) {
		t.Fatalf("Stats.Entries = %d, want %d", st.Entries, len(frozen)+len(live))
	}
}

// TestSpillMergeCompactsRuns spills enough depths to exceed maxRuns and
// checks the runs collapse with nothing lost.
func TestSpillMergeCompactsRuns(t *testing.T) {
	s := spillSet(t, 0)
	rng := rand.New(rand.NewSource(2))
	var all []uint64
	for d := int32(1); d <= maxRuns+2; d++ {
		all = append(all, fill(s, rng, 1000, d)...)
		if _, err := s.SpillFrozen(d); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SpillMerges == 0 {
		t.Fatalf("expected at least one merge past %d runs: %+v", maxRuns, st)
	}
	if st.SpillRuns > maxRuns {
		t.Fatalf("run count %d exceeds maxRuns", st.SpillRuns)
	}
	if st.SpilledEntries != int64(len(all)) {
		t.Fatalf("spilled %d entries, want %d", st.SpilledEntries, len(all))
	}
	for _, fp := range all {
		if _, ok := s.Lookup(fp); !ok {
			t.Fatalf("fp %#x lost in merge", fp)
		}
	}
}

// TestSpillSnapshotRoundTrip streams a half-spilled set's records and
// inserts them into a fresh set, asserting the copy (all-RAM) is
// entry-for-entry equal.
func TestSpillSnapshotRoundTrip(t *testing.T) {
	s := spillSet(t, 0)
	rng := rand.New(rand.NewSource(3))
	fill(s, rng, 3000, 1)
	fill(s, rng, 300, 2)
	if _, err := s.SpillFrozen(1); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if n, err := s.WriteRecords(&buf, -1); err != nil || n != s.Len() {
		t.Fatalf("wrote %d records of %d: %v", n, s.Len(), err)
	}
	back := New(8)
	back.InsertRecords(buf.Bytes())
	if back.Len() != s.Len() {
		t.Fatalf("round trip Len %d != %d", back.Len(), s.Len())
	}
	count := 0
	s.Range(func(fp uint64, e Edge) bool {
		count++
		got, ok := back.Lookup(fp)
		if !ok || got != e {
			t.Fatalf("fp %#x: got %+v ok=%v want %+v", fp, got, ok, e)
		}
		return true
	})
	if int64(count) != s.Len() {
		t.Fatalf("Range visited %d entries, Len says %d", count, s.Len())
	}
}

// TestMaybeSpillHonoursBudget checks MaybeSpill is a no-op under budget and
// spills when MemBytes crosses it, shrinking the resident footprint.
func TestMaybeSpillHonoursBudget(t *testing.T) {
	s := spillSet(t, 1<<30) // budget far above anything the test allocates
	rng := rand.New(rand.NewSource(4))
	// Enough entries that the shard tables grow well past their floor, so
	// the post-spill rebuild has room to shrink them.
	fill(s, rng, 20000, 1)
	if n, err := s.MaybeSpill(1); err != nil || n != 0 {
		t.Fatalf("MaybeSpill under budget moved %d entries (err %v)", n, err)
	}

	s.spill.budget = 1 // now everything is over budget
	before := s.MemBytes()
	n, err := s.MaybeSpill(1)
	if err != nil || n == 0 {
		t.Fatalf("MaybeSpill over budget moved %d entries (err %v)", n, err)
	}
	if after := s.MemBytes(); after >= before {
		t.Fatalf("MemBytes did not shrink after spill: %d -> %d", before, after)
	}
}

// TestRangeNewerFiltersByDepth checks the delta-checkpoint iterator covers
// exactly the entries above the cutoff, across RAM and disk.
func TestRangeNewerFiltersByDepth(t *testing.T) {
	s := spillSet(t, 0)
	rng := rand.New(rand.NewSource(5))
	old := fill(s, rng, 1000, 1)
	fresh := fill(s, rng, 700, 2)
	if _, err := s.SpillFrozen(1); err != nil {
		t.Fatal(err)
	}
	// Spill depth 2 as well so the "newer" entries live on disk too.
	if _, err := s.SpillFrozen(2); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	if err := s.RangeNewer(1, func(fp uint64, e Edge) bool {
		if e.Depth <= 1 {
			t.Fatalf("RangeNewer leaked depth %d", e.Depth)
		}
		got[fp] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fresh) {
		t.Fatalf("RangeNewer found %d entries, want %d", len(got), len(fresh))
	}
	for _, fp := range old {
		if got[norm(fp)] {
			t.Fatalf("old fp %#x in delta", fp)
		}
	}
}

// failAfter lets limit bytes through its writer, then fails every write.
type failAfter struct {
	w     io.Writer
	limit int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n, _ := f.w.Write(p[:f.limit])
		f.limit = 0
		return n, errors.New("injected: no space left on device")
	}
	f.limit -= len(p)
	return f.w.Write(p)
}

// TestSpillWriteFailureLosesNothing fails a run write partway, first for a
// spill and then for the merge a later spill triggers: the set keeps every
// entry with its edge, and no partial run file is left in the spill
// directory.
func TestSpillWriteFailureLosesNothing(t *testing.T) {
	dir := t.TempDir()
	s := New(4)
	if err := s.EnableSpill(SpillConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseSpill)
	orig := RunWriterWrap
	t.Cleanup(func() { RunWriterWrap = orig })
	fail := func(w io.Writer) io.Writer { return &failAfter{w: w, limit: 1000} }
	runFiles := func() int {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}

	rng := rand.New(rand.NewSource(6))
	all := fill(s, rng, 3000, 1)
	RunWriterWrap = fail
	if n, err := s.SpillFrozen(1); err == nil || n != 0 {
		t.Fatalf("failed spill: moved %d, err %v", n, err)
	}
	if got := runFiles(); got != 0 || s.Stats().SpillRuns != 0 {
		t.Fatalf("failed spill left %d files, %d runs", got, s.Stats().SpillRuns)
	}

	RunWriterWrap = orig
	for d := int32(1); d <= maxRuns; d++ {
		if d > 1 {
			all = append(all, fill(s, rng, 1000, d)...)
		}
		if _, err := s.SpillFrozen(d); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, fill(s, rng, 1000, maxRuns+1)...)
	calls := 0
	RunWriterWrap = func(w io.Writer) io.Writer {
		if calls++; calls == 1 {
			return w // the spill's own run
		}
		return fail(w)
	}
	if _, err := s.SpillFrozen(maxRuns + 1); err == nil {
		t.Fatal("the merge past maxRuns did not fail")
	}
	if got, st := runFiles(), s.Stats(); got != maxRuns+1 || st.SpillRuns != maxRuns+1 || st.SpillMerges != 0 {
		t.Fatalf("failed merge: %d files, stats %+v; want the %d unmerged runs", got, st, maxRuns+1)
	}
	if s.Len() != int64(len(all)) {
		t.Fatalf("Len %d, want %d", s.Len(), len(all))
	}
	for _, fp := range all {
		if _, ok := s.Lookup(fp); !ok {
			t.Fatalf("fp %#x lost to a failed run write", fp)
		}
	}
}
