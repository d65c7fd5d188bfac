package fpset

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func TestInsertLookupRoundTrip(t *testing.T) {
	s := New(4)
	rng := rand.New(rand.NewSource(1))
	ref := make(map[uint64]Edge)
	for i := 0; i < 50_000; i++ {
		fp := rng.Uint64()
		e := Edge{Parent: rng.Uint64(), Depth: int32(i % 40)}
		fresh := s.Insert(fp, e.Parent, e.Depth)
		if _, dup := ref[fp]; dup == fresh {
			t.Fatalf("Insert(%#x) fresh=%v but ref dup=%v", fp, fresh, dup)
		}
		if !fresh {
			continue
		}
		ref[fp] = e
	}
	if got, want := s.Len(), int64(len(ref)); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for fp, want := range ref {
		got, ok := s.Lookup(fp)
		if !ok || got != want {
			t.Fatalf("Lookup(%#x) = %+v,%v want %+v", fp, got, ok, want)
		}
	}
	if _, ok := s.Lookup(0xdeadbeef_feedface); ok {
		t.Fatal("lookup of absent fingerprint succeeded")
	}
}

func TestZeroFingerprintIsStorable(t *testing.T) {
	s := New(1)
	if !s.Insert(0, 7, 3) {
		t.Fatal("first insert of fp 0 not fresh")
	}
	if s.Insert(0, 7, 3) {
		t.Fatal("second insert of fp 0 was fresh")
	}
	e, ok := s.Lookup(0)
	if !ok || e.Parent != 7 || e.Depth != 3 {
		t.Fatalf("Lookup(0) = %+v,%v", e, ok)
	}
}

func TestEqualDepthParentTieBreakIsDeterministic(t *testing.T) {
	// Whatever order the two parents arrive in, the smaller one must win.
	for _, order := range [][2]uint64{{100, 50}, {50, 100}} {
		s := New(2)
		s.Insert(42, order[0], 5)
		s.Insert(42, order[1], 5)
		e, _ := s.Lookup(42)
		if e.Parent != 50 {
			t.Errorf("order %v: parent = %d, want 50", order, e.Parent)
		}
	}
	// A later (deeper) rediscovery must NOT replace the recorded edge: BFS
	// discovers states at minimal depth first.
	s := New(2)
	s.Insert(42, 100, 5)
	s.Insert(42, 1, 6)
	if e, _ := s.Lookup(42); e.Parent != 100 || e.Depth != 5 {
		t.Errorf("deeper rediscovery overwrote edge: %+v", e)
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	s := New(1) // single shard: force many rehashes
	n := 3 * minShardCap
	for i := 0; i < n; i++ {
		s.Insert(uint64(i*2654435761+1), uint64(i), int32(i%10))
	}
	if got := s.Len(); got != int64(n) {
		t.Fatalf("Len after growth = %d, want %d", got, n)
	}
	st := s.Stats()
	if st.Resizes == 0 {
		t.Fatal("expected at least one resize")
	}
	for i := 0; i < n; i++ {
		if e, ok := s.Lookup(uint64(i*2654435761 + 1)); !ok || e.Parent != uint64(i) {
			t.Fatalf("entry %d lost after rehash (%+v, %v)", i, e, ok)
		}
	}
}

func TestConcurrentInsertExactlyOneWinner(t *testing.T) {
	s := New(8)
	const goroutines = 8
	const n = 20_000
	fresh := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Every goroutine inserts the same fingerprint stream: for
				// each fp exactly one goroutine must observe fresh=true.
				if s.Insert(uint64(i)*0x9E3779B97F4A7C15+1, uint64(g), int32(1)) {
					fresh[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, f := range fresh {
		total += f
	}
	if total != n {
		t.Fatalf("fresh insert total = %d, want %d", total, n)
	}
	if got := s.Len(); got != int64(n) {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// Equal-depth tie-break: every surviving parent is the minimum (0).
	bad := 0
	s.Range(func(fp uint64, e Edge) bool {
		if e.Parent != 0 {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d entries kept a non-minimal parent under contention", bad)
	}
}

func TestRangeVisitsEverything(t *testing.T) {
	s := New(4)
	want := make(map[uint64]bool)
	for i := 1; i <= 1000; i++ {
		fp := uint64(i) * 7919
		s.Insert(fp, 0, 1)
		want[fp] = true
	}
	got := 0
	s.Range(func(fp uint64, e Edge) bool {
		if !want[fp] {
			t.Fatalf("Range yielded unknown fp %#x", fp)
		}
		got++
		return true
	})
	if got != len(want) {
		t.Fatalf("Range visited %d entries, want %d", got, len(want))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New(4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		s.Insert(rng.Uint64(), rng.Uint64(), int32(i%30))
	}
	s.Insert(0, 9, 2) // reserved-key path must survive the round trip

	var buf bytes.Buffer
	n, err := s.WriteRecords(&buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	if n != s.Len() || int64(buf.Len()) != n*RecordSize {
		t.Fatalf("wrote %d records in %d bytes for %d entries", n, buf.Len(), s.Len())
	}
	// Read back with a different shard count: the shard layout is a tuning
	// knob, not serialised state.
	r := New(16)
	r.InsertRecords(buf.Bytes())
	if r.Len() != s.Len() {
		t.Fatalf("restored Len = %d, want %d", r.Len(), s.Len())
	}
	mismatch := 0
	s.Range(func(fp uint64, e Edge) bool {
		g, ok := r.Lookup(fp)
		if !ok || g != e {
			mismatch++
		}
		return true
	})
	if mismatch != 0 {
		t.Fatalf("%d entries differ after round trip", mismatch)
	}
	if e, ok := r.Lookup(0); !ok || e.Parent != 9 {
		t.Fatalf("restored Lookup(0) = %+v, %v", e, ok)
	}
}

func TestStatsAndDefaultShards(t *testing.T) {
	if n := DefaultShards(); n < 1 || n&(n-1) != 0 {
		t.Fatalf("DefaultShards() = %d, want a positive power of two", n)
	}
	s := New(3) // rounds up to 4
	st := s.Stats()
	if st.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", st.Shards)
	}
	s.Insert(1, 0, 0)
	s.Lookup(1)
	st = s.Stats()
	if st.Entries != 1 || st.Probes < 2 || st.Slots == 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Insert(uint64(i)*fibMix+1, uint64(i), int32(i&31))
	}
}

func BenchmarkLookupHit(b *testing.B) {
	s := New(0)
	const n = 1 << 20
	for i := 0; i < n; i++ {
		s.Insert(uint64(i)*fibMix+1, 0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(uint64(i%n)*fibMix + 1)
	}
}
