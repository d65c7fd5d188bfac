package explorer

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
)

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"123", 123, false},
		{"64KiB", 64 << 10, false},
		{"64kb", 64 << 10, false},
		{"2MiB", 2 << 20, false},
		{"1GiB", 1 << 30, false},
		{"3TB", 3 << 40, false},
		{"512B", 512, false},
		{" 7 MiB ", 7 << 20, false},
		{"", 0, true},
		{"-1", 0, true},
		{"abc", 0, true},
		{"12XiB", 0, true},
		// Overflow: n * mult must not wrap. 8EiB-1 is the largest
		// representable size; one unit past MaxInt64/mult must be rejected,
		// the exact quotient still accepted.
		{"9000000000GiB", 0, true},
		{"9007199254740992KiB", 0, true},             // MaxInt64/1024 + 1
		{"9007199254740991KiB", 1<<63 - 1024, false}, // MaxInt64/1024, exact
		{"8796093022208MiB", 0, true},                // MaxInt64/2^20 + 1
		{"9223372036854775807", 1<<63 - 1, false},    // MaxInt64 plain bytes
		{"9223372036854775807B", 1<<63 - 1, false},   // mult==1 never overflows
		{"18446744073709551616", 0, true},            // past uint64 too
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseByteSize(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

// TestDeltaCheckpointChain asserts the incremental path engages: with a
// per-level cadence the first checkpoint is a log's first block, holding the
// whole fingerprint set, and later ones append delta blocks; the manifest
// names the log's exact length, and a resume over the log matches the
// uninterrupted run exactly.
func TestDeltaCheckpointChain(t *testing.T) {
	full := NewChecker(newToy(3, true), Options{}).Run()

	dir := t.TempDir()
	reg := obs.NewRegistry()
	res := NewChecker(newToy(3, true), Options{
		MaxDepth:   4,
		Metrics:    reg,
		Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1},
	}).Run()
	if res.Err != nil || res.Checkpoints < 2 {
		t.Fatalf("interrupted run: err=%v checkpoints=%d (need >=2 for a chain)", res.Err, res.Checkpoints)
	}
	snap := reg.Snapshot()
	deltas, _ := snap["checkpoint.deltas"].(int64)
	if deltas == 0 {
		t.Fatalf("no delta blocks written (all checkpoints were full rewrites): %v", snap)
	}
	pos := committed(t, dir).Chains[0]
	if pos.Blocks < 2 {
		t.Fatalf("manifest commits no delta block: %+v", pos)
	}
	if st, err := os.Stat(filepath.Join(dir, pos.Log)); err != nil || st.Size() != pos.Bytes {
		t.Errorf("manifest names %d log bytes, log: %v %v", pos.Bytes, st, err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 2 {
		t.Errorf("want the manifest and one chain log, the directory holds %v (%v)", ents, err)
	}

	resumed := NewChecker(newToy(3, true), Options{
		Checkpoint: CheckpointOptions{Dir: dir, Resume: true},
	}).Run()
	if resumed.Err != nil {
		t.Fatalf("resume over delta chain failed: %v", resumed.Err)
	}
	if resumed.DistinctStates != full.DistinctStates || !resumed.Exhausted {
		t.Errorf("resumed distinct=%d exhausted=%v, want %d and true",
			resumed.DistinctStates, resumed.Exhausted, full.DistinctStates)
	}
}

// crashShapes are the two shapes of a checkpointing run the crash windows
// are driven through: a solo run, and a 3-peer mesh whose peers keep their
// chains in Dir/peer-<id> and commit through the coordinator.
var crashShapes = []struct {
	name  string
	peers int
}{{"solo", 1}, {"mesh", 3}}

// ckRun is one run of eqMachine (15 levels) in a crash shape, checkpointing
// every level.
type ckRun struct {
	results []*Result
	// events[p] are peer p's "checkpoint" trace events.
	events [][]obs.Event
	// trees[d] is the checkpoint dir as it stood once level d was settled
	// (its checkpoint, if it had one, prepared and committed), by relative
	// path. A cluster's cadence reads the distinct count of the level before,
	// so EveryStates 1 checkpoints every other level there.
	trees map[int]map[string][]byte
}

// runShape runs eqMachine on peers peers (1 = solo) with checkpoints in dir
// at every level, stopping at maxDepth (0 = none), resuming from dir if
// resume. capture fills trees from peer 0's level events: every other peer is
// then between its resolve and the next data barrier, so nothing is writing
// to dir.
func runShape(peers int, dir string, maxDepth int, resume, capture bool) *ckRun {
	r := &ckRun{events: make([][]obs.Event, peers), trees: map[int]map[string][]byte{}}
	opts := func(i int) Options {
		tr := obs.NewTracer(io.Discard)
		tr.Tee(func(e obs.Event) {
			switch {
			case e.Kind == "checkpoint":
				r.events[i] = append(r.events[i], e)
			case e.Kind == "level" && capture && i == 0:
				d, _ := strconv.Atoi(e.Detail["depth"])
				r.trees[d] = readTree(dir)
			}
		})
		return Options{Workers: 2, MaxDepth: maxDepth, Tracer: tr,
			Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1, Label: "eq", Resume: resume}}
	}
	if peers == 1 {
		r.results = []*Result{NewChecker(eqMachine(), opts(0)).Run()}
	} else {
		r.results = runClusterPeers(peers, opts, nil)
	}
	return r
}

// find returns the first depth past the first checkpoint at which a peer
// (peer p, or any if p < 0) prepared a checkpoint of kind, and that peer;
// depth 0 if none did.
func (r *ckRun) find(kind string, p int) (depth, peer int) {
	for q, evs := range r.events {
		for _, e := range evs {
			d, _ := strconv.Atoi(e.Detail["depth"])
			if (p < 0 || q == p) && d > 1 && e.Detail["kind"] == kind && e.Detail["error"] == "" && (depth == 0 || d < depth) {
				depth, peer = d, q
			}
		}
	}
	return depth, peer
}

// crashBefore is the checkpoint dir as a crash leaves it after every peer
// prepared the checkpoint at depth d and before the coordinator committed it:
// every file written by then, with the manifest still the one before.
func (r *ckRun) crashBefore(d int) map[string][]byte {
	tree := maps.Clone(r.trees[d])
	for rel, b := range r.trees[d-1] {
		if _, ok := tree[rel]; !ok {
			tree[rel] = b // what the commit at d collected
		}
	}
	tree[ManifestFile] = r.trees[d-1][ManifestFile]
	return tree
}

func readTree(dir string) map[string][]byte {
	tree := map[string][]byte{}
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if b, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(dir, path)
				tree[rel] = b
			}
		}
		return nil
	})
	return tree
}

func writeTree(t *testing.T, tree map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for rel, b := range tree {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// resumeShape resumes the shape from dir, failing the test unless every peer
// resumed cleanly.
func resumeShape(t *testing.T, peers int, dir string, maxDepth int) []*Result {
	t.Helper()
	r := runShape(peers, dir, maxDepth, true, false)
	for i, res := range r.results {
		if res.Err != nil || !res.Resumed {
			t.Fatalf("peer %d: resume: stop=%s err=%v resumed=%v", i, res.StopReason, res.Err, res.Resumed)
		}
	}
	return r.results
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestDeltaCrashWindows drives resume through each crash window of the
// commit protocol, for a solo run and for a 3-peer mesh: a torn tail beyond
// the committed length (crash mid-append), a block appended but never
// committed, and a new log a compaction started but never committed (crash
// between prepare and commit). Each resumes cleanly to the uninterrupted
// result with the uncommitted bytes gone; committed bytes that fail their CRC
// fail loudly. The mesh adds a checkpoint that failed on one peer while
// another compacted.
func TestDeltaCrashWindows(t *testing.T) {
	want := clusterSig(NewChecker(eqMachine(), Options{Workers: 2}).Run(), false)
	// finish resumes from dir to the end: the uninterrupted result.
	finish := func(t *testing.T, peers int, dir string) {
		t.Helper()
		for i, res := range resumeShape(t, peers, dir, 0) {
			if sig := clusterSig(res, false); sig != want {
				t.Errorf("resumed peer %d signature differs:\n%s\nwant:\n%s", i, sig, want)
			}
		}
	}
	full := make([]*ckRun, len(crashShapes))
	for i, shape := range crashShapes {
		full[i] = runShape(shape.peers, t.TempDir(), 0, false, true)
		for p, res := range full[i].results {
			if res.Err != nil || !res.Exhausted {
				t.Fatalf("%s: peer %d: stop=%s err=%v", shape.name, p, res.StopReason, res.Err)
			}
		}
	}
	forShapes := func(t *testing.T, test func(t *testing.T, peers int, full *ckRun)) {
		for i, shape := range crashShapes {
			t.Run(shape.name, func(t *testing.T) { test(t, shape.peers, full[i]) })
		}
	}

	t.Run("torn-tail", func(t *testing.T) {
		forShapes(t, func(t *testing.T, peers int, full *ckRun) {
			const d = 6
			dir := writeTree(t, full.trees[d])
			m := committed(t, dir)
			for p, pos := range m.Chains {
				f, err := os.OpenFile(filepath.Join(peerDir(dir, p, peers), pos.Log), os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				// Half a block header: magic then garbage, cut mid-payload.
				if _, err := f.Write(append([]byte(blockMagic), 0xde, 0xad, 0xbe)); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			resumeShape(t, peers, dir, m.Depth) // loads, then stops at once
			for p, pos := range m.Chains {
				if got := fileSize(t, filepath.Join(peerDir(dir, p, peers), pos.Log)); got != pos.Bytes {
					t.Errorf("peer %d: log holds %d bytes after resume, manifest commits %d", p, got, pos.Bytes)
				}
			}
			finish(t, peers, dir)
		})
	})

	t.Run("uncommitted-log", func(t *testing.T) {
		forShapes(t, func(t *testing.T, peers int, full *ckRun) {
			d, p := full.find("delta", -1)
			if d == 0 {
				t.Fatal("no delta block past the first checkpoint")
			}
			dir := writeTree(t, full.crashBefore(d))
			m := committed(t, dir)
			pos := m.Chains[p]
			log := filepath.Join(peerDir(dir, p, peers), pos.Log)
			if got := fileSize(t, log); got <= pos.Bytes {
				t.Fatalf("peer %d: log holds %d bytes, want the uncommitted block at depth %d past %d", p, got, d, pos.Bytes)
			}
			resumeShape(t, peers, dir, m.Depth)
			if got := fileSize(t, log); got != pos.Bytes {
				t.Errorf("peer %d: uncommitted block kept: log holds %d bytes, manifest commits %d", p, got, pos.Bytes)
			}
			finish(t, peers, dir)
		})
	})

	t.Run("stale-base", func(t *testing.T) {
		forShapes(t, func(t *testing.T, peers int, full *ckRun) {
			d, p := full.find("full", -1)
			if d == 0 {
				t.Fatal("no compaction past the first checkpoint")
			}
			var next manifest
			if err := json.Unmarshal(full.trees[d][ManifestFile], &next); err != nil {
				t.Fatal(err)
			}
			dir := writeTree(t, full.crashBefore(d))
			m := committed(t, dir)
			pdir := peerDir(dir, p, peers)
			stale, old := filepath.Join(pdir, next.Chains[p].Log), filepath.Join(pdir, m.Chains[p].Log)
			if _, err := os.Stat(stale); err != nil {
				t.Fatalf("peer %d: the uncommitted log of the compaction at depth %d: %v", p, d, err)
			}
			resumeShape(t, peers, dir, m.Depth)
			if _, err := os.Stat(stale); !os.IsNotExist(err) {
				t.Errorf("peer %d: uncommitted log %s not collected: %v", p, stale, err)
			}
			if _, err := os.Stat(old); err != nil {
				t.Errorf("peer %d: committed log gone: %v", p, err)
			}
			finish(t, peers, dir)
		})
	})

	t.Run("committed-corruption-fails-loudly", func(t *testing.T) {
		forShapes(t, func(t *testing.T, peers int, full *ckRun) {
			// The deepest checkpoint with a committed delta block on some peer.
			var dir string
			p := -1
			for d := len(full.trees); d > 0 && p < 0; d-- { // trees holds depths 1..len
				var m manifest
				if json.Unmarshal(full.trees[d][ManifestFile], &m) != nil {
					continue
				}
				for q, pos := range m.Chains {
					if pos.Blocks > 1 {
						dir, p = writeTree(t, full.trees[d]), q
						break
					}
				}
			}
			if p < 0 {
				t.Fatal("no committed delta block to corrupt")
			}
			log := filepath.Join(peerDir(dir, p, peers), committed(t, dir).Chains[p].Log)
			raw, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(log, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			r := runShape(peers, dir, 0, true, false)
			if res := r.results[p]; res.StopReason != "checkpoint-error" || res.Err == nil || !strings.Contains(res.Err.Error(), ".log") {
				t.Errorf("peer %d: resume over corrupt committed delta: stop=%s err=%v, want checkpoint-error naming the log", p, res.StopReason, res.Err)
			}
			for q, res := range r.results {
				if res.Err == nil {
					t.Errorf("peer %d resumed (stop=%s) beside a corrupt chain", q, res.StopReason)
				}
			}
		})
	})

	// ckWriterWrap fails peer 2's checkpoint at a depth where peer 1 compacts:
	// that checkpoint does not commit, and the next one names a log started
	// at the new depth for peer 1 and an older one for peer 2. Compaction depends on
	// byte counts that move with a header's elapsed-time digits, so a run
	// whose peer 1 happened not to compact where the survey said is retried.
	t.Run("failed-write-beside-compaction", func(t *testing.T) {
		for attempt := 1; ; attempt++ {
			survey := runShape(3, t.TempDir(), 0, false, false)
			d, _ := survey.find("full", 1)
			// Peer 2's checkpoint at d is its nth write; next is the depth of
			// the checkpoint after it.
			n, next := 0, 0
			for i, e := range survey.events[2] {
				switch at, _ := strconv.Atoi(e.Detail["depth"]); {
				case at == d:
					n = i + 1
				case n > 0 && next == 0:
					next = at
				}
			}
			if d == 0 || next == 0 {
				t.Fatal("peer 1 never compacts before the last checkpoint")
			}
			var wraps atomic.Int32
			orig := ckWriterWrap
			ckWriterWrap = func(w io.Writer) io.Writer {
				if f, ok := w.(*os.File); ok && filepath.Base(filepath.Dir(f.Name())) == "peer-2" && wraps.Add(1) == int32(n) {
					return &faultWriter{w: w, left: 16}
				}
				return w
			}
			dir := t.TempDir()
			r := runShape(3, dir, next, false, false)
			ckWriterWrap = orig
			for i, res := range r.results {
				if res.Err != nil {
					t.Fatalf("peer %d: %v", i, res.Err)
				}
			}
			if got, _ := r.find("full", 1); got != d {
				if attempt < 3 {
					continue
				}
				t.Fatalf("peer 1 compacted at depth %d, the survey said %d", got, d)
			}
			failed := false
			for _, e := range r.events[2] {
				failed = failed || e.Detail["depth"] == strconv.Itoa(d) && e.Detail["error"] != ""
			}
			if !failed {
				t.Fatalf("peer 2's checkpoint at depth %d did not fail", d)
			}
			m := committed(t, dir)
			baseDepth := func(p int) int {
				var bd int
				var nonce string
				fmt.Sscanf(m.Chains[p].Log, "chain-%d-%16s", &bd, &nonce)
				return bd
			}
			if m.Depth != next || baseDepth(1) != d || baseDepth(2) == d {
				t.Fatalf("manifest at depth %d names peer 1 log %s, peer 2 log %s; want depth %d, peer 1's log started at %d and peer 2's not",
					m.Depth, m.Chains[1].Log, m.Chains[2].Log, next, d)
			}
			finish(t, 3, dir)
			return
		}
	})
}

// faultWriter writes a short prefix then fails — the test's ENOSPC: a
// partial write lands on disk before the error surfaces.
type faultWriter struct {
	w    io.Writer
	left int
}

var errDiskFull = errors.New("injected: no space left on device")

func (fw *faultWriter) Write(p []byte) (int, error) {
	if fw.left <= 0 {
		return 0, errDiskFull
	}
	if len(p) > fw.left {
		n, _ := fw.w.Write(p[:fw.left])
		fw.left = 0
		return n, errDiskFull
	}
	fw.left -= len(p)
	return fw.w.Write(p)
}

// TestCheckpointENOSPC injects a write failure partway through the run's
// checkpoint sequence: the run must finish normally, the failure must
// surface as a checkpoint.errors tick plus a reporter warning, and the last
// successfully committed checkpoint must still resume.
func TestCheckpointENOSPC(t *testing.T) {
	// Let the first checkpoint (a log's first block) through intact, then
	// every later checkpoint write dies after a 16-byte partial write.
	wraps := 0
	orig := ckWriterWrap
	ckWriterWrap = func(w io.Writer) io.Writer {
		wraps++
		if wraps == 1 {
			return w
		}
		return &faultWriter{w: w, left: 16}
	}
	defer func() { ckWriterWrap = orig }()

	var warnings []string
	reg := obs.NewRegistry()
	dir := t.TempDir()
	res := NewChecker(newToy(3, true), Options{
		MaxDepth: 4,
		Metrics:  reg,
		Progress: func(p obs.Progress) {
			if p.Warning != "" {
				warnings = append(warnings, p.Warning)
			}
		},
		Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1},
	}).Run()
	if res.Err != nil {
		t.Fatalf("run aborted on checkpoint failure, must degrade gracefully: %v", res.Err)
	}
	if res.Checkpoints == 0 {
		t.Fatal("not even the first checkpoint landed; fault injection budget too small")
	}
	if got, _ := reg.Snapshot()["checkpoint.errors"].(int64); got == 0 {
		t.Error("no checkpoint.errors recorded despite injected write failures")
	}
	found := false
	for _, w := range warnings {
		if len(w) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no warning reached the progress reporter: %v", warnings)
	}

	// The surviving snapshot must be the last *successful* checkpoint and
	// must resume to the full result.
	ckWriterWrap = orig
	full := NewChecker(newToy(3, true), Options{}).Run()
	resumed := NewChecker(newToy(3, true), Options{
		Checkpoint: CheckpointOptions{Dir: dir, Resume: true},
	}).Run()
	if resumed.Err != nil {
		t.Fatalf("snapshot left by failing run does not resume: %v", resumed.Err)
	}
	if resumed.DistinctStates != full.DistinctStates {
		t.Errorf("resumed distinct=%d, want %d", resumed.DistinctStates, full.DistinctStates)
	}
}

// diskFault is how a faulted spill write fails once ok bytes are through:
// ENOSPC after a partial write, a short write with no error, or EIO with
// nothing written.
type diskFault struct {
	name string
	ok   int
}

var diskFaults = []diskFault{{"enospc", 10}, {"short-write", 10}, {"eio", 10}}

// faultingWriter lets f.ok bytes through w and then fails as f says.
type faultingWriter struct {
	w    io.Writer
	f    diskFault
	left int
}

func (fw *faultingWriter) Write(p []byte) (int, error) {
	if len(p) <= fw.left {
		fw.left -= len(p)
		return fw.w.Write(p)
	}
	n, _ := fw.w.Write(p[:fw.left])
	fw.left = 0
	switch fw.f.name {
	case "enospc":
		return n, syscall.ENOSPC
	case "short-write":
		return n, nil
	}
	return n, syscall.EIO
}

// TestSpillWriteFaults fails one spill write partway through a spilled
// level — the second frontier run, or the fingerprint set's second run —
// with ENOSPC, a short write and EIO, at one and two workers. The run keeps
// the level (or the set) in RAM and finishes with the unbudgeted run's
// counts, violations and traces; the failure surfaces as exactly one
// reporter warning and one spill-error trace event, the failed run file is
// gone by then, and the failed writer is never retried.
func TestSpillWriteFaults(t *testing.T) {
	opts := Options{StopAtFirstViolation: true, RecordVars: true}
	ref := NewChecker(bugMachine(), opts).Run()
	want := clusterSig(ref, false) + traceSig(ref)
	if len(ref.Violations) == 0 {
		t.Fatal("reference run found no violation")
	}
	origCk, origSet := ckWriterWrap, fpset.RunWriterWrap
	t.Cleanup(func() { ckWriterWrap, fpset.RunWriterWrap = origCk, origSet })
	for _, workers := range []int{1, 2} {
		for _, fault := range diskFaults {
			for _, target := range []string{"frontier", "fpset"} {
				t.Run(fmt.Sprintf("w%d/%s/%s", workers, target, fault.name), func(t *testing.T) {
					var calls int
					var failed string
					wrap := func(w io.Writer) io.Writer {
						if calls++; calls != 2 {
							return w
						}
						failed = w.(*os.File).Name()
						return &faultingWriter{w: w, f: fault, left: fault.ok}
					}
					ckWriterWrap, fpset.RunWriterWrap = origCk, origSet
					if target == "frontier" {
						ckWriterWrap = wrap
					} else {
						fpset.RunWriterWrap = wrap
					}
					var warnings, events []string
					tr := obs.NewTracer(io.Discard)
					tr.Tee(func(e obs.Event) {
						if e.Kind != "spill-error" {
							return
						}
						events = append(events, e.Detail["error"])
						if _, err := os.Stat(failed); !os.IsNotExist(err) {
							t.Errorf("partial run file %s left in the spill directory: %v", failed, err)
						}
					})
					o := opts
					o.Workers, o.MemBudget, o.SpillDir, o.Tracer = workers, 64<<10, t.TempDir(), tr
					o.Progress = func(p obs.Progress) {
						if p.Warning != "" {
							warnings = append(warnings, p.Warning)
						}
					}
					res := NewChecker(bugMachine(), o).Run()
					if got := clusterSig(res, false) + traceSig(res); got != want {
						t.Errorf("faulted run differs:\n%s\nwant:\n%s", got, want)
					}
					if failed == "" || calls != 2 {
						t.Fatalf("%d %s run writes, want the faulted second one and no retry (%s; events %q)", calls, target, failed, events)
					}
					if len(warnings) != 1 || len(events) != 1 {
						t.Errorf("warnings %q, spill-error events %q; want one of each", warnings, events)
					}
				})
			}
		}
	}
}
