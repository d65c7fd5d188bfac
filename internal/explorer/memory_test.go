package explorer

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
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

// coverSignature renders a coverage profile for equality comparison across
// the spill boundary. Fingerprint-set probe counts are zeroed first: spilling
// rebuilds hash tables at different sizes, so probe counts (a cost metric,
// not a result) legitimately differ between spilled and in-RAM runs. With
// workers > 1, per-action fresh attribution is zeroed too: when two actions
// produce the same fingerprint at the same level, which one gets the fresh
// credit is decided by a concurrent insert race, so attribution is canonical
// only for single-worker (and cluster) runs — per-level fresh totals and
// per-action fired counts stay deterministic and are still compared.
func coverSignature(t *testing.T, cover *obs.Cover, workers int) string {
	t.Helper()
	cp := *cover
	cp.Levels = append([]obs.LevelStats(nil), cover.Levels...)
	for i := range cp.Levels {
		cp.Levels[i].FpsetProbes = 0
	}
	if workers > 1 {
		cp.Actions = make(map[string]*obs.ActionStats, len(cover.Actions))
		for name, a := range cover.Actions {
			ac := *a
			ac.Fresh, ac.LastFreshDepth = 0, 0
			cp.Actions[name] = &ac
		}
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// budgetMachines are the models the out-of-core gates run over: the toy
// (exactly analysable, violating) and zabkeeper (a real distributed-system
// state through the codec). boundaryDepth is a level boundary roughly midway
// through the space.
var budgetMachines = []struct {
	name          string
	mk            func() spec.Machine
	boundaryDepth int
}{
	{"toy", func() spec.Machine { return newToy(6, false) }, 6},
	{"zabkeeper", zabMachine, 14},
}

// TestMemBudgetEquivalence is the tentpole guarantee: a run under a memory
// budget tiny enough to force both fingerprint-set and frontier spilling
// reports byte-identical results — every counter, every violation with its
// reconstructed trace, and the full coverage profile (modulo probe counts) —
// as the unbudgeted in-RAM run, at every worker count.
func TestMemBudgetEquivalence(t *testing.T) {
	for _, m := range budgetMachines {
		t.Run(m.name, func(t *testing.T) {
			base := Options{RecordVars: true, Cover: true}
			// The reference is the canonical single-worker run: at Workers 0
			// (= NumCPU) its own per-action fresh attribution would be raced.
			refOpts := base
			refOpts.Workers = 1
			ref := NewChecker(m.mk(), refOpts).Run()
			if ref.Err != nil || !ref.Exhausted {
				t.Fatalf("reference run: err=%v stop=%s", ref.Err, ref.StopReason)
			}
			refSig := resultSignature(t, ref)

			for _, workers := range []int{1, 4} {
				reg := obs.NewRegistry()
				opts := base
				opts.Workers = workers
				opts.MemBudget = 64 << 10 // far below the working set
				opts.SpillDir = t.TempDir()
				opts.Metrics = reg
				res := NewChecker(m.mk(), opts).Run()
				if res.Err != nil {
					t.Fatalf("workers=%d budgeted run failed: %v", workers, res.Err)
				}
				if got := resultSignature(t, res); got != refSig {
					t.Errorf("workers=%d budgeted result differs from in-RAM run:\n--- budgeted\n%s--- in-RAM\n%s", workers, got, refSig)
				}
				refCover := coverSignature(t, ref.Cover, workers)
				if got := coverSignature(t, res.Cover, workers); got != refCover {
					t.Errorf("workers=%d budgeted coverage differs from in-RAM run:\ngot  %s\nwant %s", workers, got, refCover)
				}
				snap := reg.Snapshot()
				if got, _ := snap["fpset.spilled_entries"].(int64); got == 0 {
					t.Errorf("workers=%d: fingerprint set never spilled (budget did not engage): %v", workers, snap)
				}
				if got, _ := snap["explorer.frontier_spilled_entries"].(int64); got == 0 {
					t.Errorf("workers=%d: frontier never spilled (budget did not engage)", workers)
				}
				if _, err := os.Stat(opts.SpillDir); err != nil {
					t.Errorf("workers=%d: spill base dir vanished: %v", workers, err)
				}
				ents, err := os.ReadDir(opts.SpillDir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Errorf("workers=%d: spill scratch not cleaned up: %v", workers, ents)
				}
			}
		})
	}
}

// TestDeltaCheckpointChain asserts the incremental path engages: with a
// per-level cadence the first checkpoint is a full snapshot and later ones
// append delta blocks, and a resume over base+deltas matches the
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
	if _, err := os.Stat(filepath.Join(dir, deltaFile)); err != nil {
		t.Fatalf("delta log missing: %v", err)
	}
	cb, err := os.ReadFile(filepath.Join(dir, commitFile))
	if err != nil {
		t.Fatalf("commit record missing: %v", err)
	}
	var rec commitRecord
	if err := json.Unmarshal(cb, &rec); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, deltaFile)); err != nil || st.Size() != rec.DeltaBytes {
		t.Errorf("commit names %d delta bytes, log holds %d", rec.DeltaBytes, st.Size())
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

// deltaChainDir writes a base snapshot plus at least one committed delta
// block into a fresh directory, returning it.
func deltaChainDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	res := NewChecker(newToy(3, true), Options{
		MaxDepth:   4,
		Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1},
	}).Run()
	if res.Err != nil {
		t.Fatalf("chain-writing run failed: %v", res.Err)
	}
	if _, err := os.Stat(filepath.Join(dir, commitFile)); err != nil {
		t.Fatalf("no committed chain: %v", err)
	}
	return dir
}

// resumeDistinct resumes from dir and returns the final distinct-state count,
// failing the test on any resume error.
func resumeDistinct(t *testing.T, dir string) int {
	t.Helper()
	res := NewChecker(newToy(3, true), Options{
		Checkpoint: CheckpointOptions{Dir: dir, Resume: true},
	}).Run()
	if res.Err != nil {
		t.Fatalf("resume failed: %v", res.Err)
	}
	if !res.Exhausted {
		t.Fatalf("resumed run did not exhaust: %s", res.StopReason)
	}
	return res.DistinctStates
}

// TestDeltaCrashWindows drives resume through each crash window of the
// commit protocol: a torn tail beyond the committed length (crash
// mid-append), a delta log with no commit record (crash before the first
// commit), and a chain whose commit names a different base (crash during
// compaction). All three must resume cleanly; committed-but-corrupt bytes
// must fail loudly.
func TestDeltaCrashWindows(t *testing.T) {
	want := NewChecker(newToy(3, true), Options{}).Run().DistinctStates

	t.Run("torn-tail", func(t *testing.T) {
		dir := deltaChainDir(t)
		f, err := os.OpenFile(filepath.Join(dir, deltaFile), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Half a block header: magic then garbage, cut mid-payload.
		if _, err := f.Write(append([]byte(deltaMagic), 0xde, 0xad, 0xbe)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if got := resumeDistinct(t, dir); got != want {
			t.Errorf("distinct after torn-tail resume = %d, want %d", got, want)
		}
	})

	t.Run("uncommitted-log", func(t *testing.T) {
		dir := deltaChainDir(t)
		if err := os.Remove(filepath.Join(dir, commitFile)); err != nil {
			t.Fatal(err)
		}
		// Resume must fall back to the base snapshot alone and still converge.
		if got := resumeDistinct(t, dir); got != want {
			t.Errorf("distinct after uncommitted-log resume = %d, want %d", got, want)
		}
		if _, err := os.Stat(filepath.Join(dir, deltaFile)); !os.IsNotExist(err) {
			t.Errorf("uncommitted delta log not cleared: %v", err)
		}
	})

	t.Run("stale-base", func(t *testing.T) {
		dir := deltaChainDir(t)
		cb, err := os.ReadFile(filepath.Join(dir, commitFile))
		if err != nil {
			t.Fatal(err)
		}
		var rec commitRecord
		if err := json.Unmarshal(cb, &rec); err != nil {
			t.Fatal(err)
		}
		rec.BaseCRC ^= 0xffffffff
		out, _ := json.Marshal(rec)
		if err := os.WriteFile(filepath.Join(dir, commitFile), out, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := resumeDistinct(t, dir); got != want {
			t.Errorf("distinct after stale-base resume = %d, want %d", got, want)
		}
		if _, err := os.Stat(filepath.Join(dir, commitFile)); !os.IsNotExist(err) {
			t.Errorf("stale commit record not cleared: %v", err)
		}
	})

	t.Run("committed-corruption-fails-loudly", func(t *testing.T) {
		dir := deltaChainDir(t)
		raw, err := os.ReadFile(filepath.Join(dir, deltaFile))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, deltaFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		res := NewChecker(newToy(3, true), Options{
			Checkpoint: CheckpointOptions{Dir: dir, Resume: true},
		}).Run()
		if res.Err == nil {
			t.Fatal("resume over corrupt committed delta succeeded, want loud failure")
		}
		if res.StopReason != "checkpoint-error" {
			t.Errorf("stop reason %q, want checkpoint-error", res.StopReason)
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
	// Let the first checkpoint (full base snapshot) through intact, then
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
		ProgressStates: 1,
		Checkpoint:     CheckpointOptions{Dir: dir, EveryStates: 1},
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

// TestKillAndResumeUnderBudget is the spill-path resume guarantee: a
// budget-constrained run interrupted both mid-level (max-states inside a
// level) and at a level boundary (max-depth) resumes to byte-identical
// results — counters, violations, coverage — as an uninterrupted in-RAM run.
func TestKillAndResumeUnderBudget(t *testing.T) {
	for _, m := range budgetMachines {
		base := Options{RecordVars: true, Cover: true}
		ref := NewChecker(m.mk(), base).Run()
		if !ref.Exhausted {
			t.Fatalf("%s reference run did not exhaust: %s", m.name, ref.StopReason)
		}
		refSig := resultSignature(t, ref)

		budgeted := func(dir string) Options {
			o := base
			o.MemBudget = 64 << 10
			o.SpillDir = filepath.Join(dir, "spill")
			o.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: 1}
			return o
		}

		interruptions := []struct {
			name string
			stop func(o *Options)
		}{
			// Level boundary: the checkpoint at that depth is complete and the
			// next level's spill files are gone when the process "dies".
			{"at-level-boundary", func(o *Options) { o.MaxDepth = m.boundaryDepth }},
			// Mid-level: the bound trips inside a level's block loop, while the
			// level being consumed and the set both live partly on disk; the
			// checkpoint layer must fall back to the last complete level.
			{"mid-level", func(o *Options) { o.MaxStates = ref.DistinctStates / 2 }},
		}
		for _, ic := range interruptions {
			t.Run(m.name+"/"+ic.name, func(t *testing.T) {
				dir := t.TempDir()
				opts := budgeted(dir)
				ic.stop(&opts)
				reg := obs.NewRegistry()
				opts.Metrics = reg
				res := NewChecker(m.mk(), opts).Run()
				if res.Err != nil {
					t.Fatalf("interrupted budgeted run failed: %v", res.Err)
				}
				if res.Checkpoints == 0 {
					t.Fatal("interrupted run wrote no checkpoints")
				}
				if got, _ := reg.Snapshot()["fpset.spilled_entries"].(int64); got == 0 {
					t.Fatal("interrupted run never spilled; budget did not engage")
				}

				// Resume under the same budget; spill scratch from the "killed"
				// run is inert — the resume builds its own.
				ropts := budgeted(dir)
				ropts.Checkpoint.EveryStates = 0
				ropts.Checkpoint.Resume = true
				resumed := NewChecker(m.mk(), ropts).Run()
				if resumed.Err != nil {
					t.Fatalf("resume failed: %v", resumed.Err)
				}
				if got := resultSignature(t, resumed); got != refSig {
					t.Errorf("resumed budgeted result differs from uninterrupted in-RAM run:\n--- resumed\n%s--- in-RAM\n%s", got, refSig)
				}
			})
		}
	}
}
