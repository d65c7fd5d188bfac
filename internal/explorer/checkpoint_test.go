package explorer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// interrupt runs the machine with checkpointing on and a depth bound that
// stops the run before the space is exhausted — the test stand-in for a
// killed process. Every completed level writes a checkpoint (EveryStates: 1),
// so the manifest in dir afterwards commits the last complete level.
func interrupt(t *testing.T, dir string, maxDepth int, atomic bool, base Options) *Result {
	t.Helper()
	opts := base
	opts.MaxDepth = maxDepth
	opts.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: 1, Label: base.Checkpoint.Label}
	res := NewChecker(newToy(3, atomic), opts).Run()
	if res.Err != nil {
		t.Fatalf("interrupted run failed: %v", res.Err)
	}
	if res.Checkpoints == 0 {
		t.Fatal("interrupted run wrote no checkpoints")
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatalf("no committed checkpoint on disk: %v", err)
	}
	return res
}

// committed parses the manifest committed in dir.
func committed(t testing.TB, dir string) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// peerDir is where peer keeps its chain under dir: dir itself in a solo run
// (peers == 1).
func peerDir(dir string, peer, peers int) string {
	if peers == 1 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("peer-%d", peer))
}

// committedLog is the path of the chain log the manifest in dir names for
// the solo run that wrote it.
func committedLog(t testing.TB, dir string) string {
	t.Helper()
	return filepath.Join(dir, committed(t, dir).Chains[0].Log)
}

// sealBlocks gives every block of log whose payload length fits what
// remains a valid checksum, in place, so that edits reach the block reader.
func sealBlocks(log []byte) {
	le := binary.LittleEndian
	for off := 0; off+blockHead <= len(log); {
		plen := le.Uint64(log[off+8:])
		if plen > uint64(len(log)-off-blockHead) {
			return
		}
		end := off + blockHead + int(plen)
		le.PutUint32(log[off+16:], crc32.ChecksumIEEE(log[off+blockHead:end]))
		off = end
	}
}

// TestResumeFindsSameCounterexample checks the other half of the resume
// guarantee: a violation found after resuming is the same violation (same
// invariant, depth, and state) the uninterrupted run reports, with a
// reconstructible trace.
func TestResumeFindsSameCounterexample(t *testing.T) {
	base := Options{StopAtFirstViolation: true, RecordVars: true}
	full := NewChecker(newToy(3, false), base).Run()
	fv := full.FirstViolation()
	if fv == nil {
		t.Fatal("reference run found no violation")
	}

	dir := t.TempDir()
	// The toy's minimal counterexample is at depth 4; stop at depth 2 so the
	// snapshot predates the violation.
	interrupt(t, dir, 2, false, base)

	opts := base
	opts.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
	resumed := NewChecker(newToy(3, false), opts).Run()
	if resumed.Err != nil {
		t.Fatalf("resume failed: %v", resumed.Err)
	}
	rv := resumed.FirstViolation()
	if rv == nil {
		t.Fatal("resumed run found no violation")
	}
	if rv.Invariant != fv.Invariant || rv.Depth != fv.Depth || rv.fp != fv.fp {
		t.Errorf("counterexample differs: resumed (%s, depth %d, fp %#x), uninterrupted (%s, depth %d, fp %#x)",
			rv.Invariant, rv.Depth, rv.fp, fv.Invariant, fv.Depth, fv.fp)
	}
	if resumed.DistinctStates != full.DistinctStates {
		t.Errorf("distinct states at violation: resumed %d, uninterrupted %d",
			resumed.DistinctStates, full.DistinctStates)
	}
	if rv.Trace == nil || rv.Trace.Depth() != rv.Depth {
		t.Errorf("resumed counterexample trace not reconstructed (trace %v)", rv.Trace)
	}
}

// TestResumeFailsLoudly enumerates the refusal cases: a resume must surface
// Result.Err (StopReason "checkpoint-error") rather than silently starting
// over.
func TestResumeFailsLoudly(t *testing.T) {
	resumeErr := func(t *testing.T, dir string, opts Options) error {
		t.Helper()
		o := opts
		o.Checkpoint.Dir = dir
		o.Checkpoint.Resume = true
		res := NewChecker(newToy(3, true), o).Run()
		if res.Err == nil {
			t.Fatal("resume succeeded, want error")
		}
		if res.StopReason != "checkpoint-error" {
			t.Fatalf("stop reason %q, want checkpoint-error", res.StopReason)
		}
		if res.DistinctStates != 0 {
			t.Fatalf("failed resume explored %d states", res.DistinctStates)
		}
		return res.Err
	}

	t.Run("missing", func(t *testing.T) {
		resumeErr(t, t.TempDir(), Options{})
	})

	// The log's first block: one flipped byte in its payload, then the log
	// cut short inside it. Each fails by name.
	firstBlock := func(t *testing.T, dir string) (path string, log []byte, end int) {
		t.Helper()
		interrupt(t, dir, 2, true, Options{})
		path = committedLog(t, dir)
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, log, blockHead + int(binary.LittleEndian.Uint64(log[8:]))
	}

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		path, log, end := firstBlock(t, dir)
		log[end/2] ^= 0xff
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(t, dir, Options{}); !strings.Contains(err.Error(), "block 0 at offset 0: checksum mismatch") {
			t.Errorf("corrupt first block error = %v, want its checksum mismatch", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		dir := t.TempDir()
		path, log, end := firstBlock(t, dir)
		if err := os.WriteFile(path, log[:end/2], 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d bytes committed, the log holds %d", committed(t, dir).Chains[0].Bytes, end/2)
		if err := resumeErr(t, dir, Options{}); !strings.Contains(err.Error(), want) {
			t.Errorf("truncated first block error = %v, want %q", err, want)
		}
	})

	// A directory written before the checkpoint manifest existed — a
	// snapshot under a fixed name, committed by a record of its own — has no
	// manifest: the resume names the format instead of starting over.
	t.Run("earlier-format", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.snap"), []byte("version 2 snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(t, dir, Options{}); !strings.Contains(err.Error(), fmt.Sprintf("checkpoint format version %d", snapVersion)) {
			t.Errorf("earlier-format error = %v, want one naming the checkpoint format", err)
		}
	})

	// A directory the previous format wrote (its manifest says version 4)
	// is refused by the version it carries, not read with this build's
	// state encoding.
	t.Run("previous-version", func(t *testing.T) {
		dir := t.TempDir()
		interrupt(t, dir, 2, true, Options{})
		m := committed(t, dir)
		m.Version = snapVersion - 1
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("checkpoint format version %d, this build reads %d", snapVersion-1, snapVersion)
		if err := resumeErr(t, dir, Options{}); !strings.Contains(err.Error(), want) {
			t.Errorf("previous-version error = %v, want %q", err, want)
		}
	})

	t.Run("different-model", func(t *testing.T) {
		dir := t.TempDir()
		interrupt(t, dir, 2, true, Options{})
		// Same machine name, different initial state (4 processes instead of
		// 3): caught by the init digest.
		o := Options{Checkpoint: CheckpointOptions{Dir: dir, Resume: true}}
		res := NewChecker(newToy(4, true), o).Run()
		if res.Err == nil || !strings.Contains(res.Err.Error(), "digest") {
			t.Errorf("different-model resume error = %v, want digest mismatch", res.Err)
		}
	})

	t.Run("different-symmetry", func(t *testing.T) {
		dir := t.TempDir()
		interrupt(t, dir, 2, true, Options{})
		if err := resumeErr(t, dir, Options{Symmetry: true}); !strings.Contains(err.Error(), "symmetry") {
			t.Errorf("symmetry-mismatch error = %v", err)
		}
	})

	t.Run("different-label", func(t *testing.T) {
		dir := t.TempDir()
		interrupt(t, dir, 2, true, Options{Checkpoint: CheckpointOptions{Label: "toy/3/atomic"}})
		o := Options{Checkpoint: CheckpointOptions{Label: "toy/5/crash"}}
		if err := resumeErr(t, dir, o); !strings.Contains(err.Error(), "label") {
			t.Errorf("label-mismatch error = %v", err)
		}
	})
}

// TestResumeRefusesVersion3 resumes a directory as the previous format left
// it — a version-3 manifest naming each peer's base snapshot and the delta
// log beside it — solo and as two peers: every peer stops with a
// checkpoint-error naming the format, and no file of the old chain is
// touched.
func TestResumeRefusesVersion3(t *testing.T) {
	for _, peers := range []int{1, 2} {
		t.Run(fmt.Sprintf("peers=%d", peers), func(t *testing.T) {
			dir := t.TempDir()
			ident := NewChecker(eqMachine(), Options{}).identity()
			if peers > 1 {
				ident.Peers, ident.Partition = peers, transport.PartitionVersion
			}
			type v3Pos struct {
				Base       string `json:"base"`
				DeltaBytes int64  `json:"delta_bytes"`
				Deltas     int    `json:"deltas"`
			}
			man := struct {
				Version int `json:"version"`
				runIdentity
				Depth  int     `json:"depth"`
				Chains []v3Pos `json:"chains"`
			}{Version: 3, runIdentity: ident, Depth: 2}
			var files []string
			for p := 0; p < peers; p++ {
				man.Chains = append(man.Chains, v3Pos{Base: "chain-000001-0123456789abcdef.snap", DeltaBytes: 5, Deltas: 1})
				for _, ext := range []string{".snap", ".delta"} {
					files = append(files, filepath.Join(peerDir(dir, p, peers), "chain-000001-0123456789abcdef"+ext))
				}
			}
			raw, err := json.Marshal(man)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, filepath.Join(dir, ManifestFile))
			for _, path := range files {
				content := []byte("old")
				if filepath.Base(path) == ManifestFile {
					content = raw
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			opts := func(int) Options {
				return Options{Workers: 1, Checkpoint: CheckpointOptions{Dir: dir, Resume: true}}
			}
			results := []*Result{nil}
			if peers == 1 {
				results[0] = NewChecker(eqMachine(), opts(0)).Run()
			} else {
				results = runClusterPeers(peers, opts, nil)
			}
			want := fmt.Sprintf("checkpoint format version 3, this build reads %d", snapVersion)
			for i, res := range results {
				if res.StopReason != "checkpoint-error" || res.Err == nil || !strings.Contains(res.Err.Error(), want) {
					t.Errorf("peer %d: stop=%s err=%v, want checkpoint-error naming %q", i, res.StopReason, res.Err, want)
				}
			}
			for _, path := range files {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("refused resume touched %s: %v", path, err)
				}
			}
		})
	}
}

// TestReadLogChecksEveryBlock: a later block's header is held to the run
// identity, the peer and an increasing depth just as the first block's is;
// and since a block's fingerprint records run to the end of its payload,
// their byte count must be a whole number of records — a first block sealed
// with five bytes cut off its end, checksum and length valid, is refused by
// name.
func TestReadLogChecksEveryBlock(t *testing.T) {
	blocksOf := func(label string) [][]byte {
		dir := t.TempDir()
		interrupt(t, dir, 3, true, Options{Checkpoint: CheckpointOptions{Label: label}})
		raw, err := os.ReadFile(committedLog(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		var blocks [][]byte
		for len(raw) > 0 {
			n := blockHead + int(binary.LittleEndian.Uint64(raw[8:]))
			blocks, raw = append(blocks, raw[:n]), raw[n:]
		}
		if len(blocks) < 2 {
			t.Fatalf("want a log of several blocks, got %d", len(blocks))
		}
		return blocks
	}
	mine, other := blocksOf("toy"), blocksOf("other")
	cut := slices.Clone(mine[0][:len(mine[0])-5])
	binary.LittleEndian.PutUint64(cut[8:], uint64(len(cut)-blockHead))
	sealBlocks(cut)
	for _, tc := range []struct {
		name string
		log  []byte
		peer int
		want string
	}{
		{"intact", slices.Concat(mine...), 0, ""},
		{"other-peer", slices.Concat(mine...), 1, "block 0 at offset 0: written by peer 0, this is peer 1"},
		{"other-run", slices.Concat(mine[0], other[1]), 0, `checkpoint label "other", this run is "toy"`},
		{"repeated-depth", slices.Concat(mine[0], mine[1], mine[1]), 0, "does not follow the previous block's"},
		{"partial-record", cut, 0, "not a whole number of 20-byte records"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker(newToy(3, true), Options{Checkpoint: CheckpointOptions{Label: "toy"}})
			c.ident = c.identity()
			_, err := c.readLog("log", tc.log, tc.peer)
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("err=%v, want %q", err, tc.want)
			}
		})
	}
}

// TestResumeDoesNotReexplore pins what a resume costs: restoring a depth-d
// snapshot and stopping at MaxDepth d generates no transitions at all and
// canonicalizes each frontier state exactly once (the load-time proof that
// the state hashes to its recorded fingerprint) — nothing of the explored
// interior is touched.
func TestResumeDoesNotReexplore(t *testing.T) {
	const d = 3
	dir := t.TempDir()
	first := interrupt(t, dir, d, true, Options{Symmetry: true, Cover: true})
	frontier := first.Cover.Levels[d].Fresh

	if m := committed(t, dir); m.Chains[0].Blocks < 2 {
		t.Fatalf("want a log of several blocks on disk, so the first block's frontier is one resume must skip: %+v", m)
	}

	reg := obs.NewRegistry()
	m := &decodeCounter{LostUpdate: &toy.LostUpdate{N: 3, Atomic: true}}
	resumed := NewChecker(m, Options{
		Symmetry: true, MaxDepth: d, Metrics: reg,
		Checkpoint: CheckpointOptions{Dir: dir, Resume: true},
	}).Run()
	if resumed.Err != nil || resumed.StopReason != "max-depth" {
		t.Fatalf("resumed run: err=%v stop=%s, want a clean max-depth stop", resumed.Err, resumed.StopReason)
	}
	if resumed.Transitions != first.Transitions || resumed.DistinctStates != first.DistinctStates {
		t.Errorf("resume did work: transitions %d -> %d, distinct %d -> %d",
			first.Transitions, resumed.Transitions, first.DistinctStates, resumed.DistinctStates)
	}
	if got, _ := reg.Snapshot()["explorer.canonical.orbit"].(int64); got != int64(frontier) || frontier == 0 {
		t.Errorf("resume canonicalized %d states, want exactly the %d frontier states", got, frontier)
	}
	if m.decoded != frontier {
		t.Errorf("resume decoded %d states, want exactly the %d frontier states", m.decoded, frontier)
	}
}

// decodeCounter counts the states a run decodes.
type decodeCounter struct {
	*toy.LostUpdate
	decoded int
}

func (m *decodeCounter) DecodeState(src []byte) (spec.State, []byte, error) {
	m.decoded++
	return m.LostUpdate.DecodeState(src)
}

// TestResumeRejectsForgedFrontier: a block whose checksum is valid but
// whose frontier lies — a record's state does not hash to the fingerprint
// recorded beside it — must fail the resume, never seed a wrong search. The
// run stops after its first checkpoint, so the first block's frontier is the
// one a resume restores.
func TestResumeRejectsForgedFrontier(t *testing.T) {
	dir := t.TempDir()
	interrupt(t, dir, 1, true, Options{})
	if m := committed(t, dir); m.Chains[0].Blocks != 1 {
		t.Fatalf("want a one-block log: %+v", m)
	}
	path := committedLog(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First frontier record: past the block head, header length, header and
	// frontier count, then fp[8] encLen[4]. The toy encoding opens with Mem
	// as a one-byte varint; flipping a value bit yields another decodable
	// state.
	hlen := int(binary.LittleEndian.Uint32(raw[blockHead:]))
	state := blockHead + 4 + hlen + 8 + frontierRecHeader
	raw[state] ^= 0x02
	sealBlocks(raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res := NewChecker(newToy(3, true), Options{Checkpoint: CheckpointOptions{Dir: dir, Resume: true}}).Run()
	if res.StopReason != "checkpoint-error" || res.Err == nil || !strings.Contains(res.Err.Error(), "canonicalizes") {
		t.Fatalf("forged frontier: stop=%s err=%v, want checkpoint-error naming the mismatched state", res.StopReason, res.Err)
	}
	if res.DistinctStates != 0 {
		t.Fatalf("failed resume explored %d states", res.DistinctStates)
	}
}

// TestCheckpointObservability checks the side channels: the checkpoints
// counter in the metrics registry, the "checkpoint" tracer events, and the
// checkpoint phase timer — the same for a single-process snapshot and for
// every peer's snapshot in a cluster, which go through one call site.
func TestCheckpointObservability(t *testing.T) {
	for _, peers := range []int{1, 2} {
		t.Run(fmt.Sprintf("peers=%d", peers), func(t *testing.T) {
			dir := t.TempDir()
			regs := make([]*obs.Registry, peers)
			bufs := make([]bytes.Buffer, peers)
			trs := make([]*obs.Tracer, peers)
			opts := func(i int) Options {
				regs[i], trs[i] = obs.NewRegistry(), obs.NewTracer(&bufs[i])
				return Options{
					Metrics:    regs[i],
					Tracer:     trs[i],
					MaxDepth:   3,
					Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1},
				}
			}
			results := []*Result{nil}
			if peers == 1 {
				results[0] = NewChecker(eqMachine(), opts(0)).Run()
			} else {
				results = runClusterPeers(peers, opts, nil)
			}
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("peer %d: %v", i, res.Err)
				}
				if res.Checkpoints == 0 {
					t.Fatalf("peer %d: no checkpoints written", i)
				}
				snap := regs[i].Snapshot()
				if got := snap["checkpoints"].(int64); got != int64(res.Checkpoints) {
					t.Errorf("peer %d: checkpoints counter = %v, want %d", i, got, res.Checkpoints)
				}
				if _, ok := snap["phase.checkpoint_ns"]; !ok {
					t.Errorf("peer %d: no checkpoint phase timer in snapshot: %v", i, snap)
				}
				if err := trs[i].Flush(); err != nil {
					t.Fatal(err)
				}
				evs, err := obs.ReadEvents(&bufs[i])
				if err != nil {
					t.Fatal(err)
				}
				ckEvents := 0
				for _, ev := range evs {
					if ev.Kind == "checkpoint" {
						ckEvents++
						if ev.Detail["kind"] == "" || ev.Detail["depth"] == "" || ev.Detail["distinct"] == "" || ev.Detail["frontier"] == "" {
							t.Errorf("peer %d: checkpoint event missing detail: %+v", i, ev)
						}
					}
				}
				if ckEvents != res.Checkpoints {
					t.Errorf("peer %d: tracer saw %d checkpoint events, result counted %d", i, ckEvents, res.Checkpoints)
				}
			}
		})
	}
}

// TestCheckpointSkipsPartialLevels: a run stopped mid-level (max-states hit
// inside a level's block loop) must not snapshot the incomplete frontier; the
// previous complete-level snapshot stays authoritative.
func TestCheckpointSkipsPartialLevels(t *testing.T) {
	dir := t.TempDir()
	// MaxStates small enough to trip mid-exploration; EveryStates 1 so every
	// complete level would checkpoint.
	res := NewChecker(newToy(4, true), Options{
		MaxStates:  10,
		Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1},
	}).Run()
	if res.StopReason != "max-states" {
		t.Skipf("toy space too small to trip max-states: %s", res.StopReason)
	}
	// Whatever was written must resume cleanly (i.e. describe a complete
	// level), or nothing was written at all.
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
		return
	}
	resumed := NewChecker(newToy(4, true), Options{
		Checkpoint: CheckpointOptions{Dir: dir, Resume: true},
	}).Run()
	if resumed.Err != nil {
		t.Fatalf("snapshot from a max-states run does not resume: %v", resumed.Err)
	}
	full := NewChecker(newToy(4, true), Options{}).Run()
	if resumed.DistinctStates != full.DistinctStates {
		t.Errorf("resumed distinct %d, uninterrupted %d", resumed.DistinctStates, full.DistinctStates)
	}
}

// TestCollectKeepsNonChainFiles: garbage collection deletes chain logs the
// manifest does not name — and nothing else: not the manifest, not a temp
// file, not a spill directory, not a file that only resembles a chain log.
func TestCollectKeepsNonChainFiles(t *testing.T) {
	const log = "chain-000004-0123456789abcdef.log"
	garbage := []string{"chain-000002-0123456789abcdef.log", "chain-000007-fedcba9876543210.log"}
	kept := []string{
		log, ManifestFile, "ck-123.tmp", "checkpoint.snap", "notes.txt", "chain-000002-0123456789abcdef.snap",
		"chain-000002-0123456789abcdef.log.bak", "chain-2-XYZ.log", "chain-000002-0123456789abcde.log",
	}
	dir := t.TempDir()
	for _, name := range append(garbage, kept...) {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spill := filepath.Join(dir, "chain-000001-0123456789abcdef.log") // a directory, not a chain log
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	collect(dir, log)
	for _, name := range garbage {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("garbage %s survived: %v", name, err)
		}
	}
	for _, name := range append(kept, filepath.Base(spill)) {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s was deleted: %v", name, err)
		}
	}
}

// TestCheckpointCadence drives the checkpoint cadence with a virtual clock:
// the state-count trigger, the interval trigger, the default interval when
// neither is set, and a restart on settle whether or not the checkpoint
// landed.
func TestCheckpointCadence(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }

	cd := newCadence(CheckpointOptions{EveryStates: 500}, now)
	if cd.due(499) {
		t.Fatal("due below the state count")
	}
	clock = clock.Add(time.Hour)
	if cd.due(499) {
		t.Fatal("a state-count cadence fired on the clock")
	}
	if !cd.due(500) {
		t.Fatal("not due at the state count")
	}
	cd.restart(500)
	if cd.due(999) {
		t.Fatal("state count not restarted")
	}
	if !cd.due(1000) {
		t.Fatal("second state count not due")
	}

	cd = newCadence(CheckpointOptions{Interval: 10 * time.Second}, now)
	clock = clock.Add(10*time.Second - time.Nanosecond)
	if cd.due(1 << 30) {
		t.Fatal("an interval cadence fired on the state count")
	}
	clock = clock.Add(time.Nanosecond)
	if !cd.due(0) {
		t.Fatal("not due at the interval")
	}
	cd.restart(0)
	if cd.due(0) {
		t.Fatal("interval not restarted")
	}

	cd = newCadence(CheckpointOptions{}, now)
	clock = clock.Add(defaultCheckpointInterval - time.Nanosecond)
	if cd.due(1 << 30) {
		t.Fatal("due before the default interval")
	}
	clock = clock.Add(time.Nanosecond)
	if !cd.due(0) {
		t.Fatal("not due at the default interval")
	}

	c := NewChecker(newToy(3, false), Options{Checkpoint: CheckpointOptions{Dir: t.TempDir(), EveryStates: 100}})
	ck := c.newCheckpointer(nil, nil)
	ck.cadence = newCadence(c.opts.Checkpoint, now)
	// The first attempt lands and counts, the second fails and does not;
	// both restart the cadence.
	res := &Result{}
	for i, ckErr := range []string{"", "disk full"} {
		distinct := 100 * (i + 1)
		if !ck.due(distinct) {
			t.Fatalf("attempt %d: not due at %d states", i, distinct)
		}
		ck.settle(c, res, i+1, levelView{distinct: distinct, ckErr: ckErr})
		if res.Checkpoints != 1 {
			t.Fatalf("attempt %d (error %q): %d checkpoints counted, want 1", i, ckErr, res.Checkpoints)
		}
		if ck.due(distinct + 99) {
			t.Fatalf("attempt %d: cadence not restarted by settle", i)
		}
	}
}
