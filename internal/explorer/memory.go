package explorer

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// memController enforces Options.MemBudget: it owns the run's private spill
// directory, wires the fingerprint set's spill controller, decides the
// frontier spill threshold, and samples the heap gauge. It is driven from
// expansion block boundaries (the run's safepoints), never the hot path. A
// nil *memController is the unbudgeted run; every method no-ops.
type memController struct {
	budget int64
	dir    string // private per-run spill dir, removed by close
	codec  spec.StateCodec
	// frontierChunk is the next-level buffer size (entries) that triggers a
	// spill; 0 means frontier spilling was disabled after a write failure.
	frontierChunk int
	frontierSeq   int
	// setSpillFailed disables fingerprint-set spilling after a write
	// failure, as frontierChunk = 0 does for the frontier: a retry would
	// collect and sort every frozen entry again only to fail again.
	setSpillFailed bool

	m        *runMetrics
	reporter *obs.Reporter
	tracer   *obs.Tracer

	lastHeap time.Time
}

// frontierChunkFloor keeps spill runs from degenerating into thousands of
// tiny files when the budget is far below the working set.
const frontierChunkFloor = 512

// newMemController builds the controller for this run, creating the spill
// directory and enabling fpset spilling. Returns (nil, nil) when no budget
// is configured.
func (c *Checker) newMemController(metrics *runMetrics, reporter *obs.Reporter) (*memController, error) {
	budget := c.opts.MemBudget
	if budget <= 0 {
		return nil, nil
	}
	base := c.opts.SpillDir
	if base == "" {
		base = c.opts.Checkpoint.Dir
	}
	if base == "" {
		base = os.TempDir()
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	// A fresh private directory per run: concurrent runs never collide, and
	// stale directories left by a kill -9 are inert (spill files are session
	// scratch — a checkpoint carries its own copy of the frontier — so
	// leftovers are never read, only disk-space litter the user can delete).
	dir, err := os.MkdirTemp(base, "sandtable-spill-")
	if err != nil {
		return nil, err
	}
	// The budget is split: half for the fingerprint set (the structure that
	// grows without bound), the rest headroom for the frontier buffers and
	// everything else.
	if err := c.visited.EnableSpill(fpset.SpillConfig{
		Dir:         filepath.Join(dir, "fpset"),
		BudgetBytes: budget / 2,
	}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// Estimate the resident cost of one frontier entry from an encoded init
	// state (encoding length ≈ state payload; ×3 for the decoded object plus
	// slice headers, +64 fixed overhead), then size the spill threshold so
	// the buffered frontier stays within a quarter of the budget.
	est := 64
	if inits := c.m.Init(); len(inits) > 0 {
		est += 3 * len(c.m.AppendState(nil, inits[0]))
	}
	chunk := int(budget / 4 / int64(est))
	mc := &memController{
		budget: budget, dir: dir, codec: c.m,
		frontierChunk: max(frontierChunkFloor, min(chunk, 1<<20)),
		m:             metrics, reporter: reporter, tracer: c.opts.Tracer,
	}
	if metrics != nil {
		metrics.memBudget.Set(budget)
	}
	return mc, nil
}

// newSink starts the next-level accumulator for one BFS level (nil when
// frontier spilling is unavailable).
func (mc *memController) newSink() *frontierSink {
	if mc == nil || mc.frontierChunk == 0 {
		return nil
	}
	return &frontierSink{mc: mc}
}

// blockTick runs the budget checks at an expansion block boundary: spill
// frozen fingerprints if the set is over budget, and refresh the heap gauge
// at most twice a second. A failed spill keeps the set in RAM for the rest
// of the run.
func (mc *memController) blockTick(c *Checker, depth int) {
	if mc == nil {
		return
	}
	// Only entries at depths the BFS has completed are frozen (their edges
	// can no longer change); the level currently being inserted must stay
	// in RAM so the equal-depth tie-break keeps working.
	if !mc.setSpillFailed {
		if _, err := c.visited.MaybeSpill(int32(depth - 1)); err != nil {
			mc.setSpillFailed = true
			mc.warnf("fingerprint-set spill failed, keeping the set in RAM: %v", err)
		}
	}
	if mc.m != nil && time.Since(mc.lastHeap) > 500*time.Millisecond {
		mc.lastHeap = time.Now()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mc.m.heapInuse.Set(int64(ms.HeapInuse))
	}
}

// warnf surfaces a degradation through the progress reporter and the
// structured trace. Each spill path degrades at most once per run, so a run
// warns at most twice.
func (mc *memController) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	mc.tracer.Emit(obs.Event{
		Layer: "spec", Kind: "spill-error", Node: -1,
		Detail: map[string]string{"error": msg},
	})
	mc.reporter.Warnf("%s", msg)
}

// close releases the fingerprint set's run files and deletes the spill
// directory. Called after trace reconstruction (which may still probe
// spilled entries).
func (mc *memController) close(set *fpset.Set) {
	if mc == nil {
		return
	}
	set.CloseSpill()
	os.RemoveAll(mc.dir)
}

// ParseByteSize parses a human byte size: a plain integer is bytes, and the
// suffixes B, KiB, MiB, GiB, TiB (case-insensitive, also accepted without
// the i: KB, MB, GB, TB) scale by powers of 1024 — the same grammar as Go's
// GOMEMLIMIT. Used by the CLI's -mem-budget flag.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			t = t[:len(t)-len(suf.name)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	if mult > 1 && n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte size %q overflows int64", s)
	}
	return n * mult, nil
}
