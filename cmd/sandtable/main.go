// Command sandtable is the CLI for the SandTable workflow (Figure 1 of the
// paper): specification-level model checking, simulation, constraint
// ranking, conformance checking, and implementation-level bug confirmation
// for the integrated target systems.
//
// Usage:
//
//	sandtable check   -system gosyncobj [-bug GoSyncObj#4] [-nodes 2] ...
//	sandtable simulate -system craft -walks 100
//	sandtable rank    -system xraft
//	sandtable conform -system asyncraft -walks 500
//	sandtable confirm -system gosyncobj -bug GoSyncObj#4
//	sandtable serve   -addr localhost:8424 -artifacts ./jobs
//	sandtable list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/ranking"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/report"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/shrink"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/transport"
	"github.com/sandtable-go/sandtable/internal/vos"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "check":
		err = runCheck(args)
	case "simulate":
		err = runSimulate(args)
	case "rank":
		err = runRank(args)
	case "conform":
		err = runConform(args)
	case "confirm":
		err = runConfirm(args)
	case "replay":
		err = runReplay(args)
	case "report":
		err = runReport(args)
	case "serve":
		err = runServe(args)
	case "list":
		err = runList()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sandtable:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sandtable <check|simulate|rank|conform|confirm|replay|report|serve|list> [flags]`)
}

// commonFlags adds the session flags shared by all subcommands.
type sessionFlags struct {
	system   *string
	bug      *string
	nodes    *int
	fixed    *bool
	timeouts *int
	requests *int
	crashes  *int
	dirty    *int
	buffer   *int
	deadline *time.Duration
}

func addSessionFlags(fs *flag.FlagSet) *sessionFlags {
	return &sessionFlags{
		system:   fs.String("system", "gosyncobj", "target system ("+strings.Join(integrations.Names(), ", ")+")"),
		bug:      fs.String("bug", "", "check a single catalogued defect (e.g. GoSyncObj#4); default: the system's verification defect set"),
		nodes:    fs.Int("nodes", 0, "cluster size (0 = system default)"),
		fixed:    fs.Bool("fixed", false, "use the fully fixed build (fix validation)"),
		timeouts: fs.Int("max-timeouts", 0, "override MaxTimeouts budget"),
		requests: fs.Int("max-requests", 0, "override MaxRequests budget"),
		crashes:  fs.Int("max-crashes", -1, "override MaxCrashes budget"),
		dirty:    fs.Int("max-dirty-crashes", 0, "override MaxDirtyCrashes budget (crash-consistency faults losing unsynced writes)"),
		buffer:   fs.Int("max-buffer", 0, "override MaxBuffer budget"),
		deadline: fs.Duration("deadline", 2*time.Minute, "model checking deadline"),
	}
}

// panicFlags configure the engine's graceful-degradation policy for node
// panics during implementation-level replay.
type panicFlags struct {
	tolerate    *bool
	maxRestarts *int
	mode        *string
}

func addPanicFlags(fs *flag.FlagSet) *panicFlags {
	return &panicFlags{
		tolerate:    fs.Bool("tolerate-panics", false, "convert node panics into an injected crash+restart instead of aborting the run"),
		maxRestarts: fs.Int("max-auto-restarts", 2, "per-node bound on automatic restarts after tolerated panics"),
		mode:        fs.String("panic-crash-mode", "clean", "store outcome applied on a tolerated panic: clean, lose-unsynced, or torn-batch"),
	}
}

func (p *panicFlags) apply(c *engine.Cluster) {
	if !*p.tolerate {
		return
	}
	c.SetPanicPolicy(engine.PanicPolicy{
		Tolerate:        true,
		MaxAutoRestarts: *p.maxRestarts,
		Mode:            vos.CrashMode(*p.mode),
		Backoff:         50 * time.Millisecond,
	})
}

// obsFlags are the observability flags shared by the long-running
// subcommands (check, simulate, conform, confirm, replay).
type obsFlags struct {
	progress   *time.Duration
	metricsOut *string
	traceOut   *string
	reportOut  *string
	pprofAddr  *string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		progress:   fs.Duration("progress", 0, "print TLC-style progress lines to stderr at this interval (0 = off)"),
		metricsOut: fs.String("metrics-out", "", "write the final metrics snapshot + result summary as JSON to this file"),
		traceOut:   fs.String("trace-out", "", "write structured JSONL observability events to this file"),
		reportOut:  fs.String("report", "", "render a post-run Markdown report (coverage, depth profile, counterexample) to this file (\"-\" = stdout)"),
		pprofAddr:  fs.String("pprof", "", "serve net/http/pprof, expvar, and Prometheus /metrics on this address (e.g. localhost:6060)"),
	}
}

// obsSession is the per-run observability state: the registry every layer
// reports into, the optional JSONL tracer, the progress callback, and the
// optional pprof/expvar server.
type obsSession struct {
	reg        *obs.Registry
	tracer     *obs.Tracer
	traceFile  *os.File
	progress   obs.ProgressFunc
	interval   time.Duration
	metricsOut string
	reportOut  string
	// cover is the run's coverage profile; subcommands that collect one
	// hand it over before close so it lands in the metrics artifact and the
	// rendered report.
	cover *obs.Cover
	// title heads the rendered report ("sandtable <cmd> -system <sys>").
	title     string
	stopPprof func() error
}

func (f *obsFlags) open() (*obsSession, error) {
	s := &obsSession{reg: obs.NewRegistry(), metricsOut: *f.metricsOut, reportOut: *f.reportOut}
	if len(os.Args) > 1 {
		s.title = "sandtable " + strings.Join(os.Args[1:], " ")
	}
	if *f.progress > 0 {
		s.progress = obs.StderrProgress()
		s.interval = *f.progress
	}
	if *f.traceOut != "" {
		file, err := os.Create(*f.traceOut)
		if err != nil {
			return nil, err
		}
		s.traceFile = file
		s.tracer = obs.NewTracer(file)
	}
	if *f.pprofAddr != "" {
		addr, stop, err := obs.ServeDebug(*f.pprofAddr, s.reg)
		if err != nil {
			s.close(nil)
			return nil, err
		}
		s.stopPprof = stop
		fmt.Fprintf(os.Stderr, "pprof: serving /debug/pprof and /debug/vars on http://%s\n", addr)
	}
	return s, nil
}

// close finalises the session: writes the metrics snapshot (merged with the
// result summary and coverage profile, stamped with the artifact schema
// version) when -metrics-out is set, renders the Markdown report when
// -report is set, flushes and closes the JSONL trace, and stops the pprof
// server.
func (s *obsSession) close(result map[string]any) error {
	var firstErr error
	var snap map[string]any
	if s.metricsOut != "" || s.reportOut != "" {
		snap = s.reg.Snapshot()
		snap["schema"] = obs.MetricsSchemaVersion
		if result != nil {
			snap["result"] = result
		}
		if s.cover != nil {
			snap["cover"] = s.cover
		}
	}
	if s.metricsOut != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err == nil {
			err = os.WriteFile(s.metricsOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			firstErr = fmt.Errorf("metrics-out: %w", err)
		} else {
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", s.metricsOut)
		}
	}
	if s.reportOut != "" {
		d := &report.Data{Title: s.title, Source: "in-memory run", Metrics: snap, Cover: s.cover}
		if err := report.WriteFile(s.reportOut, d); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("report: %w", err)
			}
		} else if s.reportOut != "-" {
			fmt.Fprintf(os.Stderr, "report written to %s\n", s.reportOut)
		}
	}
	if s.tracer != nil {
		if err := s.tracer.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%d trace events written to %s\n", s.tracer.Events(), s.traceFile.Name())
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.stopPprof != nil {
		s.stopPprof()
	}
	return firstErr
}

// shrinkTrace runs the ddmin minimizer over tr, printing the reduction
// summary and merging the shrink counters into the metrics summary. On
// failure (e.g. the trace does not reproduce under the oracle) it warns and
// hands the original trace back, so -shrink never loses a counterexample.
func shrinkTrace(m spec.Machine, tr *trace.Trace, oracle shrink.Oracle, o *obsSession, summary map[string]any) *trace.Trace {
	res, err := shrink.Minimize(m, tr, oracle, shrink.Options{Metrics: o.reg, Tracer: o.tracer})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrink: %v (keeping the original trace)\n", err)
		return tr
	}
	fmt.Printf("shrink: %d -> %d events (%d removed, %d candidate(s) evaluated, %d spec-invalid)\n",
		res.OriginalLen, res.MinimizedLen, res.Removed, res.Attempts, res.Invalid)
	if summary != nil {
		summary["shrink_original_len"] = res.OriginalLen
		summary["shrink_minimized_len"] = res.MinimizedLen
		summary["shrink_attempts"] = res.Attempts
	}
	return res.Trace
}

func (f *sessionFlags) session() (*sandtable.SandTable, error) {
	sys, err := integrations.Get(*f.system)
	if err != nil {
		return nil, err
	}
	cfg := sys.DefaultConfig
	if *f.nodes > 0 {
		cfg = spec.Config{Name: fmt.Sprintf("n%dw2", *f.nodes), Nodes: *f.nodes, Workload: []string{"v1", "v2"}}
	}
	bugs := bugdb.VerificationBugs(*f.system)
	if *f.fixed {
		bugs = bugdb.NoBugs()
	}
	if *f.bug != "" {
		info, ok := bugdb.ByID(*f.bug)
		if !ok {
			return nil, fmt.Errorf("unknown bug id %q", *f.bug)
		}
		bugs = bugdb.NoBugs().With(info.Key)
	}
	budget := sys.DefaultBudget
	if *f.timeouts > 0 {
		budget.MaxTimeouts = *f.timeouts
	}
	if *f.requests > 0 {
		budget.MaxRequests = *f.requests
	}
	if *f.crashes >= 0 {
		budget.MaxCrashes = *f.crashes
	}
	if *f.dirty > 0 {
		budget.MaxDirtyCrashes = *f.dirty
	}
	if *f.buffer > 0 {
		budget.MaxBuffer = *f.buffer
	}
	return sandtable.New(sys, cfg, budget, bugs), nil
}

// resolveMemBudget turns the -mem-budget flag into a byte count. An empty
// flag defers to the GOMEMLIMIT environment variable when one is set: half
// the runtime's soft limit goes to exploration state, leaving the rest for
// transient expansion buffers, so a process capped by its operator spills
// instead of thrashing the GC. Returns 0 (no budget) when neither is set.
func resolveMemBudget(flagVal string) (int64, error) {
	if flagVal != "" {
		n, err := explorer.ParseByteSize(flagVal)
		if err != nil {
			return 0, fmt.Errorf("-mem-budget: %w", err)
		}
		return n, nil
	}
	env := os.Getenv("GOMEMLIMIT")
	if env == "" || env == "off" {
		return 0, nil
	}
	n, err := explorer.ParseByteSize(env)
	if err != nil {
		// GOMEMLIMIT is the runtime's contract, not ours; an unparsable
		// value is its problem and not a reason to refuse the run.
		return 0, nil
	}
	return n / 2, nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	sf := addSessionFlags(fs)
	of := addObsFlags(fs)
	workers := fs.Int("workers", 0, "BFS workers (0 = NumCPU)")
	maxStates := fs.Int("max-states", 0, "stop after this many distinct states (0 = off; checked at block boundaries)")
	fpShards := fs.Int("fpset-shards", 0, "fingerprint-set shard count, rounded up to a power of two (0 = automatic, sized from GOMAXPROCS)")
	ckDir := fs.String("checkpoint", "", "write periodic exploration snapshots to this directory (enables checkpointing)")
	ckEvery := fs.Duration("checkpoint-every", 0, "minimum wall-clock time between snapshots (default 60s once -checkpoint is set)")
	ckStates := fs.Int("checkpoint-states", 0, "also snapshot every N newly discovered distinct states")
	resume := fs.Bool("resume", false, "resume from the snapshot in the -checkpoint directory instead of starting fresh")
	memBudget := fs.String("mem-budget", "", "hard memory budget for exploration state (e.g. 8GiB); over budget the fingerprint set and frontier spill to disk (default: half of GOMEMLIMIT when that is set)")
	spillDir := fs.String("spill-dir", "", "directory for spill scratch files (default: the -checkpoint directory, else the system temp dir)")
	doShrink := fs.Bool("shrink", false, "minimize the counterexample with delta debugging (ddmin) before printing/writing it")
	showTrace := fs.Bool("trace", true, "print the counterexample trace")
	out := fs.String("o", "", "write the counterexample trace as JSON (replay it with `sandtable replay -trace <file>`)")
	peers := fs.String("peers", "", "comma-separated peer listen addresses (host:port, one per peer): run this process as one peer of a distributed exploration (see OPERATIONS.md)")
	peerID := fs.Int("peer-id", 0, "this process's index into -peers (peer 0 coordinates and prints the counterexample)")
	peerTimeout := fs.Duration("peer-timeout", 0, "cluster connection-establishment timeout (0 = 30s)")
	fs.Parse(args)

	if *resume && *ckDir == "" {
		return fmt.Errorf("check: -resume requires -checkpoint <dir>")
	}
	budget, err := resolveMemBudget(*memBudget)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	var peerAddrs []string
	if *peers != "" {
		for _, a := range strings.Split(*peers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				peerAddrs = append(peerAddrs, a)
			}
		}
		if len(peerAddrs) < 2 {
			return fmt.Errorf("check: -peers needs at least 2 addresses, got %d", len(peerAddrs))
		}
		if *peerID < 0 || *peerID >= len(peerAddrs) {
			return fmt.Errorf("check: -peer-id %d out of range [0,%d)", *peerID, len(peerAddrs))
		}
		if budget > 0 {
			return fmt.Errorf("check: -mem-budget is not supported with -peers (partitioning already divides the footprint)")
		}
	}
	st, err := sf.session()
	if err != nil {
		return err
	}
	o, err := of.open()
	if err != nil {
		return err
	}
	opts := explorer.DefaultOptions()
	opts.Deadline = *sf.deadline
	opts.Workers = *workers
	opts.MaxStates = *maxStates
	opts.FPSetShards = *fpShards
	opts.MemBudget = budget
	opts.SpillDir = *spillDir
	opts.Cover = true
	if *ckDir != "" {
		opts.Checkpoint = explorer.CheckpointOptions{
			Dir:         *ckDir,
			Interval:    *ckEvery,
			EveryStates: *ckStates,
			Resume:      *resume,
			Label:       st.Label(),
		}
	}
	opts.Progress = o.progress
	opts.ProgressInterval = o.interval
	opts.Metrics = o.reg
	opts.Tracer = o.tracer
	// The first SIGINT/SIGTERM cancels the run cooperatively: it stops at the
	// next safepoint with "stop: canceled" (a cluster peer takes the whole
	// cluster with it at the next level barrier), the summary and artifacts
	// are written as usual and the last checkpoint stays resumable.
	// Unregistering on that signal restores the default action, so a second
	// one exits immediately.
	ctx, unregister := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, func() {
		unregister()
		fmt.Fprintln(os.Stderr, "sandtable: interrupted — stopping at the next safepoint (signal again to exit immediately)")
	})
	opts.Context = ctx
	coordinator := true
	if len(peerAddrs) > 0 {
		// Every peer must agree on the run configuration before any state
		// flows; the handshake digest catches a peer launched with a
		// different -system/-bug/-nodes/-fixed combination.
		h := fnv.New64a()
		io.WriteString(h, st.Label())
		fmt.Fprintf(h, "|peers=%d", len(peerAddrs))
		conn, err := transport.DialTCP(transport.TCPOptions{
			Addrs:   peerAddrs,
			Self:    *peerID,
			Digest:  h.Sum64(),
			Timeout: *peerTimeout,
			Metrics: transport.NewMetrics(o.reg),
		})
		if err != nil {
			o.close(nil)
			return fmt.Errorf("check: %w", err)
		}
		opts.Peer = &explorer.PeerOptions{Conn: conn}
		coordinator = *peerID == 0
		fmt.Printf("peer %d/%d: joined cluster, exploring fingerprint shard %d\n", *peerID, len(peerAddrs), *peerID)
	}

	stopExplore := o.reg.StartPhase("explore")
	res := st.Check(opts)
	stopExplore()
	o.cover = res.Cover
	if res.Err != nil {
		o.close(res.Summary())
		return res.Err
	}

	if res.Resumed {
		fmt.Printf("resumed from %s\n", *ckDir)
	}
	fmt.Printf("explored %d distinct states (max depth %d) in %s — %.0f states/s, dedup %.1f%% (%d hits), peak queue %d, stop: %s\n",
		res.DistinctStates, res.MaxDepth, res.Duration.Round(time.Millisecond), res.StatesPerSecond(),
		100*res.DedupRatio(), res.DedupHits, res.MaxQueueLen, res.StopReason)
	if nf := res.Cover.NeverFired(); len(nf) > 0 {
		fmt.Printf("coverage: %d declared action(s) never fired: %s\n", len(nf), strings.Join(nf, ", "))
	}
	if res.Checkpoints > 0 {
		fmt.Printf("%d checkpoint(s) written to %s (resume with -checkpoint %s -resume)\n", res.Checkpoints, *ckDir, *ckDir)
	}
	if budget > 0 {
		s := o.reg.Snapshot()
		spilled, _ := s["fpset.spilled_entries"].(int64)
		fbytes, _ := s["explorer.frontier_spill_bytes"].(int64)
		if spilled > 0 || fbytes > 0 {
			fmt.Printf("memory budget %.1f MiB: spilled %d fingerprints and %.1f MiB of frontier to disk\n",
				float64(budget)/(1<<20), spilled, float64(fbytes)/(1<<20))
		}
	}
	v := res.FirstViolation()
	if v == nil {
		fmt.Println("no invariant violation found")
		return o.close(res.Summary())
	}
	fmt.Printf("VIOLATION: %s at depth %d: %v\n", v.Invariant, v.Depth, v.Err)
	summary := res.Summary()
	if !coordinator {
		// Only the coordinator reconstructs counterexample traces (the
		// other peers served its remote edge probes and hold no trace).
		return o.close(summary)
	}
	ctrace := v.Trace
	if *doShrink {
		// BFS counterexamples are depth-minimal, so this usually confirms
		// 1-minimality rather than shrinking; random-walk traces (simulate
		// -shrink) and divergences (conform -shrink) are where ddmin bites.
		ctrace = shrinkTrace(st.Machine(), ctrace, shrink.InvariantOracle(st.Machine(), v.Invariant), o, summary)
	}
	if *showTrace {
		fmt.Println(ctrace.Format(false))
	}
	if *out != "" {
		stopOut := o.reg.StartPhase("write-trace")
		f, err := os.Create(*out)
		if err != nil {
			o.close(summary)
			return err
		}
		defer f.Close()
		if err := ctrace.Encode(f); err != nil {
			o.close(summary)
			return err
		}
		stopOut()
		fmt.Printf("trace written to %s\n", *out)
	}
	return o.close(summary)
}

// runReplay replays a saved trace against a fresh implementation cluster,
// comparing every step (the §3.4 confirmation, decoupled from the search).
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	sf := addSessionFlags(fs)
	of := addObsFlags(fs)
	pf := addPanicFlags(fs)
	file := fs.String("trace", "", "trace JSON written by `sandtable check -o`")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("replay: -trace is required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return err
	}
	st, err := sf.session()
	if err != nil {
		return err
	}
	o, err := of.open()
	if err != nil {
		return err
	}
	stopReplay := o.reg.StartPhase("replay")
	cluster, err := st.Sys.NewCluster(st.Config, st.ImplBugs, 1)
	if err != nil {
		o.close(nil)
		return err
	}
	pf.apply(cluster)
	res, err := replay.ConfirmBug(tr, cluster, replay.Options{
		IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe,
		Tracer: o.tracer, Metrics: o.reg,
	})
	if err != nil {
		o.close(nil)
		return err
	}
	stopReplay()
	summary := map[string]any{"steps": res.Steps, "confirmed": res.Confirmed}
	if res.Confirmed {
		fmt.Printf("CONFIRMED: %d events replayed deterministically, every step conforming\n", res.Steps)
		return o.close(summary)
	}
	fmt.Printf("replay diverged: %s\n", res.Divergence.Describe())
	summary["divergence"] = res.Divergence.Describe()
	return o.close(summary)
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	sf := addSessionFlags(fs)
	of := addObsFlags(fs)
	walks := fs.Int("walks", 100, "number of random walks")
	depth := fs.Int("depth", 0, "walk depth bound (0 = until deadlock)")
	seed := fs.Int64("seed", 1, "base seed")
	distinct := fs.Bool("distinct", false, "track distinct states across walks in a shared fingerprint set (coverage measurement)")
	doShrink := fs.Bool("shrink", false, "minimize the first violating walk with delta debugging (ddmin)")
	fs.Parse(args)

	st, err := sf.session()
	if err != nil {
		return err
	}
	o, err := of.open()
	if err != nil {
		return err
	}
	sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{
		MaxDepth: *depth, Seed: *seed, CheckInvariants: true,
		TrackDistinct: *distinct, RecordVars: *doShrink,
		Progress: o.progress, ProgressInterval: o.interval,
		Metrics: o.reg, Tracer: o.tracer, Cover: true,
	})
	stopSim := o.reg.StartPhase("simulate")
	results := sim.Walks(*walks)
	stopSim()
	o.cover = sim.Cover()
	agg := explorer.Aggregate(results)
	fmt.Printf("walks=%d branch-coverage=%d event-diversity=%d max-depth=%d mean-depth=%.1f violations=%d elapsed=%s\n",
		agg.Walks, agg.BranchCoverage, agg.EventDiversity, agg.MaxDepth, agg.MeanDepth, agg.Violations, agg.TotalElapsed.Round(time.Millisecond))
	if *distinct {
		visits := int(agg.MeanDepth*float64(agg.Walks)) + agg.Walks
		fmt.Printf("distinct states across walks: %d (%.1f%% of ~%d visits fresh)\n",
			sim.Distinct(), 100*float64(agg.DistinctStates)/float64(max(1, visits)), visits)
	}
	summary := map[string]any{
		"walks":           agg.Walks,
		"branch_coverage": agg.BranchCoverage,
		"event_diversity": agg.EventDiversity,
		"max_depth":       agg.MaxDepth,
		"mean_depth":      agg.MeanDepth,
		"violations":      agg.Violations,
		"distinct_states": agg.DistinctStates,
	}
	for _, w := range results {
		if w.Violation != nil {
			fmt.Printf("first violating walk: %v\n", w.Violation)
			if *doShrink {
				min := shrinkTrace(st.Machine(), w.Trace, shrink.InvariantOracle(st.Machine(), w.Violation.Invariant), o, summary)
				fmt.Println(min.Format(false))
			}
			break
		}
	}
	return o.close(summary)
}

func runRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	sf := addSessionFlags(fs)
	walks := fs.Int("walks", 32, "random walks per (config, constraint) pair")
	fs.Parse(args)

	st, err := sf.session()
	if err != nil {
		return err
	}
	configs := []spec.Config{
		{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}},
		{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
	}
	base := st.Budget
	budgets := []spec.Budget{base}
	lighter := base
	lighter.Name = base.Name + "-light"
	lighter.MaxTimeouts = max(1, base.MaxTimeouts-2)
	lighter.MaxCrashes = 0
	lighter.MaxDirtyCrashes = 0
	budgets = append(budgets, lighter, base.Double())
	r := st.Rank(configs, budgets, ranking.Options{WalksPerPair: *walks, Seed: 1})
	fmt.Print(r.Format())
	return nil
}

func runConform(args []string) error {
	fs := flag.NewFlagSet("conform", flag.ExitOnError)
	sf := addSessionFlags(fs)
	of := addObsFlags(fs)
	walks := fs.Int("walks", 200, "random traces to replay")
	depth := fs.Int("depth", 30, "trace depth bound")
	seed := fs.Int64("seed", 1, "base seed")
	workers := fs.Int("workers", 1, "parallel replay workers (each walk boots its own cluster; the first discrepancy is identical for every worker count)")
	doShrink := fs.Bool("shrink", false, "minimize the discrepancy trace with delta debugging (ddmin) before printing it")
	fs.Parse(args)

	st, err := sf.session()
	if err != nil {
		return err
	}
	o, err := of.open()
	if err != nil {
		return err
	}
	stopConform := o.reg.StartPhase("conform")
	rep, err := st.Conform(conformance.Options{
		Walks: *walks, WalkDepth: *depth, Seed: *seed, Workers: *workers,
		Progress: o.progress, ProgressInterval: o.interval,
		Metrics: o.reg, Tracer: o.tracer,
	})
	if err != nil {
		o.close(nil)
		return err
	}
	stopConform()
	fmt.Printf("conformance: %d walks, %d events checked in %s\n", rep.Walks, rep.EventsChecked, rep.Duration.Round(time.Millisecond))
	summary := map[string]any{"walks": rep.Walks, "events_checked": rep.EventsChecked, "passed": rep.Passed()}
	if rep.Passed() {
		fmt.Println("PASS: no spec/impl discrepancy found")
		return o.close(summary)
	}
	fmt.Printf("DISCREPANCY: %v\n", rep.Discrepancy)
	d := rep.Discrepancy
	dtrace := d.Trace
	if *doShrink {
		oracle := shrink.DivergenceOracle(func(seed int64) (*engine.Cluster, error) {
			return st.Sys.NewCluster(st.Config, st.ImplBugs, seed)
		}, d.Seed, replay.Options{IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe}, d.Step)
		dtrace = shrinkTrace(st.Machine(), dtrace, oracle, o, summary)
	}
	fmt.Println("trace prefix:")
	fmt.Println(dtrace.Format(false))
	summary["discrepancy"] = rep.Discrepancy.Error()
	return o.close(summary)
}

func runConfirm(args []string) error {
	fs := flag.NewFlagSet("confirm", flag.ExitOnError)
	sf := addSessionFlags(fs)
	of := addObsFlags(fs)
	pf := addPanicFlags(fs)
	doShrink := fs.Bool("shrink", false, "minimize the counterexample with delta debugging (ddmin) before replaying it at the implementation level")
	fs.Parse(args)

	st, err := sf.session()
	if err != nil {
		return err
	}
	o, err := of.open()
	if err != nil {
		return err
	}
	opts := explorer.DefaultOptions()
	opts.Deadline = *sf.deadline
	opts.Progress = o.progress
	opts.ProgressInterval = o.interval
	opts.Metrics = o.reg
	opts.Tracer = o.tracer
	opts.Cover = true

	stopExplore := o.reg.StartPhase("explore")
	res := st.Check(opts)
	stopExplore()
	o.cover = res.Cover
	summary := res.Summary()
	v := res.FirstViolation()
	if v == nil {
		o.close(summary)
		return fmt.Errorf("no violation found to confirm (%d states)", res.DistinctStates)
	}
	fmt.Printf("violation: %s at depth %d: %v\n", v.Invariant, v.Depth, v.Err)
	ctrace := v.Trace
	if *doShrink {
		ctrace = shrinkTrace(st.Machine(), ctrace, shrink.InvariantOracle(st.Machine(), v.Invariant), o, summary)
	}

	stopReplay := o.reg.StartPhase("replay")
	cluster, err := st.Sys.NewCluster(st.Config, st.ImplBugs, 1)
	if err != nil {
		o.close(summary)
		return err
	}
	pf.apply(cluster)
	conf, err := replay.ConfirmBug(ctrace, cluster, replay.Options{
		IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe,
		Tracer: o.tracer, Metrics: o.reg,
	})
	if err != nil {
		o.close(summary)
		return err
	}
	stopReplay()
	summary["replay_steps"] = conf.Steps
	summary["confirmed"] = conf.Confirmed
	if conf.Confirmed {
		fmt.Printf("CONFIRMED at the implementation level (%d events replayed, every step conforming)\n", conf.Steps)
		return o.close(summary)
	}
	fmt.Printf("NOT confirmed — replay diverged: %s\n", conf.Divergence.Describe())
	summary["divergence"] = conf.Divergence.Describe()
	return o.close(summary)
}

// runReport renders a post-run Markdown report from observability artifacts
// written by earlier runs (-metrics-out and/or -trace-out) — the offline
// path; `-report` on check/simulate/conform/confirm/replay renders the same
// report in-process at the end of the run.
func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	metrics := fs.String("metrics", "", "metrics JSON written by -metrics-out")
	traceF := fs.String("trace", "", "JSONL events written by -trace-out")
	out := fs.String("o", "", "output Markdown file (default stdout)")
	title := fs.String("title", "", "report title (default \"SandTable run report\")")
	fs.Parse(args)
	if *metrics == "" && *traceF == "" {
		return fmt.Errorf("report: at least one of -metrics or -trace is required")
	}
	d, err := report.FromFiles(*metrics, *traceF)
	if err != nil {
		return err
	}
	if *title != "" {
		d.Title = *title
	}
	if err := report.WriteFile(*out, d); err != nil {
		return err
	}
	if *out != "" && *out != "-" {
		fmt.Printf("report written to %s\n", *out)
	}
	return nil
}

func runList() error {
	fmt.Println("integrated systems:")
	for _, name := range integrations.Names() {
		fmt.Printf("  %-11s defects:", name)
		for _, b := range bugdb.ForSystem(name) {
			fmt.Printf(" %s", b.ID)
		}
		for _, b := range bugdb.Extensions {
			if b.System == name {
				fmt.Printf(" %s (extension)", b.ID)
			}
		}
		fmt.Println()
	}
	return nil
}
