// Package engine is the implementation-level deterministic execution engine
// (§4.1 and Appendix A of the paper). It runs a cluster of node processes on
// a single machine with full control over every source of nondeterminism:
// message delivery order (via the network proxy), time (via per-node virtual
// clocks), failures (crash, restart, partition, UDP loss/duplication), and
// client requests.
//
// The engine executes three kinds of commands — network commands, node
// commands, and state commands — converted from specification-level trace
// events. Replaying the same command sequence always produces the same
// execution, which is what lets SandTable confirm specification-level bugs
// at the implementation level (§3.4) and compare the two levels during
// conformance checking (§3.2).
package engine

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// Command is one deterministic-execution step, converted from a trace event.
type Command struct {
	Type    trace.EventType
	Node    int
	Peer    int
	Index   int
	Payload string // timeout kind for EvTimeout; request value for EvRequest
}

func (c Command) String() string {
	return trace.Event{Type: c.Type, Action: string(c.Type), Node: c.Node, Peer: c.Peer, Index: c.Index, Payload: c.Payload}.String()
}

// CostModel charges simulated wall-clock per operation, calibrated from the
// paper's §5.3 measurements of real implementation-level exploration (cluster
// initialisation sleeps, per-event model-checker waits, and per-system
// synchronisation sleeps). The engine also measures true execution time; the
// experiments report both (see DESIGN.md substitutions).
type CostModel struct {
	ClusterInit time.Duration // cluster boot (paper: 2–18 s after FlyMC-style snapshotting)
	PerEvent    time.Duration // enforced inter-event wait (paper: e.g. 300 ms)
	PerTimeout  time.Duration // extra sleep to fire a timer in the real system
	PerRequest  time.Duration // client round trip
	PerRestart  time.Duration // node restart
}

// Cost of a single command under the model.
func (m CostModel) Cost(c Command) time.Duration {
	d := m.PerEvent
	switch c.Type {
	case trace.EvTimeout:
		d += m.PerTimeout
	case trace.EvRequest:
		d += m.PerRequest
	case trace.EvRestart:
		d += m.PerRestart
	}
	return d
}

// Config describes a cluster under test.
type Config struct {
	Nodes     int
	Semantics spec.Semantics
	Seed      int64
	// Timeouts maps a timeout kind (the payload of EvTimeout events) to the
	// virtual-clock advance that fires it. The paper requires users to
	// provide timeout values when converting trace events (§3.2).
	Timeouts map[string]time.Duration
	Cost     CostModel
	// Buffered gives every node a buffered store (vos.NewBufferedStore):
	// Persist writes stay volatile until the process calls Env.Sync, so
	// dirty-crash commands (trace.EvCrashDirty) can lose or tear the
	// unsynced tail. False keeps the legacy auto-sync stores, under which
	// dirty crashes degenerate to clean ones.
	Buffered bool
}

// PanicPolicy configures graceful degradation for node panics. With Tolerate
// unset (the default) a panic surfaces as a *CrashError from Apply, aborting
// the run. With Tolerate set, the engine converts the panic into an injected
// crash — applying Mode to the node's store — and, while the node's
// auto-restart budget lasts, immediately restarts it from durable state
// after charging an exponentially growing backoff to the simulated cost.
type PanicPolicy struct {
	// Tolerate turns panics into injected crash(+restart) instead of errors.
	Tolerate bool
	// MaxAutoRestarts bounds automatic restarts per node; once exhausted the
	// node stays down (the run still completes).
	MaxAutoRestarts int
	// Mode is the vos.CrashMode applied to the panicking node's store
	// (empty = vos.CrashClean, preserving all buffered writes).
	Mode vos.CrashMode
	// Backoff is the base restart delay; restart k of a node charges
	// Backoff<<k of simulated time. Zero means no backoff accounting.
	Backoff time.Duration
}

// CrashError reports that a node process panicked while handling an event —
// the analogue of the unhandled exceptions SandTable's conformance checking
// catches as by-product bugs (e.g. PySyncObj#1, RaftOS#3, Xraft#2).
type CrashError struct {
	Node  int
	Cmd   Command
	Panic any
	Stack string
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("node %d crashed handling %s: %v", e.Node, e.Cmd, e.Panic)
}

// Cluster is a running deterministic cluster.
type Cluster struct {
	cfg     Config
	factory func(id int) vos.Process

	// net is the network (see net.go): which nodes are up, the links and
	// partitions, and the frames in flight. seq numbers the frames enqueued.
	net spec.Net[frame]
	seq int

	clocks []*vos.Clock
	stores []*vos.Store
	logs   []*vos.LogBuffer
	procs  []vos.Process

	// rngs are the per-node streams behind Env.Rand, seeded cfg.Seed +
	// i*7919. Seeding a math/rand source costs more than booting a node, and
	// most clusters never draw, so each is seeded on its first draw (nil
	// until then): the stream is the same whenever that happens.
	rngs []*rand.Rand

	// faultRng is the dedicated deterministic stream for fault-injection
	// choices (torn-batch cut points), seeded on first draw like rngs (see
	// faults). It is separate from the per-node rngs so adding faults never
	// perturbs node behaviour, and it is a pure function of the seed so two
	// runs with the same seed pick identical cuts — the byte-identical
	// durable-state guarantee confirm relies on.
	faultRng *rand.Rand

	panicPolicy  PanicPolicy
	autoRestarts []int

	events  int
	simCost time.Duration
	history []Command

	// Observation (see ObserveSlots): the cluster's schema, the processes'
	// Fields, one node's Observe buffer, and the slot of each of the
	// schema's fields in the schema last observed into (-1 = not there).
	schema     *trace.Schema
	fields     []string
	obsBuf     []string
	slotSchema *trace.Schema
	slotOf     []int

	tracer  *obs.Tracer // structured event sink (nil-safe)
	metrics *obs.Registry
	cmds    *obs.Counter // commands executed, mirrored into metrics
	vm      netMetrics
}

// NewCluster boots a cluster: every node is constructed and started.
func NewCluster(cfg Config, factory func(id int) vos.Process) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("engine: need at least one node")
	}
	if cfg.Nodes > spec.MaxNodes {
		return nil, fmt.Errorf("engine: %d nodes, more than the %d a network holds", cfg.Nodes, spec.MaxNodes)
	}
	c := &Cluster{
		cfg:          cfg,
		factory:      factory,
		clocks:       make([]*vos.Clock, cfg.Nodes),
		stores:       make([]*vos.Store, cfg.Nodes),
		logs:         make([]*vos.LogBuffer, cfg.Nodes),
		rngs:         make([]*rand.Rand, cfg.Nodes),
		procs:        make([]vos.Process, cfg.Nodes),
		autoRestarts: make([]int, cfg.Nodes),
	}
	c.net.Shape(cfg.Nodes, 0)
	c.simCost += cfg.Cost.ClusterInit
	for i := 0; i < cfg.Nodes; i++ {
		c.clocks[i] = vos.NewClock()
		if cfg.Buffered {
			c.stores[i] = vos.NewBufferedStore()
		} else {
			c.stores[i] = vos.NewStore()
		}
		c.logs[i] = &vos.LogBuffer{}
		if err := c.startNode(i); err != nil {
			return nil, err
		}
		c.net.Up.Add(i)
	}
	c.fields = c.procs[0].Fields()
	c.obsBuf = make([]string, len(c.fields))
	c.schema = trace.NewSchema(cfg.Nodes, append([]string{"status"}, c.fields...), nil)
	return c, nil
}

func (c *Cluster) startNode(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CrashError{Node: i, Panic: r, Stack: string(debug.Stack())}
		}
	}()
	p := c.factory(i)
	p.Start(&nodeEnv{c: c, id: i})
	c.procs[i] = p
	return nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return c.cfg.Nodes }

// Up reports whether node i is running.
func (c *Cluster) Up(i int) bool { return c.net.Up.Has(i) }

// Events returns the number of commands executed.
func (c *Cluster) Events() int { return c.events }

// SimulatedCost returns the accumulated cost-model time.
func (c *Cluster) SimulatedCost() time.Duration { return c.simCost }

// History returns the executed command sequence.
func (c *Cluster) History() []Command { return append([]Command(nil), c.history...) }

// SetTracer installs a structured event sink on the cluster and its network
// proxy: every applied command, virtual-clock advance, node crash/restart,
// and network send/deliver/drop is emitted as one JSONL event, leaving a
// replayable, diffable record of what the implementation run actually did.
// A nil tracer disables tracing.
func (c *Cluster) SetTracer(t *obs.Tracer) { c.tracer = t }

// SetMetrics counts cluster and network activity into the registry
// (engine.commands, the vnet.* counters and the vnet.buffered gauge, from
// zero). A nil registry uninstalls.
func (c *Cluster) SetMetrics(reg *obs.Registry) {
	c.metrics = reg
	c.cmds = reg.Counter("engine.commands")
	c.vm = newNetMetrics(reg)
}

// Process returns the running process for node i (nil when crashed); used
// by system-specific observers.
func (c *Cluster) Process(i int) vos.Process {
	if !c.Up(i) {
		return nil
	}
	return c.procs[i]
}

// Apply executes one command deterministically. A returned *CrashError
// means the node implementation itself failed (a by-product bug); other
// errors mean the command was not applicable (e.g. delivering from an empty
// channel), which during conformance checking indicates a spec/impl
// discrepancy.
func (c *Cluster) Apply(cmd Command) error {
	c.events++
	c.cmds.Inc()
	c.simCost += c.cfg.Cost.Cost(cmd)
	c.history = append(c.history, cmd)
	if c.tracer != nil {
		detail := map[string]string{"event": strconv.Itoa(c.events)}
		if cmd.Payload != "" {
			detail["payload"] = cmd.Payload
		}
		c.tracer.Emit(obs.Event{
			Layer: "engine", Kind: string(cmd.Type),
			Node: cmd.Node, Peer: cmd.Peer, Index: cmd.Index,
			Detail: detail,
		})
	}

	switch cmd.Type {
	case trace.EvDeliver:
		return c.deliver(cmd)
	case trace.EvTimeout:
		return c.timeout(cmd)
	case trace.EvRequest:
		return c.request(cmd)
	case trace.EvCrash:
		return c.crash(cmd.Node)
	case trace.EvCrashDirty:
		return c.crashDirty(cmd)
	case trace.EvRestart:
		return c.restart(cmd.Node)
	case trace.EvPartition:
		return c.partition(cmd.Node, cmd.Peer)
	case trace.EvRecover:
		return c.heal(cmd.Node, cmd.Peer)
	case trace.EvDrop:
		return c.drop(cmd.Peer, cmd.Node, cmd.Index)
	case trace.EvDuplicate:
		return c.duplicate(cmd.Peer, cmd.Node, cmd.Index)
	case trace.EvInternal:
		return nil
	default:
		return fmt.Errorf("engine: unknown command type %q", cmd.Type)
	}
}

func (c *Cluster) guard(i int) error {
	if i < 0 || i >= c.cfg.Nodes {
		return fmt.Errorf("engine: no node %d", i)
	}
	return nil
}

func (c *Cluster) deliver(cmd Command) error {
	if err := c.guard(cmd.Node); err != nil {
		return err
	}
	if err := c.guard(cmd.Peer); err != nil {
		return err
	}
	if !c.Up(cmd.Node) {
		return fmt.Errorf("engine: deliver to crashed node %d", cmd.Node)
	}
	f, err := c.take(cmd.Peer, cmd.Node, cmd.Index)
	if err != nil {
		return err
	}
	return c.invoke(cmd, cmd.Node, func(p vos.Process) {
		p.Receive(cmd.Peer, f.payload)
	})
}

func (c *Cluster) timeout(cmd Command) error {
	if err := c.guard(cmd.Node); err != nil {
		return err
	}
	if !c.Up(cmd.Node) {
		return fmt.Errorf("engine: timeout on crashed node %d", cmd.Node)
	}
	d, ok := c.cfg.Timeouts[cmd.Payload]
	if !ok {
		return fmt.Errorf("engine: no timeout duration configured for kind %q", cmd.Payload)
	}
	c.clocks[cmd.Node].Advance(d)
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{
			Layer: "engine", Kind: "clock-advance", Node: cmd.Node,
			Detail: map[string]string{"kind": cmd.Payload, "advance": d.String()},
		})
	}
	return c.invoke(cmd, cmd.Node, func(p vos.Process) { p.Tick() })
}

func (c *Cluster) request(cmd Command) error {
	if err := c.guard(cmd.Node); err != nil {
		return err
	}
	if !c.Up(cmd.Node) {
		return fmt.Errorf("engine: request to crashed node %d", cmd.Node)
	}
	return c.invoke(cmd, cmd.Node, func(p vos.Process) { p.ClientRequest(cmd.Payload) })
}

func (c *Cluster) crash(node int) error {
	if err := c.guard(node); err != nil {
		return err
	}
	if !c.Up(node) {
		return fmt.Errorf("engine: node %d already crashed", node)
	}
	// Legacy atomic-durability semantics: everything the node persisted
	// survives, so a buffered journal is flushed before the lights go out.
	c.stores[node].Crash(vos.CrashClean, 0)
	c.downNode(node)
	return nil
}

// crashDirty crashes a node under the crash-consistency fault model: the
// command payload selects the vos.CrashMode deciding the fate of the node's
// unsynced write journal. Torn crashes draw the cut point from the
// deterministic fault stream, so the same seed always persists the same
// prefix.
func (c *Cluster) crashDirty(cmd Command) error {
	node := cmd.Node
	if err := c.guard(node); err != nil {
		return err
	}
	if !c.Up(node) {
		return fmt.Errorf("engine: node %d already crashed", node)
	}
	mode := vos.CrashMode(cmd.Payload)
	if mode == "" {
		mode = vos.CrashLoseUnsynced
	}
	switch mode {
	case vos.CrashClean, vos.CrashLoseUnsynced, vos.CrashTorn:
	default:
		return fmt.Errorf("engine: unknown crash mode %q", cmd.Payload)
	}
	unsynced := c.stores[node].Unsynced()
	cut := 0
	if mode == vos.CrashTorn {
		cut = c.faults().Intn(unsynced + 1)
	}
	c.stores[node].Crash(mode, cut)
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{
			Layer: "engine", Kind: "dirty-crash", Node: node,
			Detail: map[string]string{
				"mode":     string(mode),
				"unsynced": strconv.Itoa(unsynced),
				"cut":      strconv.Itoa(cut),
			},
		})
	}
	c.metrics.Counter("engine.faults.dirty_crashes").Inc()
	c.metrics.Counter("engine.faults.crash_mode." + string(mode)).Inc()
	c.downNode(node)
	return nil
}

// faults returns the fault stream, seeding it on the first draw. 0x5ab1e
// mixes the seed so the fault stream differs from every per-node stream.
func (c *Cluster) faults() *rand.Rand {
	if c.faultRng == nil {
		c.faultRng = rand.New(rand.NewSource(c.cfg.Seed ^ 0x5ab1e))
	}
	return c.faultRng
}

// downNode takes a node off the cluster with SIGQUIT semantics: no cleanup
// runs; volatile state is lost, durable store and captured logs survive; the
// network crashes it (spec.Net.Crash: every link severed and emptied).
func (c *Cluster) downNode(node int) {
	c.procs[node] = nil
	n := 0
	for j := 0; j < c.cfg.Nodes; j++ {
		n += c.queued(node, j)
	}
	c.net.Crash(node)
	c.lost(n)
	c.emit("crash-node", -1, node, 0, nil)
}

// restart brings a down node back: the network restarts it
// (spec.Net.Restart: up, and reconnected to every running node no partition
// separates it from), then its process starts. A start that panics leaves
// the node down and severed.
func (c *Cluster) restart(node int) error {
	if err := c.guard(node); err != nil {
		return err
	}
	if c.Up(node) {
		return fmt.Errorf("engine: node %d is already running", node)
	}
	c.net.Restart(node)
	c.emit("restart-node", -1, node, 0, nil)
	if err := c.startNode(node); err != nil {
		c.downNode(node)
		return err
	}
	return nil
}

// partition severs and empties both directions between a and b until heal
// (§A.3).
func (c *Cluster) partition(a, b int) error {
	if err := c.guard(a); err != nil {
		return err
	}
	if err := c.guard(b); err != nil {
		return err
	}
	n := c.queued(a, b)
	c.net.Partition(a, b)
	c.lost(n)
	c.emit("partition", a, b, 0, nil)
	return nil
}

// heal ends the partition between a and b; the pair reconnects if both are
// up.
func (c *Cluster) heal(a, b int) error {
	if err := c.guard(a); err != nil {
		return err
	}
	if err := c.guard(b); err != nil {
		return err
	}
	c.net.Heal(a, b)
	if c.Up(a) && c.Up(b) {
		c.emit("heal", a, b, 0, nil)
	}
	return nil
}

// invoke runs fn on the node's process, converting panics into CrashError
// and crashing the node (matching a real unhandled exception). Under a
// tolerant PanicPolicy the error is swallowed: the panic becomes an injected
// crash (with the policy's CrashMode applied to the store) followed, budget
// permitting, by an automatic restart from durable state.
func (c *Cluster) invoke(cmd Command, node int, fn func(vos.Process)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CrashError{Node: node, Cmd: cmd, Panic: r, Stack: string(debug.Stack())}
			if c.tracer != nil {
				c.tracer.Emit(obs.Event{
					Layer: "engine", Kind: "node-panic", Node: node,
					Detail: map[string]string{"panic": fmt.Sprint(r), "cmd": cmd.String()},
				})
			}
			c.metrics.Counter("engine.node_panics").Inc()
			mode := vos.CrashClean
			if c.panicPolicy.Tolerate && c.panicPolicy.Mode != "" {
				mode = c.panicPolicy.Mode
			}
			cut := 0
			if mode == vos.CrashTorn {
				cut = c.faults().Intn(c.stores[node].Unsynced() + 1)
			}
			c.stores[node].Crash(mode, cut)
			c.downNode(node)
			if c.panicPolicy.Tolerate {
				err = c.autoRestart(node, mode)
			}
		}
	}()
	fn(c.procs[node])
	return nil
}

// autoRestart implements the tolerant half of PanicPolicy: record the
// injected fault, and bring the node back from durable state while its
// restart budget lasts, charging an exponentially growing backoff.
func (c *Cluster) autoRestart(node int, mode vos.CrashMode) error {
	c.metrics.Counter("engine.faults.panics_tolerated").Inc()
	c.metrics.Counter("engine.faults.crash_mode." + string(mode)).Inc()
	attempt := c.autoRestarts[node]
	if attempt >= c.panicPolicy.MaxAutoRestarts {
		if c.tracer != nil {
			c.tracer.Emit(obs.Event{
				Layer: "engine", Kind: "auto-restart-exhausted", Node: node,
				Detail: map[string]string{"attempts": strconv.Itoa(attempt)},
			})
		}
		return nil // node stays down; the run continues
	}
	c.autoRestarts[node] = attempt + 1
	if c.panicPolicy.Backoff > 0 {
		backoff := c.panicPolicy.Backoff << uint(attempt)
		c.simCost += backoff
		c.clocks[node].Advance(backoff)
	}
	c.metrics.Counter("engine.faults.auto_restarts").Inc()
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{
			Layer: "engine", Kind: "auto-restart", Node: node,
			Detail: map[string]string{"attempt": strconv.Itoa(attempt + 1), "mode": string(mode)},
		})
	}
	return c.restart(node)
}

// SetPanicPolicy installs the graceful-degradation policy for node panics.
// The zero value restores the default fail-fast behaviour.
func (c *Cluster) SetPanicPolicy(p PanicPolicy) { c.panicPolicy = p }

// DumpDurable renders every node's crash-durable store contents as one
// canonical byte string (per-node sections in node order). Byte-for-byte
// equality across two runs proves they produced the identical persistence
// outcome — the confirmation check for dirty-crash determinism.
func (c *Cluster) DumpDurable() []byte {
	var b []byte
	for i, s := range c.stores {
		b = append(b, fmt.Sprintf("-- node %d --\n", i)...)
		b = append(b, s.DumpDurable()...)
	}
	return b
}

// nodeEnv implements vos.Env for one node.
type nodeEnv struct {
	c  *Cluster
	id int
}

func (e *nodeEnv) ID() int        { return e.id }
func (e *nodeEnv) N() int         { return e.c.cfg.Nodes }
func (e *nodeEnv) Now() time.Time { return e.c.clocks[e.id].Now() }

// Rand returns the node's stream, seeding it on the first draw (see
// Cluster.rngs). It outlives the process: a restarted node draws on.
func (e *nodeEnv) Rand() *rand.Rand {
	if e.c.rngs[e.id] == nil {
		e.c.rngs[e.id] = rand.New(rand.NewSource(e.c.cfg.Seed + int64(e.id)*7919))
	}
	return e.c.rngs[e.id]
}

func (e *nodeEnv) Logf(f string, a ...any) {
	e.c.logs[e.id].Append(f, a...)
}

func (e *nodeEnv) Send(to int, msg []byte) {
	if to < 0 || to >= e.c.cfg.Nodes || to == e.id {
		return
	}
	e.c.send(e.id, to, msg)
}

func (e *nodeEnv) Connected(to int) bool {
	if to < 0 || to >= e.c.cfg.Nodes || to == e.id {
		return false
	}
	return !e.c.net.Cut[e.id].Has(to)
}

func (e *nodeEnv) Persist(key string, value []byte) { e.c.stores[e.id].Persist(key, value) }
func (e *nodeEnv) Load(key string) ([]byte, bool)   { return e.c.stores[e.id].Load(key) }
func (e *nodeEnv) Sync() {
	e.c.metrics.Counter("engine.syncs").Inc()
	e.c.stores[e.id].Sync()
}
