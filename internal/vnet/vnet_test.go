// Package vnet_test checks the virtual network an engine.Cluster runs its
// nodes in (§A.2–A.3) from outside, through what a run sees of it: the
// commands Apply takes, what the nodes send and receive, their
// vos.Env.Connected, the net[src->dst] slots ObserveAll renders, the vnet.*
// metrics and the vnet trace events. The network itself is a spec.Net of
// frames inside internal/engine; this directory holds only its tests.
package vnet_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// recorder is a node that sends what a client request tells it to — payload
// "dst:body" sends body to dst — and keeps what it receives. It sends from
// one buffer that it scribbles over after every send, so a network that kept
// the sender's bytes instead of its own copy delivers garbage.
type recorder struct {
	env vos.Env
	buf []byte
	got []string
}

func (r *recorder) Start(env vos.Env) { r.env = env }
func (r *recorder) Tick()             {}

func (r *recorder) Receive(from int, msg []byte) { r.got = append(r.got, string(msg)) }

func (r *recorder) ClientRequest(payload string) {
	dst, body, _ := strings.Cut(payload, ":")
	to, _ := strconv.Atoi(dst)
	r.buf = append(r.buf[:0], body...)
	r.env.Send(to, r.buf)
	for i := range r.buf {
		r.buf[i] = '#'
	}
}

func (r *recorder) Fields() []string { return []string{"got"} }

func (r *recorder) Observe(dst []string) { dst[0] = strings.Join(r.got, ",") }

// net drives a cluster of recorders through its network commands.
type net struct {
	t     *testing.T
	c     *engine.Cluster
	nodes []*recorder // the latest process of each node
	reg   *obs.Registry
}

func newNet(t *testing.T, n int, s spec.Semantics) *net {
	t.Helper()
	nw := &net{t: t, nodes: make([]*recorder, n), reg: obs.NewRegistry()}
	c, err := engine.NewCluster(engine.Config{Nodes: n, Semantics: s}, func(id int) vos.Process {
		nw.nodes[id] = &recorder{}
		return nw.nodes[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(nw.reg)
	nw.c = c
	return nw
}

// apply applies a command that must succeed.
func (nw *net) apply(cmd engine.Command) {
	nw.t.Helper()
	if err := nw.c.Apply(cmd); err != nil {
		nw.t.Fatalf("%v: %v", cmd, err)
	}
}

func (nw *net) send(src, dst int, body string) {
	nw.t.Helper()
	nw.apply(engine.Command{Type: trace.EvRequest, Node: src, Payload: strconv.Itoa(dst) + ":" + body})
}

// deliver delivers message index of src→dst and returns what dst received.
func (nw *net) deliver(src, dst, index int) (string, error) {
	if err := nw.c.Apply(engine.Command{Type: trace.EvDeliver, Node: dst, Peer: src, Index: index}); err != nil {
		return "", err
	}
	got := nw.nodes[dst].got
	return got[len(got)-1], nil
}

func (nw *net) drop(src, dst, index int) error {
	return nw.c.Apply(engine.Command{Type: trace.EvDrop, Node: dst, Peer: src, Index: index})
}

func (nw *net) duplicate(src, dst, index int) error {
	return nw.c.Apply(engine.Command{Type: trace.EvDuplicate, Node: dst, Peer: src, Index: index})
}

// len is the number of messages in flight src→dst, as the cluster renders it.
func (nw *net) len(src, dst int) int {
	nw.t.Helper()
	all, err := nw.c.ObserveAll()
	if err != nil {
		nw.t.Fatal(err)
	}
	n, err := strconv.Atoi(all["net["+strconv.Itoa(src)+"->"+strconv.Itoa(dst)+"]"])
	if err != nil {
		nw.t.Fatal(err)
	}
	return n
}

// connected reports whether src's link to dst carries traffic, as src sees it.
func (nw *net) connected(src, dst int) bool { return nw.nodes[src].env.Connected(dst) }

func (nw *net) counter(name string) int64 { return nw.reg.Counter(name).Value() }

func TestTCPFIFOOrder(t *testing.T) {
	n := newNet(t, 3, spec.TCP)
	n.send(0, 1, "a")
	n.send(0, 1, "b")
	n.send(0, 1, "c")
	if n.len(0, 1) != 3 {
		t.Fatalf("buffered = %d, want 3", n.len(0, 1))
	}
	for _, want := range []string{"a", "b", "c"} {
		got, err := n.deliver(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("delivered %q, want %q", got, want)
		}
	}
}

func TestTCPHeadOnly(t *testing.T) {
	n := newNet(t, 2, spec.TCP)
	n.send(0, 1, "a")
	n.send(0, 1, "b")
	if _, err := n.deliver(0, 1, 1); err == nil || err.Error() != "vnet: TCP semantics deliver only the head message" {
		t.Errorf("non-head TCP delivery: err = %v, want the head-only refusal", err)
	}
	if n.len(0, 1) != 2 {
		t.Errorf("a refused delivery changed the queue: buffered = %d, want 2", n.len(0, 1))
	}
}

func TestTCPNoLossNoDupOps(t *testing.T) {
	n := newNet(t, 2, spec.TCP)
	n.send(0, 1, "a")
	if err := n.drop(0, 1, 0); err == nil {
		t.Error("drop should be rejected under TCP semantics")
	}
	if err := n.duplicate(0, 1, 0); err == nil {
		t.Error("duplicate should be rejected under TCP semantics")
	}
	if n.len(0, 1) != 1 {
		t.Errorf("buffered = %d, want 1", n.len(0, 1))
	}
}

func TestPartitionClearsAndBlocks(t *testing.T) {
	n := newNet(t, 3, spec.TCP)
	n.send(0, 1, "inflight")
	n.apply(engine.Command{Type: trace.EvPartition, Node: 0, Peer: 1})
	if n.len(0, 1) != 0 {
		t.Error("partition should clear in-flight buffers")
	}
	n.send(0, 1, "blocked")
	if n.len(0, 1) != 0 {
		t.Error("send across partition should be dropped")
	}
	if n.connected(0, 1) || n.connected(1, 0) {
		t.Error("both directions should be severed")
	}
	// Unaffected pair still works.
	n.send(0, 2, "ok")
	if n.len(0, 2) != 1 {
		t.Error("partition must not affect other pairs")
	}
	n.apply(engine.Command{Type: trace.EvRecover, Node: 0, Peer: 1})
	n.send(0, 1, "after")
	if n.len(0, 1) != 1 {
		t.Error("healed pair should carry traffic")
	}
	if d := n.counter("vnet.dropped"); d != 2 { // 1 cleared + 1 blocked send
		t.Errorf("dropped = %d, want 2", d)
	}
}

func TestUDPOutOfOrderDropDuplicate(t *testing.T) {
	n := newNet(t, 2, spec.UDP)
	n.send(0, 1, "a")
	n.send(0, 1, "b")
	n.send(0, 1, "c")

	// Out-of-order: deliver index 1 ("b") first.
	if got, err := n.deliver(0, 1, 1); err != nil || got != "b" {
		t.Fatalf("deliver idx 1: %v %q", err, got)
	}
	// Duplicate "a" (now index 0): buffer becomes a, c, a.
	if err := n.duplicate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if n.len(0, 1) != 3 {
		t.Fatalf("buffered = %d, want 3", n.len(0, 1))
	}
	// Drop "c" (index 1): buffer becomes a, a.
	if err := n.drop(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for n.len(0, 1) > 0 {
		m, err := n.deliver(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "a" {
		t.Errorf("remaining = %v, want [a a]", got)
	}
	if dup, drop := n.counter("vnet.duplicated"), n.counter("vnet.dropped"); dup != 1 || drop != 1 {
		t.Errorf("duplicated = %d, dropped = %d, want 1 and 1", dup, drop)
	}
}

func TestCrashNodeSeversEverything(t *testing.T) {
	n := newNet(t, 3, spec.TCP)
	n.send(0, 1, "x")
	n.send(2, 1, "y")
	n.send(1, 2, "z")
	n.apply(engine.Command{Type: trace.EvCrash, Node: 1})
	if n.len(0, 1)+n.len(2, 1)+n.len(1, 2) != 0 {
		t.Error("crash should clear all the node's channels")
	}
	n.send(0, 1, "gone")
	if n.len(0, 1) != 0 {
		t.Error("send to crashed node should be dropped")
	}
	// Restart reconnects, except pairs an active partition keeps severed.
	n.apply(engine.Command{Type: trace.EvPartition, Node: 1, Peer: 2})
	n.apply(engine.Command{Type: trace.EvRestart, Node: 1})
	if !n.connected(0, 1) || !n.connected(1, 0) {
		t.Error("restart should reconnect to node 0")
	}
	if n.connected(1, 2) || n.connected(2, 1) {
		t.Error("restart must not reconnect across an active partition")
	}
}

func TestDeliverErrors(t *testing.T) {
	n := newNet(t, 2, spec.UDP)
	if _, err := n.deliver(0, 1, 0); err == nil {
		t.Error("delivering from empty channel should fail")
	}
	if err := n.drop(0, 1, 0); err == nil {
		t.Error("dropping from empty channel should fail")
	}
	if err := n.duplicate(0, 1, 0); err == nil {
		t.Error("duplicating from empty channel should fail")
	}
	// A node that does not exist has no channels.
	if _, err := n.deliver(5, 1, 0); err == nil {
		t.Error("delivering from a node that does not exist should fail")
	}
	for _, pair := range [][2]int{{5, 1}, {0, -1}} {
		want := "vnet: no message " + strconv.Itoa(pair[0]) + "->" + strconv.Itoa(pair[1]) + " at index 0 (buffered 0)"
		if err := n.drop(pair[0], pair[1], 0); err == nil || err.Error() != want {
			t.Errorf("drop %d->%d: err = %v, want %q", pair[0], pair[1], err, want)
		}
		if err := n.duplicate(pair[0], pair[1], 0); err == nil || err.Error() != want {
			t.Errorf("duplicate %d->%d: err = %v, want %q", pair[0], pair[1], err, want)
		}
	}
}

// TestFrameCodecRoundTrip: a payload reaches its receiver byte for byte —
// empty, binary or long — whatever the sender does with its buffer after the
// send, and a duplicate delivers the same bytes.
func TestFrameCodecRoundTrip(t *testing.T) {
	msgs := []string{"hello", "", "worlds", "\x00\xff\x00\x04", strings.Repeat("long", 1000)}
	n := newNet(t, 2, spec.UDP)
	for _, m := range msgs {
		n.send(0, 1, m)
	}
	if err := n.duplicate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range append(msgs, msgs[0]) {
		got, err := n.deliver(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("delivered %q, want %q", got, want)
		}
	}
}

// TestChannelsSortedBySeq: the network numbers the frames it enqueues in
// order, across channels, and a delivery or drop reports the number of the
// frame it took.
func TestChannelsSortedBySeq(t *testing.T) {
	var b strings.Builder
	tr := obs.NewTracer(&b)
	n := newNet(t, 3, spec.UDP)
	n.c.SetTracer(tr)
	n.send(0, 1, "1")
	n.send(1, 2, "2")
	n.send(0, 1, "3")
	if err := n.duplicate(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.deliver(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.drop(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []string
	for _, e := range evs {
		if e.Layer == "vnet" {
			seqs = append(seqs, e.Kind+"#"+e.Detail["seq"])
		}
	}
	want := "send#1 send#2 send#3 duplicate#4 deliver#3 drop#2"
	if got := strings.Join(seqs, " "); got != want {
		t.Errorf("vnet events = %s, want %s", got, want)
	}
}

// TestStaleIndexAfterDrop exercises the trap of a stale index: a Drop
// shrinks the queue, so an index computed before it can be stale. Every
// queue command must reject the out-of-range index with a diagnostic that
// reports the remaining buffer length instead of panicking or acting on a
// wrong frame.
func TestStaleIndexAfterDrop(t *testing.T) {
	n := newNet(t, 2, spec.UDP)
	n.send(0, 1, "a")
	n.send(0, 1, "b")
	if err := n.drop(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Index 1 referred to "b" before the drop; now only "a" remains.
	if _, err := n.deliver(0, 1, 1); err == nil {
		t.Error("Deliver with stale index should fail")
	} else if !strings.Contains(err.Error(), "(buffered 1)") {
		t.Errorf("Deliver error %q should report buffered length", err)
	}
	if err := n.drop(0, 1, 1); err == nil {
		t.Error("Drop with stale index should fail")
	} else if !strings.Contains(err.Error(), "(buffered 1)") {
		t.Errorf("Drop error %q should report buffered length", err)
	}
	if err := n.duplicate(0, 1, 1); err == nil {
		t.Error("Duplicate with stale index should fail")
	} else if !strings.Contains(err.Error(), "(buffered 1)") {
		t.Errorf("Duplicate error %q should report buffered length", err)
	}
	// The surviving frame is untouched by the failed operations.
	if n.len(0, 1) != 1 {
		t.Fatalf("buffered = %d, want 1", n.len(0, 1))
	}
	got, err := n.deliver(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "a" {
		t.Errorf("delivered %q, want %q", got, "a")
	}
}

func TestNegativeIndexRejected(t *testing.T) {
	n := newNet(t, 2, spec.UDP)
	n.send(0, 1, "a")
	if _, err := n.deliver(0, 1, -1); err == nil {
		t.Error("Deliver with negative index should fail")
	}
	if err := n.drop(0, 1, -1); err == nil {
		t.Error("Drop with negative index should fail")
	}
	if err := n.duplicate(0, 1, -1); err == nil {
		t.Error("Duplicate with negative index should fail")
	}
	if n.len(0, 1) != 1 {
		t.Errorf("buffered = %d, want 1", n.len(0, 1))
	}
}

// TestStatsMirrorConcurrentReads pins the network's concurrency contract
// under -race: the cluster is single-goroutine, but the vnet.* metrics it
// counts into may be read concurrently while the goroutine applying commands
// sends, delivers, drops and duplicates. It fails if the metrics ever share
// non-atomic state with the command path.
func TestStatsMirrorConcurrentReads(t *testing.T) {
	n := newNet(t, 2, spec.UDP)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent observer: registry snapshots + counter reads
		defer wg.Done()
		sent := n.reg.Counter("vnet.sent")
		delivered := n.reg.Counter("vnet.delivered")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap := n.reg.Snapshot(); snap == nil {
				t.Error("Snapshot returned nil")
				return
			}
			// Individual counter reads alongside full snapshots; the race
			// detector does the real checking here.
			_, _ = sent.Value(), delivered.Value()
		}
	}()

	// The command goroutine (this one): a busy delivery loop.
	var sent, delivered, dropped, duplicated int64
	for i := 0; i < 2000; i++ {
		n.send(0, 1, "m")
		sent++
		if i%7 == 0 {
			if err := n.duplicate(0, 1, 0); err != nil {
				t.Fatal(err)
			}
			duplicated++
		}
		if i%5 == 0 {
			if err := n.drop(0, 1, 0); err != nil {
				t.Fatal(err)
			}
			dropped++
			continue
		}
		if _, err := n.deliver(0, 1, 0); err != nil {
			t.Fatal(err)
		}
		delivered++
	}
	close(stop)
	wg.Wait()

	for name, want := range map[string]int64{"vnet.sent": sent, "vnet.delivered": delivered, "vnet.dropped": dropped, "vnet.duplicated": duplicated} {
		if got := n.counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got, want := n.reg.Gauge("vnet.buffered").Value(), int64(n.len(0, 1)); got != want {
		t.Errorf("vnet.buffered = %d, want %d", got, want)
	}
}
