package spec

import (
	"bytes"
	"slices"
	"testing"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// tmsg is the test's message: one payload byte.
type tmsg byte

func (m tmsg) Hash(h fp.Hasher, _ struct{}) fp.Hasher { h.WriteInt(int(m)); return h }
func (m tmsg) AppendTo(dst []byte, _ struct{}) []byte { return append(dst, byte(m)) }
func (tmsg) DecodeFrom(src []byte, _ int, _ struct{}) (tmsg, []byte, error) {
	d := &Decoder{Src: src}
	return tmsg(d.Byte("msg")), d.Src, d.Err
}
func (m tmsg) Permuted([]int) tmsg { return m }

// newTestNet returns an n-node Net with every node up and every link joined.
func newTestNet(n int) *Net[tmsg] {
	net := new(Net[tmsg])
	net.Reset(n, 0)
	net.SetUp(NodeSet(1<<n - 1))
	return net
}

// netBytes is net's liveness byte and its codec section.
func netBytes(net *Net[tmsg]) []byte { return AppendChannels([]byte{byte(net.Up())}, net, struct{}{}) }

// netModel is the oracle: plain per-pair slices and booleans.
type netModel struct {
	up   [3]bool
	q    [3][3][]tmsg
	cut  [3][3]bool
	part [3][3]bool
}

func (m *netModel) sever(a, b int) {
	m.cut[a][b], m.cut[b][a], m.q[a][b], m.q[b][a] = true, true, nil, nil
}

func (m *netModel) setPart(a, b int, on bool) { m.part[a][b], m.part[b][a] = on, on }

// FuzzNetOps drives a 3-node Net through an arbitrary sequence of send,
// take, dup, crash, restart, partition, heal and environment events (Events
// then Apply) decoded from the fuzz input, each applied the way AppendNext
// applies a transition: to a clone made into a recycled dead Net, the parent
// staying live. After every operation it checks the clone against a
// map-of-slices model, that the parent's bytes did not move, that the codec
// section decodes to a Net that encodes to the same bytes, and that the two
// equal Nets hash every edge equally. Run via `make fuzz`.
func FuzzNetOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 0, 2, 6, 2, 0, 0, 1, 0})
	f.Add([]byte{1, 0, 1, 5, 0, 1, 6, 2, 1, 0, 7, 0, 0, 7, 1, 7, 0, 2})
	f.Add([]byte{0, 0, 0, 1, 3, 2, 0, 4, 0, 2, 5, 0, 2, 6, 0, 3, 7, 0, 3, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 3
		if len(data) == 0 {
			return
		}
		tr := TCP
		if data[0]&1 == 1 {
			tr = UDP
		}
		budget := Budget{MaxRestarts: 100, MaxPartitions: 100, MaxDrops: 100, MaxDuplicates: 100}
		var c Counters
		cur, dead := newTestNet(n), new(Net[tmsg])
		m := &netModel{up: [3]bool{true, true, true}}
		for i := 1; i+2 < len(data); i += 3 {
			op, a, arg := data[i]%8, int(data[i+1])%n, int(data[i+2])
			b := (a + 1 + arg%(n-1)) % n
			parent := netBytes(cur)
			cur.CopyTo(dead)
			next := dead
			switch op {
			case 0: // send
				if sent := next.Send(a, b, tmsg(arg)); sent == m.cut[a][b] {
					t.Fatalf("send %d->%d enqueued = %v, model cut = %v", a, b, sent, m.cut[a][b])
				}
				if !m.cut[a][b] {
					m.q[a][b] = append(m.q[a][b], tmsg(arg))
				}
			case 1, 2: // take, dup
				q := &m.q[a][b]
				if len(*q) == 0 {
					break
				}
				k := arg % len(*q)
				if op == 1 {
					if got := next.Take(a, b, k); got != (*q)[k] {
						t.Fatalf("take %d->%d[%d] = %d, model %d", a, b, k, got, (*q)[k])
					}
					*q = slices.Delete(slices.Clone(*q), k, k+1)
				} else {
					next.Dup(a, b, k)
					*q = append(slices.Clone(*q), (*q)[k])
				}
			case 3: // crash
				if !m.up[a] {
					break
				}
				next.Crash(a)
				m.up[a] = false
				for j := 0; j < n; j++ {
					if j != a {
						m.sever(a, j)
					}
				}
			case 4: // restart
				if m.up[a] {
					break
				}
				next.Restart(a)
				m.restart(a)
			case 5: // partition
				if m.part[a][b] {
					break
				}
				next.Partition(a, b)
				m.setPart(a, b, true)
				m.sever(a, b)
			case 6: // heal
				if !m.part[a][b] {
					break
				}
				next.Heal(a, b)
				m.heal(a, b)
			case 7: // an environment event, listed from the parent
				var evs []trace.Event
				cur.Events(&c, budget, tr, func(ev trace.Event) { evs = append(evs, ev) })
				if len(evs) == 0 {
					break
				}
				ev := evs[arg%len(evs)]
				msg, delivered := next.Apply(ev, &c)
				m.apply(t, ev, msg, delivered, tr)
			}
			if got := netBytes(cur); !bytes.Equal(got, parent) {
				t.Fatalf("op %d changed the parent: % x, was % x", op, got, parent)
			}
			m.check(t, next)
			enc := netBytes(next)
			dec := newTestNet(n)
			d := &Decoder{Src: enc[1:]}
			DecodeChannels(dec, d, struct{}{})
			dec.SetUp(next.Up())
			if d.Err != nil || len(d.Src) != 0 || !bytes.Equal(netBytes(dec), enc) {
				t.Fatalf("channel section does not round-trip: err %v, %d bytes left", d.Err, len(d.Src))
			}
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					if x == y {
						continue
					}
					var h1, h2 fp.Hasher
					h1.Reset()
					h2.Reset()
					HashEdge(next, &h1, x, y, struct{}{})
					HashEdge(dec, &h2, x, y, struct{}{})
					if h1.Sum() != h2.Sum() {
						t.Fatalf("equal nets hash edge %d->%d apart", x, y)
					}
				}
			}
			cur, dead = next, cur
		}
	})
}

func (m *netModel) restart(a int) {
	m.up[a] = true
	for j := 0; j < len(m.up); j++ {
		if j != a && m.up[j] && !m.part[a][j] {
			m.cut[a][j], m.cut[j][a] = false, false
		}
	}
}

func (m *netModel) heal(a, b int) {
	m.setPart(a, b, false)
	if m.up[a] && m.up[b] {
		m.cut[a][b], m.cut[b][a] = false, false
	}
}

// apply is the model's reading of an environment event, which must be one
// the model finds enabled.
func (m *netModel) apply(t *testing.T, ev trace.Event, msg tmsg, delivered bool, tr Semantics) {
	t.Helper()
	src, dst, k := ev.Peer, ev.Node, ev.Index
	switch ev.Type {
	case trace.EvRestart:
		if m.up[dst] {
			t.Fatalf("restart of running node %d listed", dst)
		}
		m.restart(dst)
	case trace.EvDeliver, trace.EvDrop, trace.EvDuplicate:
		if src == dst || !m.up[dst] || k >= len(m.q[src][dst]) || tr == TCP && (k != 0 || ev.Type != trace.EvDeliver) {
			t.Fatalf("%v %d->%d[%d] listed under %v, model queue %v, up %v", ev.Type, src, dst, k, tr, m.q[src][dst], m.up)
		}
		q := &m.q[src][dst]
		if ev.Type == trace.EvDeliver && (!delivered || msg != (*q)[k]) {
			t.Fatalf("delivery %d->%d[%d] = %d, %v; model %d", src, dst, k, msg, delivered, (*q)[k])
		}
		if ev.Type == trace.EvDuplicate {
			*q = append(slices.Clone(*q), (*q)[k])
		} else {
			*q = slices.Delete(slices.Clone(*q), k, k+1)
		}
	case trace.EvPartition:
		if tr != TCP || m.part[dst][src] {
			t.Fatalf("partition %d-%d listed under %v", dst, src, tr)
		}
		m.setPart(dst, src, true)
		m.sever(dst, src)
	case trace.EvRecover:
		if tr != TCP || !m.part[dst][src] {
			t.Fatalf("recovery %d-%d listed under %v", dst, src, tr)
		}
		m.heal(dst, src)
	default:
		t.Fatalf("unexpected event %v", ev)
	}
}

// check holds net to the model: liveness, links, partitions, queues and the
// buffer bound.
func (m *netModel) check(t *testing.T, net *Net[tmsg]) {
	t.Helper()
	longest := 0
	for a := range m.up {
		if net.Up().Has(a) != m.up[a] {
			t.Fatalf("node %d up = %v, model %v", a, net.Up().Has(a), m.up[a])
		}
		for b := range m.up {
			if a == b {
				continue
			}
			if net.Cut(a).Has(b) != m.cut[a][b] || net.Part(a).Has(b) != m.part[a][b] {
				t.Fatalf("pair %d->%d cut %v part %v, model %v %v", a, b, net.Cut(a).Has(b), net.Part(a).Has(b), m.cut[a][b], m.part[a][b])
			}
			if !slices.Equal(net.Queue(a, b), m.q[a][b]) {
				t.Fatalf("queue %d->%d = %v, model %v", a, b, net.Queue(a, b), m.q[a][b])
			}
			longest = max(longest, len(m.q[a][b]))
		}
	}
	if net.Overflows(longest) || longest > 1 && !net.Overflows(longest-1) {
		t.Fatalf("Overflows disagrees with a longest queue of %d", longest)
	}
}
