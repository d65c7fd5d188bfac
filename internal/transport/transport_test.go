package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"github.com/sandtable-go/sandtable/internal/obs"
)

// unmix64 inverts Mix64 (the fmix64 constants have well-known modular
// inverses), letting the test turn a mixed-space boundary back into a raw
// fingerprint.
func unmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0x9cb4b2f8129337db
	x ^= x >> 33
	x *= 0x4f74430c22a54005
	x ^= x >> 33
	return x
}

func TestOwnerRangeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, peers := range []int{1, 2, 3, 5, 8} {
		// Every peer's range boundaries must agree with Owner (via the
		// Mix64 bijection), and ranges must tile the mixed space.
		prevHi := uint64(0)
		for p := 0; p < peers; p++ {
			lo, hi := Range(p, peers)
			if p == 0 && lo != 0 {
				t.Fatalf("peers=%d: range 0 starts at %#x", peers, lo)
			}
			if p > 0 && lo != prevHi {
				t.Fatalf("peers=%d: range %d starts at %#x, previous ended at %#x", peers, p, lo, prevHi)
			}
			if p == peers-1 && hi != 0 {
				t.Fatalf("peers=%d: last range ends at %#x, want open top", peers, hi)
			}
			prevHi = hi
			if Owner(unmix64(lo), peers) != p {
				t.Fatalf("peers=%d: Owner(unmix(lo=%#x))=%d, want %d", peers, lo, Owner(unmix64(lo), peers), p)
			}
			if hi != 0 && Owner(unmix64(hi-1), peers) != p {
				t.Fatalf("peers=%d: Owner(unmix(hi-1=%#x))=%d, want %d", peers, hi-1, Owner(unmix64(hi-1), peers), p)
			}
		}
		for i := 0; i < 10000; i++ {
			fp := rng.Uint64()
			if got := unmix64(Mix64(fp)); got != fp {
				t.Fatalf("unmix64(Mix64(%#x)) = %#x", fp, got)
			}
			o := Owner(fp, peers)
			if o < 0 || o >= peers {
				t.Fatalf("peers=%d: Owner(%#x)=%d out of range", peers, fp, o)
			}
			lo, hi := Range(o, peers)
			if m := Mix64(fp); m < lo || (hi != 0 && m >= hi) {
				t.Fatalf("peers=%d: fp %#x (mixed %#x) owned by %d but outside [%#x,%#x)", peers, fp, m, o, lo, hi)
			}
		}
	}
}

// TestOwnerBalancesSymmetryReducedFingerprints regression-tests the Mix64
// remix in Owner: canonical fingerprints under symmetry reduction are the
// minimum of an orbit's hashes, which is heavily biased low (min of two
// uniforms puts 75% of mass in the bottom half). The partition must still
// hand every peer a near-equal share of such fingerprints.
func TestOwnerBalancesSymmetryReducedFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	fps := make([]uint64, n)
	for i := range fps {
		// Orbit size 2: the bias the remix must absorb.
		a, b := rng.Uint64(), rng.Uint64()
		if b < a {
			a = b
		}
		fps[i] = a
	}
	for _, peers := range []int{2, 3, 4, 8} {
		counts := make([]int, peers)
		for _, fp := range fps {
			counts[Owner(fp, peers)]++
		}
		// Without the remix the first peer owns 75% at peers=2; a ±5%
		// tolerance leaves room for the finalizer's residual structure
		// while failing hard on any real skew.
		want := float64(n) / float64(peers)
		for p, c := range counts {
			if dev := (float64(c) - want) / want; dev < -0.05 || dev > 0.05 {
				t.Errorf("peers=%d: peer %d owns %d of %d (%.1f%% off an even share)",
					peers, p, c, n, 100*dev)
			}
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var cands []Candidate
	fp := uint64(0)
	for i := 0; i < 500; i++ {
		fp += uint64(rng.Intn(1 << 20))
		st := make([]byte, rng.Intn(40))
		rng.Read(st)
		cands = append(cands, Candidate{FP: fp, Parent: rng.Uint64(), Action: uint16(rng.Intn(300)), State: st})
	}
	for _, in := range [][]Candidate{nil, cands[:1], cands} {
		payload, err := EncodeBlock(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := DecodeWireBlock(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(out) != len(in) {
			t.Fatalf("round trip: %d candidates, want %d", len(out), len(in))
		}
		for i := range in {
			if out[i].FP != in[i].FP || out[i].Parent != in[i].Parent || out[i].Action != in[i].Action ||
				!reflect.DeepEqual(append([]byte{}, out[i].State...), append([]byte{}, in[i].State...)) {
				t.Fatalf("candidate %d mismatch: %+v vs %+v", i, out[i], in[i])
			}
		}
	}
}

func TestDecodeBlockRejectsCorrupt(t *testing.T) {
	payload, err := EncodeBlock([]Candidate{{FP: 7, Parent: 3, Action: 1, State: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWireBlock(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated block decoded without error")
	}
	raw := AppendBlock(nil, []Candidate{{FP: 7, State: []byte("x")}})
	if _, err := DecodeBlock(append(raw, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// The receiving owner merges on strictly increasing fingerprints. A zero
	// delta is legal only on the first candidate (fingerprint 0); after it
	// it is a duplicate, and a descending step is a delta that wraps.
	if _, err := DecodeBlock(AppendBlock(nil, []Candidate{{FP: 0}, {FP: 5}})); err != nil {
		t.Fatalf("block starting at fingerprint 0 rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		cands []Candidate
		want  error
	}{
		{"duplicate", []Candidate{{FP: 3}, {FP: 7}, {FP: 7}}, ErrDuplicateFP},
		{"wrap", []Candidate{{FP: 7}, {FP: 3}}, ErrFPWrap},
	} {
		if _, err := DecodeWireBlock(AppendBlock(nil, tc.cands)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// exerciseConns drives one barrier + probe round over any Conn mesh and
// verifies all-to-all delivery. Shared by the mesh and TCP tests.
func exerciseConns(t *testing.T, conns []Conn) {
	t.Helper()
	n := len(conns)
	results := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p] = func() error {
				conn := conns[p]
				if conn.Self() != p || conn.Peers() != n {
					return fmt.Errorf("identity: self=%d peers=%d", conn.Self(), conn.Peers())
				}
				for tag := uint64(0); tag < 3; tag++ {
					blocks := make([][]byte, n)
					for q := 0; q < n; q++ {
						if q != p {
							blocks[q] = []byte(fmt.Sprintf("blk %d->%d @%d", p, q, tag))
						}
					}
					sum := []byte(fmt.Sprintf("sum %d @%d", p, tag))
					in, sums, err := conn.Exchange(tag, blocks, sum)
					if err != nil {
						return fmt.Errorf("exchange tag %d: %w", tag, err)
					}
					for q := 0; q < n; q++ {
						if q == p {
							if string(sums[q]) != string(sum) {
								return fmt.Errorf("own summary echo: %q", sums[q])
							}
							continue
						}
						if want := fmt.Sprintf("blk %d->%d @%d", q, p, tag); string(in[q]) != want {
							return fmt.Errorf("block from %d: %q want %q", q, in[q], want)
						}
						if want := fmt.Sprintf("sum %d @%d", q, tag); string(sums[q]) != want {
							return fmt.Errorf("summary from %d: %q want %q", q, sums[q], want)
						}
					}
				}
				if p == 0 {
					for q := 1; q < n; q++ {
						parent, depth, ok, err := conn.Probe(q, 42)
						if err != nil {
							return fmt.Errorf("probe %d: %w", q, err)
						}
						if !ok || parent != uint64(1000+q) || depth != int32(q) {
							return fmt.Errorf("probe %d: parent=%d depth=%d ok=%v", q, parent, depth, ok)
						}
						if _, _, ok, err := conn.Probe(q, 7); err != nil || ok {
							return fmt.Errorf("probe miss %d: ok=%v err=%v", q, ok, err)
						}
					}
					return conn.Bye()
				}
				return conn.ServeProbes(func(fp uint64) (uint64, int32, bool) {
					if fp == 42 {
						return uint64(1000 + p), int32(p), true
					}
					return 0, 0, false
				})
			}()
		}(p)
	}
	wg.Wait()
	for p, err := range results {
		if err != nil {
			t.Fatalf("peer %d: %v", p, err)
		}
	}
}

func TestMeshExchange(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		conns := NewMesh(n)
		exerciseConns(t, conns)
		for _, c := range conns {
			c.Close()
		}
	}
}

func TestMeshCloseUnblocksPeers(t *testing.T) {
	conns := NewMesh(3)
	errs := make(chan error, 2)
	for p := 1; p < 3; p++ {
		go func(p int) {
			_, _, err := conns[p].Exchange(0, nil, []byte("s"))
			errs <- err
		}(p)
	}
	conns[0].Close()
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatal("exchange with a closed peer succeeded")
		}
	}
}

// freeAddrs reserves n distinct localhost ports and returns them as listen
// addresses (the listeners are closed; a tiny race with other processes is
// accepted in tests).
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func TestTCPMesh(t *testing.T) {
	const n = 3
	addrs := freeAddrs(t, n)
	regs := make([]*obs.Registry, n)
	conns := make([]Conn, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		regs[p] = obs.NewRegistry()
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			conns[p], errs[p] = DialTCP(TCPOptions{
				Addrs: addrs, Self: p, Digest: 0xD1CE, Metrics: NewMetrics(regs[p]),
			})
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("dial peer %d: %v", p, err)
		}
	}
	exerciseConns(t, conns)
	for _, c := range conns {
		c.Close()
	}
	snap := regs[0].Snapshot()
	if v, ok := snap["transport.blocks_sent"].(int64); !ok || v != 6 {
		t.Fatalf("coordinator blocks_sent = %v, want 6", snap["transport.blocks_sent"])
	}
	if v, ok := snap["transport.probes"].(int64); !ok || v != 4 {
		t.Fatalf("coordinator probes = %v, want 4", snap["transport.probes"])
	}
}

func TestTCPDigestMismatch(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	conns := make([]Conn, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			conns[p], errs[p] = DialTCP(TCPOptions{Addrs: addrs, Self: p, Digest: uint64(p)})
		}(p)
	}
	wg.Wait()
	for p, c := range conns {
		if c != nil {
			c.Close()
		}
		if errs[p] == nil {
			t.Fatalf("peer %d formed a cluster across a digest mismatch", p)
		}
	}
}
