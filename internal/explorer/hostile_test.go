package explorer

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// Frontier records read back from a spill run or received from a peer are
// bytes the run did not just write. These tests damage them and hold the run
// to a named stop — no panic, no worker left waiting at the block barrier —
// at every worker count.

// smashLastRecord overwrites the state bytes of the last frontier record in
// the run file at path with 0xFF: header walks still delimit every record,
// and the last one no longer decodes (an unterminated varint).
func smashLastRecord(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for off := 0; off < len(raw); {
		last = off
		off += frontierRecHeader + int(binary.LittleEndian.Uint32(raw[off+8:]))
	}
	for i := last + frontierRecHeader; i < len(raw); i++ {
		raw[i] = 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSpillRunEndsInSpillError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		spill := t.TempDir()
		smashed := 0
		tr := obs.NewTracer(io.Discard)
		// A "level" event is emitted once the next level's runs are sealed
		// and before they are opened: damage the first ones that appear.
		tr.Tee(func(e obs.Event) {
			if e.Kind != "level" || smashed > 0 {
				return
			}
			runs, _ := filepath.Glob(filepath.Join(spill, "*", "frontier-*.run"))
			for _, path := range runs {
				smashLastRecord(t, path)
				smashed++
			}
		})
		done := make(chan *Result, 1)
		go func() {
			done <- NewChecker(zabMachine(), Options{
				Workers: workers, MemBudget: 64 << 10, SpillDir: spill, Tracer: tr,
			}).Run()
		}()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers=%d: run hangs on a damaged spill run", workers)
		}
		if smashed == 0 {
			t.Fatalf("workers=%d: no level spilled; the test proves nothing", workers)
		}
		if res.StopReason != "spill-error" || res.Err == nil || !strings.Contains(res.Err.Error(), "frontier record") {
			t.Errorf("workers=%d: stop=%s err=%v, want spill-error naming the frontier record", workers, res.StopReason, res.Err)
		}
		if res.Exhausted {
			t.Errorf("workers=%d: a run that lost part of a level claims exhaustion", workers)
		}
	}
}

// truncatingConn cuts the last byte off every candidate state in the blocks
// its peer receives at or past barrier tag from.
type truncatingConn struct {
	transport.Conn
	from uint64
}

func (c *truncatingConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	in, sums, err := c.Conn.Exchange(tag, blocks, summary)
	if err != nil || tag < c.from {
		return in, sums, err
	}
	for q, payload := range in {
		cands, derr := transport.DecodeWireBlock(payload)
		if derr != nil || len(cands) == 0 {
			continue
		}
		for i := range cands {
			cands[i].State = cands[i].State[:len(cands[i].State)-1]
		}
		if in[q], err = transport.EncodeBlock(cands); err != nil {
			return nil, nil, err
		}
	}
	return in, sums, nil
}

func TestTruncatedWireStateEndsInTransportError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		done := make(chan []*Result, 1)
		go func() {
			done <- runClusterPeers(2, func(int) Options { return Options{Workers: workers} },
				func(i int, c transport.Conn) transport.Conn {
					if i == 0 {
						// hello, resolve(0), then data + resolve per level.
						return &truncatingConn{Conn: c, from: 4}
					}
					return c
				})
		}()
		var results []*Result
		select {
		case results = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers=%d: cluster hangs on a truncated wire state", workers)
		}
		res := results[0]
		if res.StopReason != "transport-error" || res.Err == nil || !strings.Contains(res.Err.Error(), "decode state") {
			t.Errorf("workers=%d: peer 0 stop=%s err=%v, want transport-error from decode state … at depth", workers, res.StopReason, res.Err)
		}
		if other := results[1]; other.StopReason != "transport-error" {
			t.Errorf("workers=%d: peer 1 stop=%s, want transport-error once peer 0 is gone", workers, other.StopReason)
		}
	}
}

// duplicatingConn gives the second candidate of every inbound block of two or
// more its predecessor's fingerprint, from barrier tag from on: the block
// stays sorted but is no longer strictly increasing, the order the owner's
// merge relies on.
type duplicatingConn struct {
	transport.Conn
	from uint64
}

func (c *duplicatingConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	in, sums, err := c.Conn.Exchange(tag, blocks, summary)
	if err != nil || tag < c.from {
		return in, sums, err
	}
	for q, payload := range in {
		cands, derr := transport.DecodeWireBlock(payload)
		if derr != nil || len(cands) < 2 {
			continue
		}
		cands[1].FP = cands[0].FP
		in[q] = transport.AppendBlock(nil, cands)
	}
	return in, sums, nil
}

func TestDuplicateWireFingerprintEndsInTransportError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		done := make(chan []*Result, 1)
		go func() {
			done <- runClusterPeers(2, func(int) Options { return Options{Workers: workers} },
				func(i int, c transport.Conn) transport.Conn {
					if i == 0 {
						// hello, resolve(0), then data + resolve per level.
						return &duplicatingConn{Conn: c, from: 2}
					}
					return c
				})
		}()
		var results []*Result
		select {
		case results = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers=%d: cluster hangs on a duplicate wire fingerprint", workers)
		}
		if res := results[0]; res.StopReason != "transport-error" || !errors.Is(res.Err, transport.ErrDuplicateFP) {
			t.Errorf("workers=%d: peer 0 stop=%s err=%v, want transport-error from the duplicate fingerprint", workers, res.StopReason, res.Err)
		}
		if other := results[1]; other.StopReason != "transport-error" {
			t.Errorf("workers=%d: peer 1 stop=%s, want transport-error once peer 0 is gone", workers, other.StopReason)
		}
		for i, res := range results {
			if res.Exhausted {
				t.Errorf("workers=%d: peer %d claims exhaustion after a rejected block", workers, i)
			}
		}
	}
}

// TestWalksGrowsItsResult: Walks(n) used to allocate n result slots before
// the first walk — 8 GiB for this request, deadline or not.
func TestWalksGrowsItsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := NewSimulator(newToy(3, false), SimOptions{Context: ctx})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := sim.Walks(1 << 30)
	runtime.ReadMemStats(&after)
	if len(got) != 0 {
		t.Fatalf("canceled Walks returned %d walks", len(got))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("canceled Walks(1<<30) allocated %d bytes", grew)
	}
}

// negatingConn rewrites every inbound summary that carries a next_frontier
// count so that the count is negative: a peer reporting a frontier the
// others would sum to zero or less.
type negatingConn struct{ transport.Conn }

func (c *negatingConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	in, sums, err := c.Conn.Exchange(tag, blocks, summary)
	if err != nil {
		return in, sums, err
	}
	for q, raw := range sums {
		var m map[string]any
		if json.Unmarshal(raw, &m) != nil || m == nil {
			continue
		}
		if _, ok := m["next_frontier"]; ok {
			m["next_frontier"] = -1 << 20
			if sums[q], err = json.Marshal(m); err != nil {
				return nil, nil, err
			}
		}
	}
	return in, sums, nil
}

// TestNegativeSummaryEndsInTransportError: a peer whose resolve summary
// reports a negative next frontier used to drive the cluster's frontier to
// zero or less, and the run then ended "exhausted" with the levels below
// never explored. It must end in transport-error, naming the peer and the
// field.
func TestNegativeSummaryEndsInTransportError(t *testing.T) {
	done := make(chan []*Result, 1)
	go func() {
		done <- runClusterPeers(2, func(int) Options { return Options{Workers: 1} },
			func(i int, c transport.Conn) transport.Conn {
				if i == 0 {
					return &negatingConn{Conn: c}
				}
				return c
			})
	}()
	var results []*Result
	select {
	case results = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("cluster hangs on a negative summary")
	}
	res := results[0]
	if res.StopReason != "transport-error" || res.Err == nil ||
		!strings.Contains(res.Err.Error(), "peer 1") || !strings.Contains(res.Err.Error(), "negative next_frontier") {
		t.Errorf("peer 0 stop=%s err=%v, want transport-error naming peer 1 and next_frontier", res.StopReason, res.Err)
	}
	for i, res := range results {
		if res.Exhausted {
			t.Errorf("peer %d claims exhaustion after a negative summary", i)
		}
	}
}
