package transport

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/craft"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
)

// FuzzDecodeWireBlock fuzzes the bytes a peer hands this one at every level
// barrier. Whatever they are, DecodeWireBlock must return an error or a block
// that is strictly increasing in fingerprint (the owner's merge relies on it)
// and survives the trip back: encoded again and decoded, the same
// candidates. The corpus is seeded with the blocks real runs exchange —
// candidates of reachable craft and zabkeeper states, sorted by fingerprint
// with one per fingerprint, in blocks of one to a few hundred.
func FuzzDecodeWireBlock(f *testing.F) {
	budget := spec.Budget{Name: "fuzz", MaxTimeouts: 3, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 1, MaxPartitions: 1, MaxDrops: 1, MaxBuffer: 3}
	for _, m := range []spec.Machine{
		craft.New(spec.DefaultConfig(), budget, bugdb.NoBugs()),
		zabkeeper.New(spec.DefaultConfig(), budget, bugdb.NoBugs()),
	} {
		var cands []Candidate
		spectest.BFS(m, 300, func(s spec.State) {
			parent := s.Fingerprint()
			for _, su := range m.AppendNext(s, nil) {
				cands = append(cands, Candidate{
					FP:     su.State.Fingerprint(),
					Parent: parent,
					Action: uint16(slices.Index(m.Actions(), su.Event.Action)),
					State:  m.AppendState(nil, su.State),
				})
			}
		})
		slices.SortFunc(cands, func(a, b Candidate) int { return cmp.Compare(a.FP, b.FP) })
		cands = slices.CompactFunc(cands, func(a, b Candidate) bool { return a.FP == b.FP })
		for _, n := range []int{1, 7, 300} {
			payload, err := EncodeBlock(cands[:n])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		cands, err := DecodeWireBlock(payload)
		if err != nil {
			return
		}
		for i := 1; i < len(cands); i++ {
			if cands[i].FP <= cands[i-1].FP {
				t.Fatalf("accepted block is not strictly increasing: candidate %d fp %#x after %#x", i, cands[i].FP, cands[i-1].FP)
			}
		}
		again, err := EncodeBlock(cands)
		if err != nil {
			t.Fatalf("an accepted block of %d candidates does not encode: %v", len(cands), err)
		}
		back, err := DecodeWireBlock(again)
		if err != nil {
			t.Fatalf("an accepted block of %d candidates does not decode once encoded again: %v", len(cands), err)
		}
		if len(cands)+len(back) > 0 && !reflect.DeepEqual(cands, back) {
			t.Fatalf("an accepted block of %d candidates came back as %d different ones", len(cands), len(back))
		}
	})
}

// FuzzHandshake feeds arbitrary bytes to a dialing peer's handshake over
// net.Pipe, as the hello the peer it dialed sends back. The handshake must
// neither panic nor outlive its deadline, and it must accept exactly the
// hellos whose frame type, run digest, cluster size, partition version and
// wire version all match its own.
func FuzzHandshake(f *testing.F) {
	o := TCPOptions{Addrs: []string{"a", "b", "c"}, Self: 1, Digest: 0x5eed}
	hello := func(typ byte, digest uint64, h tcpHello) []byte {
		var b bytes.Buffer
		payload, _ := json.Marshal(h)
		writeFrame(&b, typ, digest, payload)
		return b.Bytes()
	}
	good := tcpHello{Peer: 0, Peers: 3, Partition: PartitionVersion, Wire: wireVersion}
	f.Add(hello(frameHello, o.Digest, good))
	f.Add(hello(frameSummary, o.Digest, good))
	f.Add(hello(frameHello, o.Digest+1, good))
	f.Add(hello(frameHello, o.Digest, tcpHello{Peer: 0, Peers: 2, Partition: PartitionVersion, Wire: wireVersion}))
	f.Add(hello(frameHello, o.Digest, tcpHello{Peer: 0, Peers: 3, Partition: PartitionVersion + 1, Wire: wireVersion}))
	f.Add(hello(frameHello, o.Digest, tcpHello{Peer: 0, Peers: 3, Partition: PartitionVersion}))
	f.Add(hello(frameHello, o.Digest, good)[:20])
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, frameHello})
	f.Fuzz(func(t *testing.T, in []byte) {
		a, b := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, _, _, err := readFrame(b, maxHello); err == nil { // this peer's hello
				b.Write(in)
			}
			b.Close()
		}()
		start := time.Now()
		_, err := newPeerConn(o.Self, len(o.Addrs), nil, 0).handshake(a, o, start.Add(time.Second), true)
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("handshake returned after %s, past its 1s deadline", took)
		}
		a.Close()
		<-done
		var h tcpHello
		typ, digest, payload, ferr := readFrame(bytes.NewReader(in), maxHello)
		valid := ferr == nil && typ == frameHello && digest == o.Digest && json.Unmarshal(payload, &h) == nil &&
			h.Peers == len(o.Addrs) && h.Partition == PartitionVersion && h.Wire == wireVersion
		if (err == nil) != valid {
			t.Fatalf("handshake err=%v on a hello that matches=%v: %+v", err, valid, h)
		}
	})
}
