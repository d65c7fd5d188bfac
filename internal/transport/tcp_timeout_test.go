package transport

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeHandshake performs one valid hello exchange on nc, posing as peer id
// in a cluster of peers processes (dialer speaks first when dialer is true).
// It drives the package's real wire framing, so the conn afterwards looks to
// the remote exactly like an established mesh link.
func fakeHandshake(t *testing.T, nc net.Conn, id, peers int, digest uint64, dialer bool) {
	t.Helper()
	hello, _ := json.Marshal(tcpHello{Peer: id, Peers: peers, Partition: PartitionVersion, Wire: wireVersion})
	send := func() {
		if err := writeFrame(nc, frameHello, digest, hello); err != nil {
			t.Fatalf("fake peer %d: send hello: %v", id, err)
		}
	}
	recv := func() {
		if typ, _, _, err := readFrame(nc, maxHello); err != nil || typ != frameHello {
			t.Fatalf("fake peer %d: recv hello: typ=%d err=%v", id, typ, err)
		}
	}
	if dialer {
		send()
		recv()
	} else {
		recv()
		send()
	}
}

// TestExchangeHungPeerTimesOut is the hung-cluster regression test: a peer
// that completes the mesh handshake and then goes silent (the SIGSTOP'd or
// partitioned peer of OPERATIONS.md) must fail the other peer's barrier
// within the configured peer timeout, not stall it forever. The small-block
// subtest stalls the read side; the big-block subtest additionally fills the
// send buffer so Exchange's writer goroutine — and the wg.Wait() on it —
// blocks in Write, the path a read deadline alone would not release.
func TestExchangeHungPeerTimesOut(t *testing.T) {
	const timeout = time.Second
	for _, tc := range []struct {
		name  string
		block int
	}{
		{"read-stall", 64},
		// Far beyond the 64 KiB bufio writer plus any sane kernel buffer,
		// so the write to the non-reading peer must block.
		{"write-stall", 32 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := freeAddrs(t, 2)
			var (
				conn Conn
				derr error
				wg   sync.WaitGroup
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, derr = DialTCP(TCPOptions{Addrs: addrs, Self: 0, Digest: 0xD1CE, Timeout: timeout})
			}()
			// The fake peer 1 dials peer 0 (its lower-numbered peer), shakes
			// hands for real, then never touches the conn again.
			var nc net.Conn
			for i := 0; ; i++ {
				var err error
				if nc, err = net.Dial("tcp", addrs[0]); err == nil {
					break
				}
				if i > 100 {
					t.Fatalf("dial fake link: %v", err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			defer nc.Close()
			fakeHandshake(t, nc, 1, 2, 0xD1CE, true)
			wg.Wait()
			if derr != nil {
				t.Fatalf("DialTCP: %v", derr)
			}
			defer conn.Close()

			start := time.Now()
			_, _, err := conn.Exchange(0, [][]byte{nil, make([]byte, tc.block)}, []byte("sum"))
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("Exchange against a hung peer succeeded")
			}
			// One frame-timeout for the barrier, generous headroom for CI.
			if elapsed > 4*timeout {
				t.Fatalf("Exchange took %v to fail; want within ~%v", elapsed, timeout)
			}
		})
	}
}

// TestFailedBarrierReleasesWriters: when a barrier fails on its read side,
// Exchange must not wait out the peer timeout on writer goroutines stuck on a
// peer that stopped reading. Peers 1 and 2 push blocks far larger than any
// socket buffer at each other while both wait to read peer 0 first; peer 0
// closes, both reads fail, and each must return without the other ever
// draining its block.
func TestFailedBarrierReleasesWriters(t *testing.T) {
	const n = 3
	addrs := freeAddrs(t, n)
	conns := make([]Conn, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			conns[p], errs[p] = DialTCP(TCPOptions{Addrs: addrs, Self: p, Digest: 0xD1CE, Timeout: 20 * time.Second})
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("dial peer %d: %v", p, err)
		}
		defer conns[p].Close()
	}

	big := make([]byte, 64<<20) // read-only, shared by both senders
	done := make(chan error, 2)
	for _, p := range []int{1, 2} {
		go func(p int) {
			blocks := make([][]byte, n)
			blocks[3-p] = big
			_, _, err := conns[p].Exchange(0, blocks, []byte("s"))
			done <- err
		}(p)
	}
	// Let both writers fill the socket buffers and block before peer 0 goes.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	conns[0].Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Exchange succeeded with a closed peer")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Exchange still blocked %v after peer 0 closed; the peer timeout is 20s", time.Since(start))
		}
	}
}

// TestDialFailFast is the fail-fast regression test for DialTCP's failure
// path: when the dial side of mesh establishment fails (here: a peer
// launched with a different run digest), the failure must propagate in
// milliseconds even while the accept side holds an accepted conn whose
// handshake never completes — closing the listener alone would leave that
// handshake read blocked for the full peer timeout.
func TestDialFailFast(t *testing.T) {
	const timeout = 10 * time.Second
	addrs := freeAddrs(t, 3)

	// Fake peer 0: accepts peer 1's link and answers its hello with the
	// wrong digest, failing peer 1's dial-side handshake.
	ln0, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ln0.Close()
	badHello := make(chan struct{})
	go func() {
		nc, err := ln0.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if typ, _, _, err := readFrame(nc, maxHello); err != nil || typ != frameHello {
			return
		}
		<-badHello
		hello, _ := json.Marshal(tcpHello{Peer: 0, Peers: 3, Partition: PartitionVersion, Wire: wireVersion})
		writeFrame(nc, frameHello, 0xBAD, hello)
	}()

	var (
		conn Conn
		derr error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		conn, derr = DialTCP(TCPOptions{Addrs: addrs, Self: 1, Digest: 0xD1CE, Timeout: timeout})
	}()

	// Fake peer 2 connects to peer 1's listener and goes silent, parking
	// peer 1's accept goroutine inside an unfinished handshake read.
	var silent net.Conn
	for i := 0; ; i++ {
		var err error
		if silent, err = net.Dial("tcp", addrs[1]); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("dial silent link: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer silent.Close()
	// Give peer 1 time to Accept the silent conn and enter the handshake
	// read before the dial failure lands.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	close(badHello)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DialTCP still blocked 5s after the dial-side failure")
	}
	elapsed := time.Since(start)
	if conn != nil {
		conn.Close()
	}
	if derr == nil {
		t.Fatal("DialTCP succeeded across a digest mismatch")
	}
	if !strings.Contains(derr.Error(), "digest mismatch") {
		t.Fatalf("DialTCP error = %v, want the digest mismatch", derr)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("DialTCP took %v to fail; the peer timeout is %v and failure should not wait on it", elapsed, timeout)
	}
}

// TestDialRejectsWireVersionMismatch: a peer built with another block format
// is refused at the handshake, not at the first data barrier where its blocks
// would fail to decode — one whose hello carries no wire version, as every
// binary from before raw blocks does, and one on the previous version, whose
// blocks carry Raft-family states field by field.
func TestDialRejectsWireVersionMismatch(t *testing.T) {
	for name, hello := range map[string]map[string]int{
		"unversioned": {"peer": 1, "peers": 2, "partition": PartitionVersion},
		"previous":    {"peer": 1, "peers": 2, "partition": PartitionVersion, "wire": wireVersion - 1},
	} {
		t.Run(name, func(t *testing.T) {
			addrs := freeAddrs(t, 2)
			var (
				conn Conn
				derr error
				done = make(chan struct{})
			)
			go func() {
				defer close(done)
				conn, derr = DialTCP(TCPOptions{Addrs: addrs, Self: 0, Digest: 0xD1CE, Timeout: 10 * time.Second})
			}()
			var nc net.Conn
			for i := 0; ; i++ {
				var err error
				if nc, err = net.Dial("tcp", addrs[0]); err == nil {
					break
				}
				if i > 100 {
					t.Fatalf("dial: %v", err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			defer nc.Close()
			raw, _ := json.Marshal(hello)
			if err := writeFrame(nc, frameHello, 0xD1CE, raw); err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("DialTCP still blocked 5s after a mismatched hello")
			}
			if conn != nil {
				conn.Close()
			}
			if derr == nil || !strings.Contains(derr.Error(), "wire version mismatch") {
				t.Fatalf("DialTCP error = %v, want a wire version mismatch", derr)
			}
		})
	}
}
