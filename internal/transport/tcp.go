package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// The peer protocol: every pair of peers shares one link (net.Conn) carrying
// the length-prefixed frames of wire.go. DialTCP's links are TCP connections:
// peer i listens on Addrs[i] and dials every lower-numbered peer, so each
// link is established exactly once regardless of start order; dialing
// retries until Timeout so the processes of a cluster can launch in any
// order (the `make cluster` target starts all three concurrently).
// NewMesh's links are net.Pipe pairs installed without a handshake.
//
// Exchange writes to every peer from per-link goroutines while the caller's
// goroutine reads the links in order — writes never wait on reads, so two
// peers pushing large blocks at each other cannot deadlock on full kernel
// buffers (or on unbuffered pipes). The per-link protocol is strictly
// sequential (each peer sends exactly one block frame and one summary frame
// per barrier, in that order), so no demultiplexer is needed. Over TCP every
// barrier and probe round is deadline-bounded by TCPOptions.Timeout, so a
// peer that stops reading or writing mid-barrier fails the round with a
// transport error instead of hanging the cluster. A barrier whose read side
// fails releases its writers at once: a peer that stopped reading (it failed
// too, or closed) would otherwise hold them until the deadline, or forever on
// a pipe.

// TCPOptions configures DialTCP.
type TCPOptions struct {
	// Addrs lists every peer's listen address, indexed by peer id
	// (the -peers flag, split on commas).
	Addrs []string
	// Self is this process's peer id, an index into Addrs.
	Self int
	// Digest fingerprints the run configuration (model, options). Peers
	// exchange it during the handshake and refuse to form a cluster when
	// it differs — catching a mis-launched peer before any state flows.
	Digest uint64
	// Timeout bounds connection establishment (dial retries plus
	// handshakes) and, once the mesh is up, every barrier and probe round:
	// each Exchange/Probe arms a per-link I/O deadline of this duration, so
	// a hung (SIGSTOP'd or partitioned) peer fails the barrier with a
	// transport error instead of stalling the cluster forever. It must
	// therefore exceed the worst-case level imbalance across peers — the
	// fastest peer waits at the barrier while the slowest finishes its
	// level. Zero means 30 seconds.
	Timeout time.Duration
	// Metrics receives the peer-level transport instrumentation (may be
	// nil).
	Metrics *Metrics
}

// tcpHello is the JSON handshake payload exchanged on every new link.
type tcpHello struct {
	Peer      int `json:"peer"`
	Peers     int `json:"peers"`
	Partition int `json:"partition"`
	Wire      int `json:"wire"`
}

// peerConn implements Conn over a full mesh of links, TCP or in-process.
type peerConn struct {
	self, peers int
	metrics     *Metrics
	conns       []net.Conn // nil at self
	rd          []*bufio.Reader
	wr          []*bufio.Writer
	// frameTimeout bounds each barrier/probe round's blocking I/O (see
	// TCPOptions.Timeout); zero arms no deadline.
	frameTimeout time.Duration
	closeOnce    sync.Once
	closeErr     error
}

// newPeerConn is peer self of an n-peer mesh with no link installed yet.
func newPeerConn(self, n int, m *Metrics, frameTimeout time.Duration) *peerConn {
	return &peerConn{
		self: self, peers: n, metrics: m,
		conns:        make([]net.Conn, n),
		rd:           make([]*bufio.Reader, n),
		wr:           make([]*bufio.Writer, n),
		frameTimeout: frameTimeout,
	}
}

// DialTCP establishes this peer's links to the rest of the cluster and
// blocks until the full mesh is up (every handshake validated) or the
// timeout expires.
func DialTCP(o TCPOptions) (Conn, error) {
	n := len(o.Addrs)
	if n < 2 {
		return nil, fmt.Errorf("transport: cluster needs at least 2 peers, got %d", n)
	}
	if o.Self < 0 || o.Self >= n {
		return nil, fmt.Errorf("transport: peer id %d out of range [0,%d)", o.Self, n)
	}
	timeout := o.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)

	c := newPeerConn(o.Self, n, o.Metrics, timeout)

	ln, err := net.Listen("tcp", o.Addrs[o.Self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", o.Addrs[o.Self], err)
	}
	defer ln.Close()

	// Accept links from every higher-numbered peer concurrently with
	// dialing the lower-numbered ones. Accepted conns whose handshake is
	// still in flight are tracked in pending so a dial-side failure can
	// close them immediately: closing the listener alone would leave the
	// accept goroutine blocked in a handshake read until the full timeout,
	// and fail() blocks on that goroutine.
	expect := n - 1 - o.Self
	acceptErr := make(chan error, 1)
	done := make(chan struct{})
	var pendMu sync.Mutex
	pending := make(map[net.Conn]bool)
	failing := false
	track := func(nc net.Conn, on bool) bool {
		pendMu.Lock()
		defer pendMu.Unlock()
		if on && failing {
			return false
		}
		if on {
			pending[nc] = true
		} else {
			delete(pending, nc)
		}
		return true
	}
	go func() {
		defer close(done)
		for i := 0; i < expect; i++ {
			nc, err := ln.Accept()
			if err != nil {
				acceptErr <- fmt.Errorf("transport: accept: %w", err)
				return
			}
			if !track(nc, true) {
				nc.Close()
				acceptErr <- fmt.Errorf("transport: dial failed while accepting peers")
				return
			}
			peer, err := c.handshake(nc, o, deadline, false)
			track(nc, false)
			if err != nil {
				nc.Close()
				acceptErr <- err
				return
			}
			if peer <= o.Self || peer >= n || c.conns[peer] != nil {
				nc.Close()
				acceptErr <- fmt.Errorf("transport: unexpected hello from peer %d", peer)
				return
			}
			c.install(peer, nc)
		}
		acceptErr <- nil
	}()

	fail := func(err error) (Conn, error) {
		pendMu.Lock()
		failing = true
		for nc := range pending {
			nc.Close()
		}
		pendMu.Unlock()
		ln.Close()
		<-done
		c.Close()
		return nil, err
	}
	for peer := 0; peer < o.Self; peer++ {
		nc, err := dialRetry(o.Addrs[peer], deadline)
		if err != nil {
			return fail(fmt.Errorf("transport: dial peer %d (%s): %w", peer, o.Addrs[peer], err))
		}
		from, err := c.handshake(nc, o, deadline, true)
		if err != nil {
			nc.Close()
			return fail(err)
		}
		if from != peer {
			nc.Close()
			return fail(fmt.Errorf("transport: %s identified as peer %d, want %d", o.Addrs[peer], from, peer))
		}
		c.install(peer, nc)
	}
	if err := <-acceptErr; err != nil {
		<-done
		c.Close()
		return nil, err
	}
	<-done
	return c, nil
}

// dialRetry dials addr until it succeeds or the deadline passes, so peers
// may start in any order.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		left := time.Until(deadline)
		if left <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("timed out")
			}
			return nil, lastErr
		}
		nc, err := net.DialTimeout("tcp", addr, min(left, 2*time.Second))
		if err == nil {
			return nc, nil
		}
		lastErr = err
		time.Sleep(min(left, 100*time.Millisecond))
	}
}

// handshake exchanges hello frames on a fresh link (dialer speaks first)
// and validates digest, cluster size, partition version and wire version. It
// returns the remote peer id.
func (c *peerConn) handshake(nc net.Conn, o TCPOptions, deadline time.Time, dialer bool) (int, error) {
	nc.SetDeadline(deadline)
	defer nc.SetDeadline(time.Time{})
	self, _ := json.Marshal(tcpHello{Peer: o.Self, Peers: len(o.Addrs), Partition: PartitionVersion, Wire: wireVersion})
	send := func() error { return writeFrame(nc, frameHello, o.Digest, self) }
	var remote tcpHello
	recv := func() error {
		typ, tag, payload, err := readFrame(nc, maxHello)
		if err != nil {
			return fmt.Errorf("transport: handshake read: %w", err)
		}
		if typ != frameHello {
			return fmt.Errorf("transport: handshake got %s", frameName(typ))
		}
		if tag != o.Digest {
			return fmt.Errorf("transport: run digest mismatch (peer launched with different model or options)")
		}
		if err := json.Unmarshal(payload, &remote); err != nil {
			return fmt.Errorf("transport: handshake payload: %w", err)
		}
		if remote.Peers != len(o.Addrs) {
			return fmt.Errorf("transport: peer expects cluster of %d, this run has %d", remote.Peers, len(o.Addrs))
		}
		if remote.Partition != PartitionVersion {
			return fmt.Errorf("transport: partition version mismatch (%d vs %d)", remote.Partition, PartitionVersion)
		}
		if remote.Wire != wireVersion {
			return fmt.Errorf("transport: wire version mismatch (%d vs %d)", remote.Wire, wireVersion)
		}
		return nil
	}
	steps := []func() error{send, recv}
	if !dialer {
		steps = []func() error{recv, send}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return 0, err
		}
	}
	return remote.Peer, nil
}

// install registers an established link.
func (c *peerConn) install(peer int, nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.conns[peer] = nc
	c.rd[peer] = bufio.NewReaderSize(nc, 1<<16)
	c.wr[peer] = bufio.NewWriterSize(nc, 1<<16)
}

// armDeadline bounds one barrier or probe round's blocking I/O: every listed
// link gets an absolute read+write deadline frameTimeout from now, cleared
// again by the returned func. The deadline interrupts in-flight Read and
// Write calls, so it also releases Exchange's writer goroutines — and the
// wg.Wait() on them — when a peer stops draining its receive buffer.
func (c *peerConn) armDeadline(peers ...int) func() {
	if c.frameTimeout <= 0 {
		return func() {}
	}
	dl := time.Now().Add(c.frameTimeout)
	for _, q := range peers {
		if q != c.self && c.conns[q] != nil {
			c.conns[q].SetDeadline(dl)
		}
	}
	return func() {
		for _, q := range peers {
			if q != c.self && c.conns[q] != nil {
				c.conns[q].SetDeadline(time.Time{})
			}
		}
	}
}

// allPeers lists every peer id, self included (armDeadline skips self).
func (c *peerConn) allPeers() []int {
	out := make([]int, c.peers)
	for i := range out {
		out[i] = i
	}
	return out
}

// Self implements Conn.
func (c *peerConn) Self() int { return c.self }

// Peers implements Conn.
func (c *peerConn) Peers() int { return c.peers }

// Exchange implements Conn.
func (c *peerConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	n := c.peers
	if blocks != nil && len(blocks) != n {
		return nil, nil, fmt.Errorf("transport: %d blocks for %d peers", len(blocks), n)
	}
	start := time.Now()
	defer c.armDeadline(c.allPeers()...)()
	var wg sync.WaitGroup
	werr := make(chan error, n)
	for q := 0; q < n; q++ {
		if q == c.self {
			continue
		}
		var blk []byte
		if blocks != nil {
			blk = blocks[q]
		}
		wg.Add(1)
		go func(q int, blk []byte) {
			defer wg.Done()
			w := c.wr[q]
			if err := writeFrame(w, frameBlock, tag, blk); err != nil {
				werr <- fmt.Errorf("transport: send to peer %d: %w", q, err)
				return
			}
			if err := writeFrame(w, frameSummary, tag, summary); err != nil {
				werr <- fmt.Errorf("transport: send to peer %d: %w", q, err)
				return
			}
			if err := w.Flush(); err != nil {
				werr <- fmt.Errorf("transport: send to peer %d: %w", q, err)
				return
			}
			c.metrics.sent(len(blk))
		}(q, blk)
	}

	in := make([][]byte, n)
	sums := make([][]byte, n)
	sums[c.self] = summary
	var rerr error
	for q := 0; q < n && rerr == nil; q++ {
		if q == c.self {
			continue
		}
		for _, want := range []byte{frameBlock, frameSummary} {
			typ, gotTag, payload, err := readFrame(c.rd[q], maxFrame)
			if err != nil {
				rerr = fmt.Errorf("transport: recv from peer %d: %w", q, err)
				break
			}
			if typ != want || gotTag != tag {
				rerr = fmt.Errorf("transport: barrier desync with peer %d (got %s tag %d, want %s tag %d)",
					q, frameName(typ), gotTag, frameName(want), tag)
				break
			}
			if want == frameBlock {
				in[q] = payload
				c.metrics.recv(len(payload))
			} else {
				sums[q] = payload
			}
		}
	}
	if rerr != nil {
		// The barrier failed: release the writers now rather than wait on a
		// peer that may never read again (see the file comment). The link is
		// unusable after a failed barrier either way.
		now := time.Now()
		for _, nc := range c.conns {
			if nc != nil {
				nc.SetWriteDeadline(now)
			}
		}
	}
	wg.Wait()
	close(werr)
	if rerr != nil {
		return nil, nil, rerr
	}
	if err := <-werr; err != nil {
		return nil, nil, err
	}
	c.metrics.barrier(time.Since(start).Nanoseconds())
	return in, sums, nil
}

// Probe implements Conn (coordinator side).
func (c *peerConn) Probe(peer int, fp uint64) (uint64, int32, bool, error) {
	if peer == c.self || peer < 0 || peer >= c.peers {
		return 0, 0, false, fmt.Errorf("transport: probe peer %d invalid", peer)
	}
	start := time.Now()
	defer c.armDeadline(peer)()
	w := c.wr[peer]
	if err := writeFrame(w, frameProbeReq, fp, nil); err != nil {
		return 0, 0, false, err
	}
	if err := w.Flush(); err != nil {
		return 0, 0, false, err
	}
	typ, tag, payload, err := readFrame(c.rd[peer], maxFrame)
	if err != nil {
		return 0, 0, false, fmt.Errorf("transport: probe peer %d: %w", peer, err)
	}
	if typ != frameProbeResp || tag != fp || len(payload) != 13 {
		return 0, 0, false, fmt.Errorf("transport: probe desync with peer %d (got %s)", peer, frameName(typ))
	}
	parent := binary.LittleEndian.Uint64(payload[0:8])
	depth := int32(binary.LittleEndian.Uint32(payload[8:12]))
	found := payload[12] != 0
	c.metrics.probe(time.Since(start).Microseconds())
	return parent, depth, found, nil
}

// ServeProbes implements Conn (non-coordinator side): probes only ever come
// from peer 0.
func (c *peerConn) ServeProbes(lookup func(fp uint64) (uint64, int32, bool)) error {
	r, w := c.rd[0], c.wr[0]
	for {
		typ, tag, _, err := readFrame(r, maxFrame)
		if err != nil {
			return fmt.Errorf("transport: serve probes: %w", err)
		}
		switch typ {
		case frameBye:
			return nil
		case frameProbeReq:
			parent, depth, found := lookup(tag)
			var payload [13]byte
			binary.LittleEndian.PutUint64(payload[0:8], parent)
			binary.LittleEndian.PutUint32(payload[8:12], uint32(depth))
			if found {
				payload[12] = 1
			}
			// The wait for the next request stays unbounded (the gap between
			// probes is the coordinator's trace reconstruction, of unknown
			// length), but each response write is deadline-bounded.
			clear := c.armDeadline(0)
			err := writeFrame(w, frameProbeResp, tag, payload[:])
			if err == nil {
				err = w.Flush()
			}
			clear()
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("transport: unexpected %s while serving probes", frameName(typ))
		}
	}
}

// Bye implements Conn (coordinator side).
func (c *peerConn) Bye() error {
	defer c.armDeadline(c.allPeers()...)()
	for q := 0; q < c.peers; q++ {
		if q == c.self {
			continue
		}
		if err := writeFrame(c.wr[q], frameBye, 0, nil); err != nil {
			return err
		}
		if err := c.wr[q].Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Conn.
func (c *peerConn) Close() error {
	c.closeOnce.Do(func() {
		for _, nc := range c.conns {
			if nc != nil {
				if err := nc.Close(); err != nil && c.closeErr == nil {
					c.closeErr = err
				}
			}
		}
	})
	return c.closeErr
}
