package transport

import "net"

// NewMesh builds a fully connected in-process cluster of n peers and returns
// one Conn per peer. Each pair of peers is joined by one net.Pipe carrying
// the frames DialTCP's sockets carry, through the same Exchange, Probe,
// ServeProbes and Bye — only the sockets, the handshake and the I/O
// deadlines are elided. A 1-peer mesh is a loopback whose Exchange returns
// immediately. Closing any endpoint fails every peer waiting on it, so a test
// can simulate a peer crash by closing its Conn.
func NewMesh(n int) []Conn {
	return NewMeshMetrics(n, nil)
}

// NewMeshMetrics is NewMesh with per-peer metrics (metrics may be nil or
// shorter than n; missing entries record nothing).
func NewMeshMetrics(n int, metrics []*Metrics) []Conn {
	n = max(n, 1)
	pcs := make([]*peerConn, n)
	for i := range pcs {
		var m *Metrics
		if i < len(metrics) {
			m = metrics[i]
		}
		pcs[i] = newPeerConn(i, n, m, 0)
	}
	conns := make([]Conn, n)
	for i, pc := range pcs {
		for j := i + 1; j < n; j++ {
			a, b := net.Pipe()
			pc.install(j, a)
			pcs[j].install(i, b)
		}
		conns[i] = pc
	}
	return conns
}
