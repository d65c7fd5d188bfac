// Package xraftkv is the Xraft-KV analogue: a replicated key-value store
// built on the xraft core (without PreVote, matching the paper's
// configuration). Put operations replicate through the Raft log; Get
// operations are served by the leader from its applied state machine.
//
// BUG(XraftKV#1): the buggy read path answers immediately from local state
// whenever the node believes it is the leader — a deposed leader (e.g.
// isolated by a partition) then serves stale data, violating
// linearizability. The fixed read path performs a ReadIndex-style check:
// the leader confirms it can still reach a same-term quorum before
// answering.
package xraftkv

import (
	"slices"
	"strings"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/systems/xraft"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// Store is one xraftkv replica: an xraft node plus a KV state machine.
type Store struct {
	*xraft.Node
	bugs bugdb.Set

	env      vos.Env
	data     map[string]string
	lastRead string
}

// New constructs a replica.
func New(bugs bugdb.Set) *Store {
	s := &Store{bugs: bugs}
	s.Node = xraft.New(xraft.Options{
		PreVote: false,
		Bugs:    bugs,
		Apply:   s.apply,
	})
	return s
}

// Start implements vos.Process.
func (s *Store) Start(env vos.Env) {
	s.env = env
	s.data = make(map[string]string)
	s.lastRead = ""
	s.Node.Start(env)
}

func (s *Store) apply(e xraft.Entry) {
	key, val, ok := splitKV(e.Value)
	if !ok {
		return
	}
	s.data[key] = val
	s.env.Logf("applied %s=%s", key, val)
}

// ClientRequest implements vos.Process: "put <key> <value>" replicates a
// write; "get <key>" serves a read.
func (s *Store) ClientRequest(payload string) {
	fields := strings.Fields(payload)
	switch {
	case len(fields) == 3 && fields[0] == "put":
		s.Node.ClientRequest(fields[1] + "=" + fields[2])
	case len(fields) == 2 && fields[0] == "get":
		s.get(fields[1])
	default:
		s.env.Logf("client request rejected: bad command %q", payload)
	}
}

func (s *Store) get(key string) {
	if s.CurrentRole() != xraft.Leader {
		s.env.Logf("get rejected: not leader")
		return
	}
	if !s.bugs.Has(bugdb.XKVStaleRead) {
		// ReadIndex-style leadership confirmation: the read only completes
		// when a quorum is still reachable (the engine schedules reads the
		// specification enabled, so a refused read indicates divergence).
		reachable := 1
		for p := 0; p < s.env.N(); p++ {
			if p != s.env.ID() && s.env.Connected(p) {
				reachable++
			}
		}
		if reachable < s.env.N()/2+1 {
			s.env.Logf("get rejected: leadership unconfirmed")
			return
		}
	}
	// BUG(XraftKV#1): with the flag on, no confirmation happens — any
	// self-styled leader answers from local state.
	val := s.data[key]
	s.lastRead = key + "=" + val
	s.env.Logf("get %s -> %q", key, val)
}

// nodeFields is the length of the embedded xraft node's Fields, and fields
// those followed by the store's own.
var (
	nodeFields = len((*xraft.Node)(nil).Fields())
	fields     = slices.Concat((*xraft.Node)(nil).Fields(), []string{"lastRead", "kv"})
)

// Fields implements vos.Process.
func (s *Store) Fields() []string { return fields }

// Observe implements vos.Process: the xraft variables plus the KV read
// result compared against the specification's ghost.
func (s *Store) Observe(dst []string) {
	s.Node.Observe(dst[:nodeFields])
	if s.lastRead != "" {
		dst[nodeFields] = s.lastRead
	}
	dst[nodeFields+1] = formatData(s.data)
}

func formatData(data map[string]string) string {
	if len(data) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var buf [64]byte
	b := append(buf[:0], '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, data[k]...)
	}
	return string(append(b, '}'))
}

func splitKV(v string) (key, val string, ok bool) {
	if i := strings.IndexByte(v, '='); i >= 0 {
		return v[:i], v[i+1:], true
	}
	return "", "", false
}
