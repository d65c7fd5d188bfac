package trace

import (
	"strconv"
	"sync"
)

// keyTables caches the keys of rendered variable maps (Step.Vars and the
// engine's observations share one vocabulary) so that a renderer that runs
// once per step looks its keys up instead of formatting them.
var keyTables = struct {
	mu   sync.Mutex
	node map[nodeKeysID][]string
	net  map[int][][]string
}{node: make(map[nodeKeysID][]string), net: make(map[int][][]string)}

type nodeKeysID struct {
	name string
	n    int
}

// NodeKeys returns the keys name[0] … name[n-1] under which per-node
// variable name appears in a rendered variable map. A table is built on the
// first call for its (name, n) and shared afterwards: treat it as read-only.
// The lookup takes a lock, so per-step renderers fetch their tables once (per
// arity, or per cluster) rather than once per variable.
func NodeKeys(name string, n int) []string {
	keyTables.mu.Lock()
	defer keyTables.mu.Unlock()
	id := nodeKeysID{name, n}
	keys, ok := keyTables.node[id]
	if !ok {
		keys = make([]string, n)
		for i := range keys {
			keys[i] = name + "[" + strconv.Itoa(i) + "]"
		}
		keyTables.node[id] = keys
	}
	return keys
}

// NetKeys returns the network-variable keys of an n-node map:
// NetKeys(n)[src][dst] is "net[src->dst]", the number of messages queued from
// src to dst (the diagonal is empty). Cached and shared like NodeKeys.
func NetKeys(n int) [][]string {
	keyTables.mu.Lock()
	defer keyTables.mu.Unlock()
	keys, ok := keyTables.net[n]
	if !ok {
		keys = make([][]string, n)
		for src := range keys {
			keys[src] = make([]string, n)
			for dst := range keys[src] {
				if src != dst {
					keys[src][dst] = "net[" + strconv.Itoa(src) + "->" + strconv.Itoa(dst) + "]"
				}
			}
		}
		keyTables.net[n] = keys
	}
	return keys
}
