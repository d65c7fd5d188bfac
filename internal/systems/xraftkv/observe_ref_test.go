package xraftkv

import "github.com/sandtable-go/sandtable/internal/vos"

// ObserveReference is the map rendering Observe replaced, kept as the
// reference its slot rendering is held to (see TestObserveMatchesReference).
// The embedded node's variables are xraft's, held to xraft's own reference.
func ObserveReference(p vos.Process) map[string]string {
	s := p.(*Store)
	node := make([]string, nodeFields)
	s.Node.Observe(node)
	m := make(map[string]string)
	for f, v := range node {
		m[fields[f]] = v
	}
	if s.lastRead != "" {
		m["lastRead"] = s.lastRead
	}
	m["kv"] = formatData(s.data)
	return m
}
