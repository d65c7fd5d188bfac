package gosyncobj

import (
	"strconv"

	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// ObserveReference is the map rendering Observe replaced, kept as the
// reference its slot rendering is held to (see TestObserveMatchesReference).
func ObserveReference(p vos.Process) map[string]string {
	n := p.(*Node)
	m := map[string]string{
		"role":     n.role.String(),
		"term":     strconv.Itoa(n.term),
		"votedFor": strconv.Itoa(n.votedFor),
		"log":      trace.Log(n.log),
		"commit":   strconv.Itoa(n.commit),
	}
	if n.role == Leader {
		m["next"] = trace.PeerRow(n.next, n.env.ID())
		m["match"] = trace.PeerRow(n.match, n.env.ID())
	} else {
		m["next"] = "-"
		m["match"] = "-"
	}
	if n.role == Candidate {
		m["votes"] = trace.IDSet(trace.MapIDs(n.votes))
	} else {
		m["votes"] = "-"
	}
	return m
}
