package zabkeeper

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
		"state":     n.state.String(),
		"round":     strconv.Itoa(n.round),
		"vote":      n.vote.String(),
		"epoch":     strconv.Itoa(n.epoch),
		"history":   trace.History(n.history),
		"committed": strconv.Itoa(n.commit),
		"leader":    strconv.Itoa(n.leaderID),
	}
	if n.state == Leading {
		m["synced"] = trace.IDSet(trace.BoolIDs(n.synced))
		m["acked"] = trace.PeerRow(n.acked, n.env.ID())
	} else {
		m["synced"] = "-"
		m["acked"] = "-"
	}
	return m
}
