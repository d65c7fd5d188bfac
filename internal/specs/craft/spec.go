// Package craft is the formal specification of the craft system (the WRaft
// analogue): UDP semantics with message loss/duplication/reordering, log
// compaction with snapshot transfer, and retry-on-reject replication.
package craft

import (
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// New builds the craft specification machine.
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System:    "craft",
		Profile:   raftbase.CRaft,
		Transport: spec.UDP,
		Snapshots: true,
		Bugs:      bugs,
		Config:    cfg,
		Budget:    b,
	})
}
