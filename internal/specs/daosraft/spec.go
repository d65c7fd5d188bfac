// Package daosraft is the formal specification of the daosraft system: the
// craft core adopted by a storage stack, with the PreVote extension (and
// its DaosRaft#1 defect) over TCP semantics.
package daosraft

import (
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// New builds the daosraft specification machine.
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System:    "daosraft",
		Profile:   raftbase.CRaft,
		Transport: spec.TCP,
		Snapshots: true,
		PreVote:   true,
		Bugs:      bugs,
		Config:    cfg,
		Budget:    b,
	})
}
