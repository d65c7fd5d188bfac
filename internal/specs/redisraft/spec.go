// Package redisraft is the formal specification of the redisraft system:
// the craft core adopted downstream with the PreVote extension, TCP
// semantics, and the upstream CRaft defects #2/#4/#6/#9 fixed.
package redisraft

import (
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// New builds the redisraft specification machine.
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System:    "redisraft",
		Profile:   raftbase.CRaft,
		Transport: spec.TCP,
		Snapshots: true,
		PreVote:   true,
		Bugs:      bugs,
		Config:    cfg,
		Budget:    b,
	})
}
