// Package xraft is the formal specification of the xraft system: a
// conventional Raft with the PreVote extension over TCP semantics.
package xraft

import (
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// New builds the xraft specification machine.
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System:    "xraft",
		Profile:   raftbase.Xraft,
		Transport: spec.TCP,
		PreVote:   true,
		Bugs:      bugs,
		Config:    cfg,
		Budget:    b,
	})
}
