// Package asyncraft is the formal specification of the asyncraft system
// (the RaftOS analogue): an asyncio-style Raft over UDP semantics.
package asyncraft

import (
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// New builds the asyncraft specification machine.
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System:    "asyncraft",
		Profile:   raftbase.AsyncRaft,
		Transport: spec.UDP,
		Bugs:      bugs,
		Config:    cfg,
		Budget:    b,
	})
}
