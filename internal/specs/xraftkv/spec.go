// Package xraftkv is the formal specification of the xraftkv system: the
// key-value store built on the xraft core (without PreVote), adding Put/Get
// client operations and the linearizability property.
package xraftkv

import (
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// New builds the xraftkv specification machine.
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System:    "xraftkv",
		Profile:   raftbase.Xraft,
		Transport: spec.TCP,
		KV:        true,
		Bugs:      bugs,
		Config:    cfg,
		Budget:    b,
	})
}
