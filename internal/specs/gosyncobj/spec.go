// Package gosyncobj is the formal specification of the gosyncobj system
// (the PySyncObj analogue): TCP semantics, aggressive next-index advance,
// and follower next-index hints. It instantiates the raftbase engine with
// the GoSyncObj profile.
package gosyncobj

import (
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// New builds the gosyncobj specification machine.
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System:    "gosyncobj",
		Profile:   raftbase.GoSyncObj,
		Transport: spec.TCP,
		Bugs:      bugs,
		Config:    cfg,
		Budget:    b,
	})
}
