package integrations

import (
	"fmt"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	specasync "github.com/sandtable-go/sandtable/internal/specs/asyncraft"
	speccraft "github.com/sandtable-go/sandtable/internal/specs/craft"
	specdaos "github.com/sandtable-go/sandtable/internal/specs/daosraft"
	specredis "github.com/sandtable-go/sandtable/internal/specs/redisraft"
	specxraft "github.com/sandtable-go/sandtable/internal/specs/xraft"
	specxkv "github.com/sandtable-go/sandtable/internal/specs/xraftkv"
	sysasync "github.com/sandtable-go/sandtable/internal/systems/asyncraft"
	syscraft "github.com/sandtable-go/sandtable/internal/systems/craft"
	sysxraft "github.com/sandtable-go/sandtable/internal/systems/xraft"
	sysxkv "github.com/sandtable-go/sandtable/internal/systems/xraftkv"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// craftLeakCheck is the conformance resource check that catches CRaft#6:
// after every event all receive buffers must have been released.
func craftLeakCheck(c *engine.Cluster) error {
	for i := 0; i < c.N(); i++ {
		p := c.Process(i)
		if p == nil {
			continue
		}
		if n, ok := p.(*syscraft.Node); ok && n.Allocs() > 0 {
			return fmt.Errorf("resource check: node %d leaks %d receive buffer(s)", i, n.Allocs())
		}
	}
	return nil
}

func craftCluster(semantics spec.Semantics, preVote bool, init, perEvent time.Duration) func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
	return func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
		return engine.NewCluster(engine.Config{
			Nodes:     cfg.Nodes,
			Semantics: semantics,
			Seed:      seed,
			Timeouts:  raftTimeouts(),
			Cost:      costModel(init, perEvent),
		}, func(id int) vos.Process {
			return syscraft.New(syscraft.Options{PreVote: preVote, Bugs: bugs})
		})
	}
}

func init() {
	// craft: the upstream C library — UDP semantics, log compaction.
	// Table 4: WRaft averaged ~2.5 s per replayed trace (sleepless driver).
	register(&sandtable.System{
		Name:          "craft",
		DefaultConfig: spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}},
		DefaultBudget: defaultBudget(),
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return speccraft.New(cfg, b, bugs)
		},
		NewCluster:    craftCluster(spec.UDP, false, 2250*time.Millisecond, 5*time.Millisecond),
		ResourceCheck: craftLeakCheck,
	})

	// redisraft: the craft fork with PreVote and upstream bugs #2/#4/#6/#9
	// fixed, deployed over TCP. Table 4: ~1.8 s/trace.
	register(&sandtable.System{
		Name:          "redisraft",
		DefaultConfig: spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}},
		DefaultBudget: defaultBudget(),
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return specredis.New(cfg, b, bugs)
		},
		NewCluster:    craftCluster(spec.TCP, true, 1580*time.Millisecond, 5*time.Millisecond),
		ResourceCheck: craftLeakCheck,
	})

	// daosraft: the craft fork in the DAOS storage stack, PreVote over TCP.
	// Table 4: ~2.1 s/trace.
	register(&sandtable.System{
		Name:          "daosraft",
		DefaultConfig: spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
		DefaultBudget: defaultBudget(),
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return specdaos.New(cfg, b, bugs)
		},
		NewCluster:    craftCluster(spec.TCP, true, 1875*time.Millisecond, 5*time.Millisecond),
		ResourceCheck: craftLeakCheck,
	})

	// asyncraft: the asyncio object replicator over UDP. Table 4: RaftOS
	// averaged ~4.8 s/trace because the driver must sleep around async
	// actions.
	register(&sandtable.System{
		Name:          "asyncraft",
		DefaultConfig: spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
		DefaultBudget: defaultBudget(),
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return specasync.New(cfg, b, bugs)
		},
		NewCluster: func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
			return engine.NewCluster(engine.Config{
				Nodes:     cfg.Nodes,
				Semantics: spec.UDP,
				Seed:      seed,
				Timeouts:  raftTimeouts(),
				Cost:      costModel(1700*time.Millisecond, 100*time.Millisecond),
			}, func(id int) vos.Process { return sysasync.New(bugs) })
		},
	})

	// xraft: the teaching Raft on the JVM — startup and synchronisation
	// sleeps dominate. Table 4: ~24 s/trace.
	register(&sandtable.System{
		Name:          "xraft",
		DefaultConfig: spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
		DefaultBudget: defaultBudget(),
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return specxraft.New(cfg, b, bugs)
		},
		NewCluster: func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
			return engine.NewCluster(engine.Config{
				Nodes:     cfg.Nodes,
				Semantics: spec.TCP,
				Seed:      seed,
				Timeouts:  raftTimeouts(),
				Cost:      costModel(16700*time.Millisecond, 200*time.Millisecond),
			}, func(id int) vos.Process {
				return sysxraft.New(sysxraft.Options{PreVote: true, Bugs: bugs})
			})
		},
	})

	// xraftkv: the KV store on xraft (no PreVote). Table 4: ~24 s/trace.
	register(&sandtable.System{
		Name:          "xraftkv",
		DefaultConfig: spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
		DefaultBudget: defaultBudget(),
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return specxkv.New(cfg, b, bugs)
		},
		NewCluster: func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
			return engine.NewCluster(engine.Config{
				Nodes:     cfg.Nodes,
				Semantics: spec.TCP,
				Seed:      seed,
				Timeouts:  raftTimeouts(),
				Cost:      costModel(17000*time.Millisecond, 200*time.Millisecond),
			}, func(id int) vos.Process { return sysxkv.New(bugs) })
		},
	})
}
