package integrations

import (
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	speczab "github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
	syszab "github.com/sandtable-go/sandtable/internal/systems/zabkeeper"
	"github.com/sandtable-go/sandtable/internal/vos"
)

func init() {
	register(&sandtable.System{
		Name:          "zabkeeper",
		DefaultConfig: spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
		DefaultBudget: spec.Budget{
			Name:        "hunt",
			MaxTimeouts: 6, MaxCrashes: 1, MaxRestarts: 1,
			MaxRequests: 3, MaxPartitions: 1, MaxBuffer: 4,
		},
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return speczab.New(cfg, b, bugs)
		},
		NewCluster: func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
			return engine.NewCluster(engine.Config{
				Nodes:     cfg.Nodes,
				Semantics: spec.TCP,
				Seed:      seed,
				Timeouts:  map[string]time.Duration{"election": 200 * time.Millisecond},
				// Table 4: ZooKeeper averaged ~28 s per replayed trace (JVM
				// startup plus synchronisation sleeps).
				Cost: costModel(14600*time.Millisecond, 300*time.Millisecond),
			}, func(id int) vos.Process { return syszab.New(bugs) })
		},
	})
}
