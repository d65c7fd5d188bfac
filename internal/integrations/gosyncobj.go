package integrations

import (
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	specgso "github.com/sandtable-go/sandtable/internal/specs/gosyncobj"
	sysgso "github.com/sandtable-go/sandtable/internal/systems/gosyncobj"
	"github.com/sandtable-go/sandtable/internal/vos"
)

func init() {
	register(&sandtable.System{
		Name:          "gosyncobj",
		DefaultConfig: spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}},
		DefaultBudget: defaultBudget(),
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return specgso.New(cfg, b, bugs)
		},
		NewCluster: func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
			return engine.NewCluster(engine.Config{
				Nodes:     cfg.Nodes,
				Semantics: spec.TCP,
				Seed:      seed,
				Timeouts:  raftTimeouts(),
				// Table 4: PySyncObj averaged ~1.8 s per replayed trace with
				// a sleepless driver — dominated by cluster initialisation.
				Cost: costModel(1600*time.Millisecond, 5*time.Millisecond),
				// Buffered stores: gosyncobj distinguishes write from fsync
				// (persistHard/persistLog call Env.Sync), so dirty crashes
				// can exercise its durability handling.
				Buffered: true,
			}, func(id int) vos.Process { return sysgso.New(bugs) })
		},
	})
}
