// Command benchmark is the repository's one benchmark: four workloads driven
// end to end through the built sandtable binary with tracing off, and for
// each a traced in-process run that splits the time by layer. BENCHMARK.json
// at the checkout root declares the metrics and their regression bounds;
// README.md in this directory says what each one means.
//
//	go run ./benchmark -seed 1                    every workload, both runs, a result file
//	go run ./benchmark -seed 1 -quick             the same plumbing in seconds
//	go run ./benchmark -compare a.json b.json     two result files, metric by metric
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is the benchmark driver's: one run of one workload, its result
// as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run this one workload and print the driver's JSON line (default: all four, both runs)")
	seed := flag.Int64("seed", 1, "workload seed: the conformance walks, the walk that is shrunk, the states sampled for layer replays")
	secs := flag.Float64("seconds", 0, "measuring window of a tracing-off run (default: run_seconds of BENCHMARK.json)")
	traced := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics with tracing off, 1 = per-layer metrics from the traced run")
	quick := flag.Bool("quick", false, "tiny sizes and one iteration: proves the plumbing, measures nothing")
	reps := flag.Int("reps", 3, "without -workload: tracing-off runs per workload, seeds seed..seed+reps-1")
	out := flag.String("out", "", "without -workload: result file (default benchmark/out/result-seed<N>.json)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.json change.json")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	contract, err := loadContract(root)
	if err != nil {
		return fail(err)
	}
	sz := fullSizes
	if *quick {
		sz, *secs, *reps = quickSizes, 0, 1
	} else if *secs <= 0 {
		*secs = float64(contract.RunSeconds)
	}
	h, err := newHarness(root, filepath.Join(root, ".bench_build"), filepath.Join(root, "benchmark", "out"),
		contract, sz, *seed, *secs)
	if err != nil {
		return fail(err)
	}
	defer h.close()

	if *workload == "" {
		failed, err := h.runAll(*reps, *out)
		if err != nil {
			return fail(err)
		}
		if failed {
			return 1
		}
		return 0
	}
	if !contract.workload(*workload) {
		return fail(fmt.Errorf("unknown workload %q: BENCHMARK.json does not list it", *workload))
	}
	if err := h.runForDriver(*workload, *traced == 1); err != nil {
		return fail(err)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// driverLine is the benchmark contract's result object.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// runForDriver is one run of one workload, reported on the last line of
// standard output; everything else goes to standard error.
func (h *harness) runForDriver(workload string, traced bool) error {
	run, specs := h.runE2E, h.contract.EndToEnd
	if traced {
		run, specs = h.runTraced, h.contract.PerLayer
	}
	o, err := run(workload)
	if err != nil {
		return err
	}
	values, err := project(specs, o.Metrics)
	if err != nil {
		return err
	}
	for _, s := range specs {
		h.logf("%-44s %14.4f %s", s.Name, values[s.Name].Value, s.Unit)
	}
	line, err := json.Marshal(driverLine{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: values})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
