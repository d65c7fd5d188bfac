package main

import "time"

// bugCase is one catalogued defect of the workflow workload with the
// invariant `sandtable confirm` reports for it under the CLI's default
// session. DaosRaft#1 is catalogued under LeaderVotesForSelf, but the
// flag-style NoFlaggedViolation fires on the same state and sorts first, so
// that is what the CLI prints and what is pinned here.
type bugCase struct {
	ID        string
	System    string
	Invariant string
}

// sizes fixes how much work each workload does. Throughput depends on the
// size (the fingerprint set outgrows the caches), so a size is part of the
// benchmark's definition: it is echoed in every result file, and changing one
// starts a fresh baseline. BENCHMARK.json repeats the full sizes in each
// workload's "why".
type sizes struct {
	Name string `json:"name"`
	// The three explore_* workloads check the same input: bug-fixed craft,
	// default configuration and budget, stopped at MaxStates.
	System    string `json:"system"`
	MaxStates int    `json:"max_states"`
	// explore_spill's budget and checkpoint cadence, and how many states the
	// checkpoint cadence must leave between snapshots for deltas to appear.
	MemBudget        string `json:"mem_budget"`
	CheckpointStates int    `json:"checkpoint_states"`
	// workflow.
	ConformSystem string    `json:"conform_system"`
	Walks         int       `json:"walks"`
	WalkDepth     int       `json:"walk_depth"`
	Bugs          []bugCase `json:"bugs"`
	// The traced run stops at a depth, not a state count, so that every
	// deployment shape stops on the same level and reports the same counts.
	TracedMaxDepth int `json:"traced_max_depth"`
	TracedWalks    int `json:"traced_walks"`
	Samples        int `json:"samples"`
	// SetupReps is how many times a run sets up; setup_s is the median.
	SetupReps int `json:"setup_reps"`
	// ChildDeadline kills a child that hangs.
	ChildDeadline time.Duration `json:"child_deadline_ns"`
}

var fullSizes = sizes{
	Name:             "full",
	System:           "craft",
	MaxStates:        200000,
	MemBudget:        "256KiB",
	CheckpointStates: 2000,
	ConformSystem:    "gosyncobj",
	Walks:            6000,
	WalkDepth:        30,
	Bugs: []bugCase{
		{"GoSyncObj#2", "gosyncobj", "NoFlaggedViolation"},
		{"CRaft#4", "craft", "NoFlaggedViolation"},
		{"DaosRaft#1", "daosraft", "NoFlaggedViolation"},
		{"AsyncRaft#2", "asyncraft", "LogDurability"},
	},
	TracedMaxDepth: 9,
	TracedWalks:    2000,
	Samples:        2048,
	SetupReps:      5,
	ChildDeadline:  150 * time.Second,
}

// quickSizes proves the plumbing in seconds; its numbers mean nothing.
var quickSizes = sizes{
	Name:             "quick",
	System:           "craft",
	MaxStates:        20000,
	MemBudget:        "64KiB",
	CheckpointStates: 1000,
	ConformSystem:    "gosyncobj",
	Walks:            200,
	WalkDepth:        30,
	Bugs:             []bugCase{{"CRaft#4", "craft", "NoFlaggedViolation"}},
	TracedMaxDepth:   7,
	TracedWalks:      50,
	Samples:          64,
	SetupReps:        1,
	ChildDeadline:    60 * time.Second,
}
