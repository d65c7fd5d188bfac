package main

import (
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode"

	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/serve"
)

// The parity test binds the two front ends to the run layer's settings
// mechanically: every sandtable.Settings field is reachable from a CLI flag
// and from a JobSpec JSON key of the same name (MaxTimeouts ↔ -max-timeouts
// ↔ max_timeouts), or sits in the exception table below with the reason; every flag and key is either such a name or a listed front-end
// one. A knob added to one front end only fails here, and OPERATIONS.md's
// flag ↔ JobSpec table is checked against the same tables.

// subcommands are the flag sets that configure a session.
var subcommands = map[string]func() *cmdline{
	"check": checkFlags, "simulate": simulateFlags, "rank": rankFlags,
	"conform": conformFlags, "confirm": confirmFlags, "replay": replayFlags,
}

// pinnedFlags and pinnedKeys are the whole configuration surface of the two
// front ends. Changing either list is an API change, not a refactor.
var pinnedFlags = map[string]string{
	"check":    "bug checkpoint checkpoint-every checkpoint-states deadline fixed max-buffer max-crashes max-dirty-crashes max-requests max-states max-timeouts mem-budget metrics-out nodes o peer-id peer-timeout peers pprof progress report resume shrink spill-dir system trace trace-out workers",
	"simulate": "bug deadline depth distinct fixed max-buffer max-crashes max-dirty-crashes max-requests max-timeouts metrics-out nodes pprof progress report seed shrink system trace-out walks",
	"rank":     "bug deadline fixed max-buffer max-crashes max-dirty-crashes max-requests max-timeouts nodes system walks",
	"conform":  "bug deadline depth fixed max-buffer max-crashes max-dirty-crashes max-requests max-timeouts metrics-out nodes pprof progress report seed shrink system trace-out walks workers",
	"confirm":  "bug deadline fixed max-auto-restarts max-buffer max-crashes max-dirty-crashes max-requests max-timeouts metrics-out nodes panic-crash-mode pprof progress report shrink system tolerate-panics trace-out",
	"replay":   "bug deadline fixed max-auto-restarts max-buffer max-crashes max-dirty-crashes max-requests max-timeouts metrics-out nodes panic-crash-mode pprof progress report system tolerate-panics trace trace-out",
}

const pinnedKeys = "bug checkpoint_every checkpoint_states deadline depth distinct fixed max_buffer max_crashes max_dirty_crashes max_requests max_states max_timeouts mem_budget nodes op progress_every resume_from seed shrink system walks workers"

// noKey: settings fields the service deliberately does not expose.
var noKey = map[string]string{
	"SpillDir":        "a job spills next to its checkpoint or into the system temp dir",
	"Checkpoint":      "the directory is fixed inside the job's artifact store; checkpoint_every, checkpoint_states or resume_from turn it on",
	"Resume":          "set by resume_from, which also copies the earlier job's checkpoint",
	"Peers":           "a cluster is formed by operator-launched processes, not by a job",
	"PeerID":          "see Peers",
	"PeerTimeout":     "see Peers",
	"ToleratePanics":  "replay degradation policy, CLI only",
	"MaxAutoRestarts": "see ToleratePanics",
	"PanicCrashMode":  "see ToleratePanics",
}

// frontEndFlags and frontEndKeys never reach the run layer: they say which
// system and op to run and where the outcome goes.
var frontEndFlags = map[string]string{
	"system":      "resolved to a *System by the front end (JobSpec: system)",
	"progress":    "stderr progress cadence (service: progress_every drives the SSE stream)",
	"metrics-out": "artifact path (service: metrics.json)",
	"trace-out":   "artifact path (service: trace.jsonl)",
	"report":      "artifact path (service: report.md)",
	"o":           "artifact path (service: trace.json)",
	"trace":       "check: print the counterexample; replay: the trace to replay",
	"pprof":       "debug server of this process (service: sandtable serve -pprof)",
}

var frontEndKeys = map[string]string{
	"op":             "selects the run-layer entry point (CLI: the subcommand)",
	"system":         "resolved to a *System by the front end (CLI: -system)",
	"resume_from":    "copies an earlier job's checkpoint, then Settings.Checkpoint + Resume",
	"progress_every": "SSE progress cadence (CLI: -progress)",
}

// separated lowers a CamelCase field name, joining its words with sep;
// an acronym counts as one word (PeerID → peer-id).
func separated(name string, sep byte) string {
	r := []rune(name)
	var b strings.Builder
	for i, c := range r {
		if i > 0 && unicode.IsUpper(c) && (unicode.IsLower(r[i-1]) || i+1 < len(r) && unicode.IsLower(r[i+1])) {
			b.WriteByte(sep)
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}

func flagOf(field string) string { return separated(field, '-') }

func keyOf(field string) string { return strings.ReplaceAll(flagOf(field), "-", "_") }

func TestFrontEndParity(t *testing.T) {
	// The two surfaces, pinned.
	flags := map[string]bool{}
	for name, mk := range subcommands {
		var have []string
		mk().fs.VisitAll(func(f *flag.Flag) { have = append(have, f.Name); flags[f.Name] = true })
		if got := strings.Join(have, " "); got != pinnedFlags[name] {
			t.Errorf("%s flags changed:\n got %s\nwant %s", name, got, pinnedFlags[name])
		}
	}
	keys := map[string]bool{}
	js := reflect.TypeOf(serve.JobSpec{})
	for i := 0; i < js.NumField(); i++ {
		key, _, _ := strings.Cut(js.Field(i).Tag.Get("json"), ",")
		keys[key] = true
	}
	var have []string
	for k := range keys {
		have = append(have, k)
	}
	sort.Strings(have)
	if got := strings.Join(have, " "); got != pinnedKeys {
		t.Errorf("JobSpec keys changed:\n got %s\nwant %s", got, pinnedKeys)
	}

	// Every settings field is reachable from both, or excused.
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	fieldFlags, fieldKeys := map[string]bool{}, map[string]bool{}
	set := reflect.TypeOf(sandtable.Settings{})
	for i := 0; i < set.NumField(); i++ {
		field := set.Field(i).Name
		f, k := flagOf(field), keyOf(field)
		fieldFlags[f], fieldKeys[k] = true, true
		row := "| `-" + f + "` | `" + k + "` |"
		if !flags[f] {
			t.Errorf("Settings.%s: no subcommand has a -%s flag", field, f)
		}
		if keys[k] == (noKey[field] != "") {
			t.Errorf("Settings.%s: JobSpec key %s exists = %v, but noKey says %q", field, k, keys[k], noKey[field])
		}
		if !keys[k] {
			row = "| `-" + f + "` | — |"
		}
		if !strings.Contains(string(doc), row) {
			t.Errorf("OPERATIONS.md lacks the table row %q", row)
		}
	}
	for field := range noKey {
		if _, ok := set.FieldByName(field); !ok {
			t.Errorf("exception for Settings.%s, which does not exist", field)
		}
	}

	// Every flag and key is a settings field's, or a listed front-end one.
	for f := range flags {
		if fieldFlags[f] == (frontEndFlags[f] != "") {
			t.Errorf("flag -%s: names a settings field = %v, frontEndFlags says %q", f, fieldFlags[f], frontEndFlags[f])
		}
	}
	for k := range keys {
		if fieldKeys[k] == (frontEndKeys[k] != "") {
			t.Errorf("JobSpec key %s: names a settings field = %v, frontEndKeys says %q", k, fieldKeys[k], frontEndKeys[k])
		}
	}
	for f := range frontEndFlags {
		if !flags[f] {
			t.Errorf("frontEndFlags lists -%s, which no subcommand has", f)
		}
	}
	for k := range frontEndKeys {
		if !keys[k] {
			t.Errorf("frontEndKeys lists %s, which JobSpec lacks", k)
		}
	}
}

// TestMemBudgetFallback: without -mem-budget a run takes half of GOMEMLIMIT,
// except as a cluster peer — at the parent commit the fallback applied there
// too, and the peer was then refused for a flag it never passed.
func TestMemBudgetFallback(t *testing.T) {
	t.Setenv("GOMEMLIMIT", "4GiB")
	peers := "-peers=127.0.0.1:7701,127.0.0.1:7702"
	for _, tc := range []struct {
		args    []string
		want    int64
		wantErr bool
	}{
		{nil, 2 << 30, false},
		{[]string{"-mem-budget", "1MiB"}, 1 << 20, false},
		{[]string{peers}, 0, false},
		{[]string{peers, "-mem-budget", "1MiB"}, 0, true},
	} {
		c := checkFlags()
		c.fs.Parse(tc.args)
		set, err := c.settings()
		if (err != nil) != tc.wantErr || (err == nil && set.MemBudget != tc.want) {
			t.Errorf("check %v: MemBudget = %d, err = %v; want %d, error = %v", tc.args, set.MemBudget, err, tc.want, tc.wantErr)
		}
	}
	c := checkFlags()
	c.fs.Parse([]string{peers})
	if set, _ := c.settings(); len(set.Peers) != 2 {
		t.Errorf("-peers parsed to %v", set.Peers)
	}
}

// TestDeadlineBoundsWalkCommands: -deadline stops simulate and conform too.
// At the parent commit neither read the flag, and these calls ran their
// million walks to the end.
func TestDeadlineBoundsWalkCommands(t *testing.T) {
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = stdout; null.Close() }()
	args := []string{"-system", "gosyncobj", "-fixed", "-nodes", "3", "-walks", "1000000", "-deadline", "1ms"}
	for name, run := range map[string]func([]string) error{"simulate": runSimulate, "conform": runConform} {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s -deadline 1ms still running after 30s", name)
		}
	}
}
