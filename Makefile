GO ?= go

.PHONY: all build vet test race race-conform race-cluster fuzz docs checktrace soak cluster serve-smoke ci loc clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-conform hammers the parallel conformance worker pool specifically:
# repeated -race runs of the pool's equivalence and verdict tests, so a
# scheduling-dependent regression in the first-discrepancy-wins protocol
# fails CI even when the full-suite race pass happens to interleave benignly.
# The gosyncobj rounds run two workers over the process-global slot tables
# and schema cache (filled on first use, while both walk) and each cluster's
# lazily seeded streams and field-to-slot table; the engine rows hold the
# reused slot vectors and the pinned fault streams, and the network row the
# vnet.* metrics a reader polls while the command goroutine counts into
# them; the integrations row
# holds every system's lock-step round to the two-phase reference at
# W = 1, 2 and 4 (about 40 s under -race on two CPUs, so it runs twice).
race-conform:
	$(GO) test -race -count 4 -run 'TestParallelMatchesSerial|TestResourceCheck|TestEventsCheckedPinned|TestParallelRoundHoldsOnlyWalksInFlight|TestConformAllocsPerEvent' ./internal/conformance/
	$(GO) test -race -count 4 -run 'TestObserveSlotsReusedMatchesFresh|TestFaultStreamsPinned' ./internal/engine/
	$(GO) test -race -count 4 -run 'TestStatsMirrorConcurrentReads' ./internal/vnet/
	$(GO) test -race -count 2 -run 'TestLockStepMatchesTwoPhase' ./internal/integrations/

# race-cluster does the same for the cluster's candidate path: each expand
# worker's private repeat table and encoding slab, and seal's serial
# cross-worker resolution and P-way merge, under the cross-worker-repeat row,
# the kill-and-resume run and the two hostile-block tests (W = 1, 2, 4), four
# times over — for the cluster's checkpoints (every peer's chain, the
# coordinator's manifest handed out at hello, the crash windows and the
# flag-agreement check) — and for the transport they all run on, whose
# per-link writer goroutines run in every in-process cluster. The cluster
# equivalence rows are FuzzShapeMatchesOracle's seed corpus (2 and 3 peers
# at W = 1, 2, 4, stopped and resumed), run twice: one pass under -race takes
# about half a minute on two CPUs.
race-cluster:
	$(GO) test -race -count 4 -run 'TestClusterEquivalenceCrossWorkerRepeats|TestClusterKillAndResume|TestClusterCheckpointFlagsMustAgree|TestClusterResumeWithoutManifest|TestDeltaCrashWindows|TestTruncatedWire|TestDuplicateWire' ./internal/explorer/
	$(GO) test -race -count 2 -run 'FuzzShapeMatchesOracle' ./internal/integrations/
	$(GO) test -race -count 4 ./internal/transport/

# fuzz runs a short coverage-guided smoke over the network environment, on
# both levels: the engine's (a 3-node cluster under TCP and UDP taking hostile
# commands — any node, peer and index, out-of-range, non-head and to down
# nodes — where a refused command changes no rendered slot and no vnet.*
# value, sent + duplicated = delivered + dropped + buffered, and a down node
# has no queued frame and no open link) and the specifications' (spec.Net:
# send/take/dup, faults and listed events, each applied to a clone in a
# recycled Net, against a model, with the parent untouched, the codec section
# round-tripping and equal nets hashing equally); and over
# the decoders of checkpoint bytes: the chain-log block reader on whole logs,
# on a first block's payload and on a later block's payload (whatever it
# accepts goes through resume's frontier verification), the frontier-record
# reader (no panic, no
# allocation sized from a count the input cannot back) and the manifest
# reader (nothing accepted names a file outside the chain pattern) — over the two
# state codecs themselves, whose DecodeState runs on every record read back
# from a spill run, a checkpoint or a peer — over the wire block a peer
# sends at every level barrier, the hello a TCP peer sends before it is known,
# the explorer's hello summary (run identity and checkpoint flags) at the first
# barrier, the per-level summaries after it (the coordinator's, every peer's
# resolve and final summary: no negative count, no chain position or
# checkpoint flag this peer's settings contradict), and the JobSpec body
# `sandtable serve` accepts; draws deployment shapes beyond the seed corpus of
# the shape-differential harness; replays hostile counterexample files (a real
# CRaft#4 trace and its edits to out-of-range nodes, peers and indexes: no
# panic, every failure names its step and event); and checks that the orbit
# digest combiner keeps two different splits of one byte stream apart.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/vnet/ -run '^$$' -fuzz '^FuzzQueueOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spec/ -run '^$$' -fuzz '^FuzzNetOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explorer/ -run '^$$' -fuzz '^FuzzReadLog$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explorer/ -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explorer/ -run '^$$' -fuzz '^FuzzParseDeltaPayload$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explorer/ -run '^$$' -fuzz '^FuzzFrontierRecords$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explorer/ -run '^$$' -fuzz '^FuzzReadManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explorer/ -run '^$$' -fuzz '^FuzzClusterHello$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/explorer/ -run '^$$' -fuzz '^FuzzClusterSummaries$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/specs/raftbase/ -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/specs/zabkeeper/ -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzDecodeWireBlock$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzHandshake$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/integrations/ -run '^$$' -fuzz '^FuzzShapeMatchesOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sandtable/ -run '^$$' -fuzz '^FuzzReplayTrace$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fp/ -run '^$$' -fuzz '^FuzzDigestCombiner$$' -fuzztime $(FUZZTIME)

# docs is the documentation gate: gofmt cleanliness, go vet, doc comments
# on every exported identifier in the audited packages, and unbroken
# relative links in the *.md files (see scripts/checkdocs.sh).
docs:
	./scripts/checkdocs.sh

# checktrace regenerates observability artifacts (JSONL trace, metrics
# snapshot, Markdown report) from a small bounded run and validates them
# against the versioned schema in internal/obs/schema.go — every event must
# parse, carry a readable version, and keep strictly increasing sequence
# numbers; the metrics snapshot and embedded coverage profile must carry
# readable schema versions too. Schema drift fails here before it breaks
# `sandtable report` or archived artifacts.
checktrace:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/sandtable check -system gosyncobj -max-states 2000 -deadline 60s \
		-metrics-out "$$tmp/metrics.json" -trace-out "$$tmp/trace.jsonl" -report "$$tmp/report.md" >/dev/null && \
	$(GO) run ./scripts/checktrace -metrics "$$tmp/metrics.json" "$$tmp/trace.jsonl" && \
	grep -q '## Action coverage' "$$tmp/report.md"

# soak exercises the out-of-core path end to end, once per state-codec
# family (craft for raftbase, then zabkeeper): a GOMEMLIMIT-capped run under
# a deliberately tiny -mem-budget, so the fingerprint set and the frontier
# must spill to disk, with a tight checkpoint cadence so the chain log gains
# delta blocks after its first; then a resume leg reloads the committed
# blocks of the log, frontier states included, and explores on. checktrace -require
# asserts the spill and delta counters actually moved — a soak that fits
# comfortably in RAM proves nothing.
soak:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for sys in craft zabkeeper; do \
		mkdir "$$tmp/$$sys"; \
		run() { GOMEMLIMIT=512MiB $(GO) run ./cmd/sandtable check -system $$sys -fixed -deadline 120s \
			-mem-budget 256KiB -spill-dir "$$tmp/$$sys/spill" -checkpoint "$$tmp/$$sys/ck" "$$@" >/dev/null; }; \
		run -max-states 30000 -checkpoint-states 5000 \
			-metrics-out "$$tmp/$$sys/metrics.json" -trace-out "$$tmp/$$sys/trace.jsonl"; \
		$(GO) run ./scripts/checktrace -metrics "$$tmp/$$sys/metrics.json" \
			-require fpset.spilled_entries -require explorer.frontier_spilled_entries \
			-require checkpoint.deltas "$$tmp/$$sys/trace.jsonl"; \
		run -max-states 40000 -resume; \
	done; \
	echo "soak: spill + delta checkpoint + resume OK (craft, zabkeeper)"

# cluster proves the distributed-equivalence guarantee end to end on real
# sockets: a 3-process localhost TCP run of a violating craft configuration
# against a single-process -workers 1 reference. checktrace -require
# asserts frontier blocks actually crossed the transport (a run that never
# exchanged state proves nothing), clustercmp asserts every peer's result
# counters, stop decision, violation set, and full coverage profile match
# the reference, and cmp asserts the coordinator reconstructed a
# byte-identical counterexample trace through remote edge probes. A second
# leg checkpoints: three peers, each with its own -checkpoint dir (the
# multi-host layout), stop on -max-states one level short of the violation,
# after a checkpoint that appended a delta block (checktrace -require); the
# peers restart with -resume on fresh ports and must land on the same
# reference (clustercmp skips the coverage of a resumed run) and the same
# trace. Ports are derived from the shell PID so concurrent CI jobs don't
# collide.
cluster:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/sandtable" ./cmd/sandtable; \
	base=$$((42000 + $$$$ % 2000)); \
	peers="127.0.0.1:$$base,127.0.0.1:$$((base+1)),127.0.0.1:$$((base+2))"; \
	run() { "$$tmp/sandtable" check -system craft -nodes 3 -max-timeouts 2 -max-requests 1 \
		-max-buffer 2 -deadline 120s "$$@"; }; \
	run -workers 1 -metrics-out "$$tmp/ref.json" -o "$$tmp/ref-trace.json" >/dev/null; \
	run -workers 2 -peers "$$peers" -peer-id 1 -metrics-out "$$tmp/peer1.json" >/dev/null 2>&1 & p1=$$!; \
	run -workers 2 -peers "$$peers" -peer-id 2 -metrics-out "$$tmp/peer2.json" >/dev/null 2>&1 & p2=$$!; \
	run -workers 2 -peers "$$peers" -peer-id 0 -metrics-out "$$tmp/peer0.json" \
		-o "$$tmp/cluster-trace.json" >/dev/null; \
	wait $$p1; wait $$p2; \
	$(GO) run ./scripts/checktrace -metrics "$$tmp/peer0.json" \
		-require transport.blocks_sent -require transport.bytes_recv -require transport.barriers; \
	$(GO) run ./scripts/clustercmp -ref "$$tmp/ref.json" "$$tmp/peer0.json" "$$tmp/peer1.json" "$$tmp/peer2.json"; \
	cmp "$$tmp/ref-trace.json" "$$tmp/cluster-trace.json"; \
	ck() { ps="127.0.0.1:$$(($$1)),127.0.0.1:$$(($$1+1)),127.0.0.1:$$(($$1+2))"; id=$$2; shift 2; \
		run -workers 2 -peers "$$ps" -peer-id $$id -checkpoint "$$tmp/ck$$id" -checkpoint-states 100 "$$@"; }; \
	ck base+3 1 -max-states 5000 -metrics-out "$$tmp/ck1.json" >/dev/null 2>&1 & p1=$$!; \
	ck base+3 2 -max-states 5000 >/dev/null 2>&1 & p2=$$!; \
	ck base+3 0 -max-states 5000 >/dev/null; \
	wait $$p1; wait $$p2; \
	$(GO) run ./scripts/checktrace -metrics "$$tmp/ck1.json" -require checkpoint.deltas; \
	ck base+6 1 -resume -metrics-out "$$tmp/resumed1.json" >/dev/null 2>&1 & p1=$$!; \
	ck base+6 2 -resume -metrics-out "$$tmp/resumed2.json" >/dev/null 2>&1 & p2=$$!; \
	ck base+6 0 -resume -metrics-out "$$tmp/resumed0.json" -o "$$tmp/resumed-trace.json" >/dev/null; \
	wait $$p1; wait $$p2; \
	$(GO) run ./scripts/clustercmp -ref "$$tmp/ref.json" "$$tmp/resumed0.json" "$$tmp/resumed1.json" "$$tmp/resumed2.json"; \
	cmp "$$tmp/ref-trace.json" "$$tmp/resumed-trace.json"; \
	echo "cluster: 3-peer run, and a 3-peer run killed and resumed from per-peer checkpoint dirs, match the single-process reference (counters, coverage, trace)"

# serve-smoke proves checking-as-a-service end to end over real HTTP: a
# `sandtable serve` daemon gets a violating craft job submitted by the
# servesmoke client, which streams SSE progress + trace events to
# completion and downloads the artifact set. checktrace validates both the
# trace.jsonl artifact and the SSE-streamed events against the schema,
# clustercmp asserts the job's result counters, stop decision, violation
# set, and coverage profile match a CLI run with identical settings, and
# cmp asserts the counterexample trace is byte-identical — an HTTP job and
# a CLI invocation are the same check. A second leg submits a confirm job
# with "shrink": true and holds its result (counters, shrink lengths, replay
# steps, verdict) to `sandtable confirm -shrink`, so check → shrink → replay
# equivalence is gated end to end (-totals: the CLI's confirm has no -workers
# flag and runs at NumCPU, where per-action fresh attribution is not
# canonical). Ports derive from the shell PID so concurrent CI jobs don't
# collide.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); srv=""; \
	trap 'test -n "$$srv" && kill $$srv 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/sandtable" ./cmd/sandtable; \
	addr=127.0.0.1:$$((44100 + $$$$ % 2000)); \
	"$$tmp/sandtable" check -system craft -nodes 3 -max-timeouts 2 -max-requests 1 \
		-max-buffer 2 -deadline 120s -workers 1 \
		-metrics-out "$$tmp/ref.json" -o "$$tmp/ref-trace.json" >/dev/null; \
	"$$tmp/sandtable" confirm -system gosyncobj -bug 'GoSyncObj#2' -shrink \
		-metrics-out "$$tmp/ref-confirm.json" >/dev/null; \
	"$$tmp/sandtable" serve -addr "$$addr" -artifacts "$$tmp/jobs" >/dev/null & srv=$$!; \
	$(GO) run ./scripts/servesmoke -server "http://$$addr" -out "$$tmp/serve" \
		-spec '{"op":"check","system":"craft","nodes":3,"max_timeouts":2,"max_requests":1,"max_buffer":2,"deadline":"120s","workers":1,"progress_every":"100ms"}'; \
	$(GO) run ./scripts/servesmoke -server "http://$$addr" -out "$$tmp/serve-confirm" \
		-spec '{"op":"confirm","system":"gosyncobj","bug":"GoSyncObj#2","shrink":true,"progress_every":"10ms"}'; \
	kill $$srv; wait $$srv 2>/dev/null; srv=""; \
	$(GO) run ./scripts/checktrace -metrics "$$tmp/serve/metrics.json" \
		"$$tmp/serve/trace.jsonl" "$$tmp/serve/sse-trace.jsonl"; \
	$(GO) run ./scripts/clustercmp -ref "$$tmp/ref.json" "$$tmp/serve/metrics.json"; \
	cmp "$$tmp/ref-trace.json" "$$tmp/serve/trace.json"; \
	$(GO) run ./scripts/clustercmp -totals -ref "$$tmp/ref-confirm.json" "$$tmp/serve-confirm/metrics.json"; \
	echo "serve-smoke: HTTP jobs match CLI references (check: counters, coverage, trace; confirm: + shrink, replay)"

# ci is the gate every change must pass: compile, static checks, the docs
# gate, the full test suite under the race detector, the repeated race runs
# of the parallel conformance pool and the cluster candidate path, a short
# fuzz smoke, the observability
# artifact schema gate, the out-of-core soak, the 3-process
# distributed-equivalence gate, and the checking-as-a-service smoke.
ci: build vet docs race race-conform race-cluster fuzz checktrace soak cluster serve-smoke

# loc prints the non-test Go lines of every package directory (benchmark/
# excluded) and their total: the figure CHANGES.md quotes when a PR reports
# a size reduction, so a reviewer reproduces it with one command.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# clean removes what `go run ./benchmark` leaves behind (both git-ignored).
clean:
	rm -rf .bench_build benchmark/out
