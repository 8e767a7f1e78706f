GO ?= go

.PHONY: check vet build test explore race race-service race-spaces race-observability race-checkpoint race-session fuzz-smoke bench bench-telemetry bench-smoke bench-build loc cover

# check is the tier-1 gate: everything a PR must keep green.
check: vet build test race race-service race-spaces race-observability race-checkpoint race-session fuzz-smoke bench-telemetry bench-smoke bench-build

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The whole suite, the protocol explorer's bounded mode included (see
# explore below): two models, each with workers that work a unit at a
# time (one of them exhausted) and with pipelined workers, ≥10⁵ states in
# about ten seconds.
test:
	$(GO) test ./...

# The campaign protocol explorer's deep mode (internal/cluster/lease,
# ≈2.5 min, ≈320 MB): a depth-first search in virtual time over every
# interleaving of 2–3 workers on a four-unit campaign, working a unit at
# a time or pipelined — hellos, asks, asks ahead, held asks, submissions
# in flight, heartbeats, lease expiry, crashes, restarts
# under the same name, duplicate and stale-token submissions in any
# order, interrupt and seal. It asserts that every class is merged
# exactly once with the local scan's outcome, that no lease outlives its
# deadline and no held ask misses its wake-up, that the fleet is never
# drained while a worker waits for an answer, and that from every
# reachable state the workers' own moves reach the end, every held
# request answered.
explore:
	$(GO) test ./internal/cluster/lease -run='^TestExplore$$' -v -timeout=30m -explore.deep

race:
	$(GO) test -race ./...

# The campaign service's multi-campaign concurrency proof under the
# race detector: two tenants' distinct campaigns complete concurrently
# on one shared fleet (TestTwoTenantsConcurrent), plus the rest of the
# service suite (scheduling, backpressure, drain, archive hits,
# resubmission, the one worker loop) — -count=2 shakes out
# ordering-dependent races the single pass in `race` can miss. Then the
# service's drain contract twenty times over, under ServeScan's one
# campaign and under ServeCampaigns: every worker is answered its
# dismissal before the listener closes, which one run in a few loses
# when the order is wrong — and a status request held by a client
# waiting for its campaign is answered with the campaign's end, not cut
# off by the same close; and a duplicate submission is answered from the
# archive with nothing simulated on either side. First, the archive
# decoder a hit's report goes through, at one, two and four Ps: every
# decode test decodes each input sequentially and with its class list
# split into parts of one or two classes parsed concurrently, and the two
# must agree, error texts included; -count=3 varies how the parts
# interleave. Last, ten times, the two fleet tests whose workers race
# each other to a campaign of a few milliseconds — their transports hold
# each worker's first lease ask until the other has joined (placement) or
# the victim holds a unit (kill-a-worker), so no schedule leaves one out —
# and the worker pipeline's tests, whose transports hold a submission or
# an ask ahead while the next unit scans.
race-service:
	$(GO) test -race -cpu 1,2,4 -count=3 -run='TestDecode|TestEncodeRandomResults' ./internal/archive
	$(GO) test -race -count=2 ./internal/service
	$(GO) test -race -count=20 -run='TestServeScanDismissesEveryWorker|TestServeCampaignsDismissesParkedWorkers|TestServeCampaignsAnswersHeldStatus|TestHitSimulatesNothing' .
	$(GO) test -race -count=10 -run='TestClusterPlacementEquivalence|TestClusterKillWorkerMidScan|TestPipelineSubmitsBehindScan|TestPipelineHeartbeatNamesHeldUnits|TestPipelineInterrupt|TestPipelineRejectedSubmissionEndsScan' ./internal/cluster

# The attack-style fault models (instruction skip, PC corruption,
# multi-bit bursts) under the race detector: the objective-carrying
# executor matrix and skip/burst interrupt+resume in the root package,
# the trajectory memo against the rerun oracle in all six spaces at one
# and two workers, and with every memo state hashed alike, plus the
# attack-space fleet/archive paths of the campaign service — -count=2
# shakes out ordering-dependent races, exactly like race-service.
race-spaces:
	$(GO) test -race -count=2 -run='TestObjectiveStrategyEquivalence|TestInterruptResumeAttackSpaces|TestOracleRandomCoordinates|TestMemoMatchesRerunRandomPrograms|TestMemoHashCollisions' . ./internal/experiments ./internal/campaign
	$(GO) test -race -count=2 -run='TestInvariant12ArchiveHitAttackSpaces' ./internal/service

# The observability layer under the race detector: the fleet trace
# timeline (spans merging from concurrent workers, and the campaign
# host's marks, into one recorder), progress snapshots reading the host's
# state while leases churn, the /metrics exposition racing live
# instruments — all of it served by the campaign service that hosts the
# campaign — the service's per-campaign trace/metrics surface and a
# retired campaign's entry answering status and /trace while late worker
# traffic still arrives — the span recorder is lock-guarded state shared
# across worker goroutines and HTTP handlers, and -count=2 shakes out
# ordering-dependent races, exactly like race-service.
race-observability:
	$(GO) test -race -count=2 -run='TestFleetTraceTimeline|TestStatusAndTelemetryEndpoints|TestCoordinatorMetricsExposition' ./internal/cluster
	$(GO) test -race -count=2 -run='TestServiceTraceAndMetrics|TestRetiredCampaignDropsCoordinator' ./internal/service

# The checkpoint writer's flusher goroutine under the race detector: the
# group-commit, sticky-error and torn-commit tests of the package, then the
# root scans that feed a writer from a live collector or coordinator —
# pinned file bytes, interrupt+resume, kill-the-coordinator-and-resume and
# a disk filling up mid-scan. -count=3 varies how the commits interleave
# with the appends.
race-checkpoint:
	$(GO) test -race -count=3 ./internal/checkpoint
	$(GO) test -race -count=3 -run='TestCheckpointBytesPinned|TestInterruptResumeEquivalence|TestInterruptResumeFork|TestPlacementEquivalenceCheckpointResume|TestScanStopsOnDeadCheckpoint|TestServeScanStopsOnDeadCheckpoint' .

# The scan driver under the race detector at one, two and four Ps: workers
# claim units from a shared list and deliver their own batches under one
# lock, with the caller as worker 0 — the session tests hold deliver to
# "never concurrent, each call after the previous one" with plain
# variables, so a delivery outside the lock is a reported race; the
# progress tests hold the meter behind it to its event counts. Then the
# root scans whose bytes depend on delivery order and on an interrupt
# raised from inside a callback. -cpu 1 is the case where worker 0 runs
# everything before a started goroutine is scheduled at all. Last, hi's
# interrupt+resume scan a hundred times: an interrupt raised inside
# OnProgress must stop its 16 classes before the last unit, and when the
# stop reached the scan through a goroutine about one run in twenty under
# -race finished instead.
race-session:
	$(GO) test -race -count=3 -cpu 1,2,4 -run='TestSession|TestWorkerErrorNoDeadlock|TestProgress' ./internal/campaign
	$(GO) test -race -cpu 1,2 -run='TestCheckpointBytesPinned|TestInterruptResumeEquivalence|TestCancelInsideProgress' .
	$(GO) test -race -count=100 -run='TestInterruptResumeEquivalence/hi' .

# A short deterministic-corpus + 10s randomized smoke of the attack
# surfaces: the binary decoders exposed to untrusted bytes (the field
# reader they all decode through must stay inside its payload under any
# sequence of reads; corrupted checkpoint files, mutated cluster wire
# frames, handshake included, and damaged service archive entries must
# error, never panic), the scan-report decoder LoadScan runs on report
# bytes fetched from a service (whatever the hand-written decoder accepts,
# the reflective decoder it replaced must accept and decode to a deeply
# equal result), the fork engine (random programs + random
# fork/flip/run/rung-restore sequences must reproduce replayed state
# bit-for-bit) and the any-cycle golden match (random
# self-repairing programs, timers and faults: whenever the matcher names a
# golden cycle, running the child out must reproduce the composed halt,
# output, counters and final cycle). The attack-space coordinate codecs are
# covered the same way: the burst (k, pos) decoder must reject or decode
# to an exact adjacent mask, and skip-space class lists must survive the
# archive/wire FromClasses round trip.
fuzz-smoke:
	$(GO) test ./internal/frame -run='^$$' -fuzz=FuzzReader -fuzztime=10s
	$(GO) test ./internal/checkpoint -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=10s
	$(GO) test ./internal/cluster -run='^$$' -fuzz=FuzzWorkUnitDecode -fuzztime=10s
	$(GO) test ./internal/service -run='^$$' -fuzz=FuzzArchiveEntryDecode -fuzztime=10s
	$(GO) test ./internal/archive -run='^$$' -fuzz=FuzzScanArchiveDecode -fuzztime=10s
	$(GO) test ./internal/machine -run='^$$' -fuzz=FuzzForkClone -fuzztime=10s
	$(GO) test ./internal/machine -run='^$$' -fuzz=FuzzShiftedReconverge -fuzztime=10s
	$(GO) test ./internal/machine -run='^$$' -fuzz=FuzzBurstMaskDecode -fuzztime=10s
	$(GO) test ./internal/pruning -run='^$$' -fuzz=FuzzSkipCoordinateRoundTrip -fuzztime=10s

# A short run of the instrument-overhead benchmark: the disabled
# (nil-registry) fast path must stay allocation-free, which -benchmem
# makes visible; TestDisabledPathAllocFree enforces it in `test`.
bench-telemetry:
	$(GO) test ./internal/telemetry -run='^$$' -bench=BenchmarkTelemetryOverhead -benchtime=100x -benchmem

# One un-calibrated iteration of every BenchmarkFullScan row — {rerun,
# fork, fork+pre, fork+pre+trace} on the two Figure-2 kernels and their
# SUM+DMR-hardened variants — so a broken executor configuration fails
# `make check` instead of being discovered at the next bench run; the
# hardened fork rows fail on a count, shifted/op == 0, so does a silently
# disabled any-cycle match. The
# benchmark writes nothing; tracked numbers live under bench/. Then three
# campaigns through an idle loopback service (BenchmarkServiceSubmitToReport):
# the hand-offs on the submit→report path are held requests, and the
# benchmark fails when the median campaign takes as long as half a poll
# interval — a sleep reintroduced there fails `make check` instead of
# waiting for the next run of bench/, and one slow op on a loaded machine
# does not.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkFullScan -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkServiceSubmitToReport -benchtime=3x .

# bench/ is a module of its own, so `vet`, `build` and `test` above never
# compile it: vet it and run its own tests (≈5 s, nothing written into
# the tree), so that renaming something it imports fails the gate.
bench-build:
	$(GO) vet -C bench . && $(GO) test -C bench .

# Lines of non-test Go outside bench/: the size a simplifying change
# quotes against its parent, then the same count per package.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = p[2]; for (i = 3; i < n; i++) d = d "/" p[i]; if (n == 2) d = "."; s[d] += $$1 } \
		END { for (d in s) printf "%7d  %s\n", s[d], d }' | sort -k2

# Statement coverage of the whole suite, every package's tests counted
# against every package (about a minute on two cores). The merged profile is
# written to a fresh temporary directory outside the tree, whose path is
# printed; then the non-test functions no test reaches, examples/ left
# out, and the total: the dead-code list a simplifying change starts
# from. A failing suite prints its output and leaves nothing behind. Not
# part of check, which runs the suite already.
cover:
	@d=$$(mktemp -d) && \
		{ $(GO) test -coverpkg=./... -coverprofile="$$d/cover.out" ./... >"$$d/test.log" || \
		{ cat "$$d/test.log"; rm -rf "$$d"; exit 1; }; } && \
		echo "profile: $$d/cover.out" && \
		$(GO) tool cover -func="$$d/cover.out" | \
		awk '/^total:/ { print; next } $$NF == "0.0%" && $$1 !~ /^faultspace\/examples\// { print "  " $$1, $$2 }'

bench:
	$(GO) test -bench=. -benchmem
