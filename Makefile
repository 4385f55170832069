GO ?= go

.PHONY: check build fmt vet lint depscheck test benchtest race fuzz bench benchcheck gobench chaos chaos-service crashtest loadtest

# The gate CI runs: gofmt + vet + stdlib-only dependency check +
# determinism lint + full test suite + the benchmark module's tests +
# race + the fixed-seed chaos sweep + the service chaos harness + the
# crash-consistency enumeration + the rmscaled load smoke.
check: fmt vet depscheck lint test benchtest race chaos chaos-service crashtest loadtest

build:
	$(GO) build ./...

# Fail if any Go source outside the analyzer fixtures (testdata, whose
# layout the lint tests pin) and the benchmark's build directory is not
# gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*')); \
	if [ -n "$$out" ]; then echo "fmt: not gofmt-clean:"; echo "$$out"; exit 1; fi
	@echo "fmt: gofmt-clean"

vet:
	$(GO) vet ./...

# The custom determinism/model-coverage analyzers (see DESIGN.md,
# "Determinism invariants"). One process runs all eight: the full-
# source typecheck and the call graph are built once and shared, so
# adding an analyzer costs its traversal, not another load. Exits
# non-zero on any finding; the JSON report is the CI artifact.
lint:
	$(GO) run ./cmd/rmslint -json lint_report.json ./...

# The module must keep building from the Go standard library alone (a
# stated constraint of the reproduction — see ROADMAP.md): fail if any
# transitive dependency resolves outside the stdlib and the module
# itself.
depscheck:
	@out=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./... | grep -v '^rmscale' | grep -v '^$$' || true); \
	if [ -n "$$out" ]; then echo "depscheck: non-stdlib dependencies:"; echo "$$out"; exit 1; fi
	@echo "depscheck: standard library only"

test: build
	$(GO) test ./...

# The benchmark (rmsbench/) is its own module, so `go test ./...` from
# the root never reaches its tests. Run them in the environment
# rmsbench/run.sh builds the benchmark in: a private build cache under
# .bench_build/, the local toolchain and no module downloads.
benchtest:
	GOCACHE="$(CURDIR)/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off $(GO) -C rmsbench test .

# Race-check the whole module; -short keeps the smoke-fidelity
# experiment runs out of the race build, which would otherwise
# dominate the wall clock. The service layer (worker shards, condition
# variables, store GC, supervision) additionally runs its full suite
# under the detector — it is the module's most concurrent code.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 ./internal/service/...

# Fuzz the simulation kernel for a fixed budget: FuzzKernelOps drives
# random schedule/ticker/step/run/stop sequences beyond its committed
# seed corpus, which `go test` only replays.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzKernelOps -fuzztime 15s ./internal/sim

# Refresh the committed benchmark baseline: run the regression harness
# (internal/perfbench) and overwrite BENCH_sim.json with its report.
# Run this after a deliberate performance change (or a Go toolchain
# bump) and commit the result.
bench: build
	$(GO) run ./cmd/rmscale bench > BENCH_sim.json
	@echo "BENCH_sim.json refreshed"

# Gate the current tree against the committed baseline: simulated event
# counts must match exactly, allocation metrics may not regress beyond
# the tolerance. The fresh report lands in bench_current.json (the CI
# artifact) whether the gate passes or not.
benchcheck: build
	$(GO) run ./cmd/rmscale -check BENCH_sim.json bench > bench_current.json

# Raw go test benchmarks (kernel micro-benches and the full figure
# pipeline) with allocation stats, for interactive profiling.
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim .

# Fixed-seed chaos sweep: 32 random fault schedules across all RMS
# models under the runtime invariant auditor. Any violation is
# replayed, shrunk to a minimal reproducer and fails the target.
chaos: build
	$(GO) run ./cmd/rmscale -chaos 32 -seed 1

# Service chaos harness: scripted executor panics/hangs/failures,
# client disconnects, store corruption, journal tears and flaky disk
# writes against live rmscaled daemons; every result must come back
# byte-identical to a fault-free reference. The report is the CI
# artifact; any violated assertion exits non-zero.
chaos-service: build
	$(GO) run ./cmd/rmscaled chaos -specs 12 -clients 3 -v -report chaos_report.json

# Crash-consistency enumeration: canonical journal/store workloads run
# on a simulated filesystem, a power cut is enumerated at every
# filesystem op (plus torn/garbled tails of the final append), and the
# persistence layer restarts on each materialized disk image. Recovery
# must always succeed, never serve wrong bytes, and never lose an
# acknowledged durable result. The report is the CI artifact; any
# violated invariant exits non-zero.
crashtest: build
	$(GO) run ./cmd/rmscaled crashtest -v -report crashtest_report.json

# rmscaled load smoke: one scaled-down load iteration through the full
# HTTP service (submit / stream / fetch, dedup audited, exit non-zero
# on any accounting drift). The full 1000-object iteration runs inside
# `make bench`/`make benchcheck` via the perfbench service metrics.
loadtest: build
	$(GO) run ./cmd/rmscaled loadtest -objects 200 -distinct 25 -clients 4 -v > loadtest_report.json
