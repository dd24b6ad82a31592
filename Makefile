# Reproduction of "Security Analysis of Automotive Architectures using
# Probabilistic Model Checking" (DAC 2015). Stdlib-only Go; no network
# access required.

GO ?= go

.PHONY: all build vet lint test race fleet-race chaos explore attacktree check cover bench-smoke shard-smoke fleet-chaos cluster-smoke experiments serve fuzz clean

all: check

# check is the full local gate: compile, static analysis (vet + staticcheck
# when installed), unit tests, the race detector over the concurrent paths
# (parallel grids, sinks), the chaos suite (fault injection, retries, solver
# fallback) under -race, a design-space exploration smoke run, an
# attack-tree solve + countermeasure ranking smoke run, and the cluster
# observability smoke test over a live three-node ring.
check: build vet lint test race chaos explore attacktree cluster-smoke

build:
	$(GO) build ./...

# vet and test also cover benchmark/, a separate module that ./... skips,
# so an export the benchmark driver uses cannot vanish unnoticed.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# lint runs staticcheck when it is on PATH or in GOPATH/bin; otherwise it is
# a no-op so the gate works on machines without it (CI installs it).
STATICCHECK ?= $(or $(shell command -v staticcheck 2>/dev/null),$(shell $(GO) env GOPATH)/bin/staticcheck)
lint:
	@if [ -x "$(STATICCHECK)" ]; then \
		echo "$(STATICCHECK) ./..."; \
		"$(STATICCHECK)" ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...
	cd benchmark && $(GO) test ./...

# race runs every test under the race detector, then reruns the grid tests
# at 1, 2 and 4 workers (GOMAXPROCS), so the recorded solver golden and the
# per-cell references pin bit-identical results at each worker count, and
# the overlapped-stage and error-propagation tests meet each scheduling.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -run 'TestSolverGolden|TestSharedMatchesPerCell|TestForEach|Progress|Overlap|PropagatesError' ./internal/core/

# fleet-race hammers the fleet-resilience paths — circuit breakers, the
# health prober, replication/hinted handoff and tenant admission, and the
# store's JSONL log that hinted handoff shares with the job journal — under
# the race detector with fresh (uncached) runs, then repeats the breaker,
# prober and Serve/Shutdown tests, the golden endpoint bodies and the
# collector-backed counters ten times to catch ordering flakes.
fleet-race:
	$(GO) test -race -count=1 ./internal/shard/ ./internal/service/ ./internal/store/
	$(GO) test -race -count=10 -run 'Prober|Breaker|Fleet|Serve|Golden|Counted' ./internal/shard ./internal/service

# chaos drives the fault-injection stack end to end under the race detector:
# injected worker panics, solver divergence (in RobustSolve and through the
# ctmc reachability solve, with the fallback chain Gauss–Seidel → dense and
# the fallback's residual in the slow log), slow solves, exploration-budget
# violations, and retry/backoff (see README "Resilience").
chaos:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -run 'TestChaos|Budget|TestQueueFullRetryAfter|TestClientRetries|TestHealthDegrades|TestRetryDelay|TestRobustSolve|TestSlowLogFallback' ./internal/linalg/ ./internal/ctmc/ ./internal/modular/ ./internal/service/

# explore smoke-runs the design-space search on a tiny budget: the default
# protection space of the checked-in architecture, then a two-wide beam over
# the Figure-5 scenario space (see models/README.md for the schema).
explore:
	$(GO) run ./cmd/secexplore -arch models/architecture1.json -categories confidentiality
	$(GO) run ./cmd/secexplore -arch models/architecture1.json \
		-space models/scenario_parkassist.json -categories confidentiality \
		-strategy beam -seed 1 -beam-width 2 -generations 2

# attacktree smoke-runs the attack-tree subsystem end to end: solve the
# committed infotainment tree through the engine, then rank every
# countermeasure selection on the cost-vs-risk Pareto front (see README
# "Attack trees").
attacktree:
	$(GO) run ./cmd/secattack -tree models/attacktree_infotainment.json
	$(GO) run ./cmd/secattack -tree models/attacktree_infotainment.json -rank

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# bench-smoke is the CI benchmark gate: every benchmark/run.sh workload for
# 5 s at seed 1, failing on a wrong output, a failed op or a headline metric
# past its fixed 3x ceiling (see scripts/bench_smoke.sh).
bench-smoke:
	./scripts/bench_smoke.sh

# shard-smoke boots a three-node consistent-hash ring on loopback, pushes a
# mixed batch of analyses through one node, and asserts the majority was
# forwarded to the owning peers (see README "Persistence & sharding").
shard-smoke:
	./scripts/shard_smoke.sh

# fleet-chaos kills and restarts a node of a three-node replicated ring
# mid-workload: zero client-visible failures, breaker-driven failover with
# dedup on the successor, hinted handoff drained after the restart (see
# README "Fleet resilience").
fleet-chaos:
	./scripts/fleet_chaos.sh

# cluster-smoke boots a three-node replicated ring, drives a mixed
# architecture + attack-tree load under two tenants (with client trace
# context), and asserts the cluster observability plane through
# `sectop -once -json`: all nodes federated, merged latency p99 > 0,
# nonzero per-tenant usage, and at least one assembled cross-node trace
# (see README "Cluster observability").
cluster-smoke:
	./scripts/cluster_smoke.sh

experiments:
	$(GO) run ./cmd/experiments

# Runs the resident analysis service (see README "Running as a service").
PORT ?= 8600
serve:
	$(GO) run ./cmd/secserved -addr localhost:$(PORT)

# Short parser fuzz pass (the seed corpus always runs under plain `test`).
fuzz:
	$(GO) test -fuzz=FuzzParseModel -fuzztime=30s ./internal/prismlang/
	$(GO) test -fuzz=FuzzLex -fuzztime=30s ./internal/prismlang/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/cvss/

clean:
	rm -f cover.out test_output.txt bench_output.txt
