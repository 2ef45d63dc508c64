# Development targets for the loopmap reproduction (module "repro").

GO ?= go

.PHONY: all build vet test race short bench bench-json benchpairs fuzz experiments cover clean serve serve-smoke chaos crash cluster partition diskchaos tieredtest loadtest

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fast subset: skips the tests that invoke the go tool on generated code.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark results (ns/op, allocs, and the custom paper
# metrics) for regression tracking, plus the serving-path load-test
# artifact (latency percentiles and saturation throughput per workload).
bench-json:
	$(GO) run ./cmd/benchjson -benchtime 1x -o BENCH_1.json
	$(GO) run ./cmd/loadtest -duration 2s -conc 16 -seed 1 -o BENCH_6.json
	$(GO) run ./cmd/loadtest -duration 2s -conc 16 -seed 1 -workload batch -o BENCH_8.json
	$(GO) run ./cmd/loadtest -duration 2s -conc 16 -seed 1 -workload coldset -o BENCH_10.json

# Ten alternating pairs of the benchmark (perfbench) on the parent commit
# and the working tree, over the workloads and run length BENCHMARK.json
# sets, summarized per metric into BENCH.json. Pass options through, e.g.
# `make benchpairs BENCHPAIRS='--base HEAD~1 --head HEAD --out BENCH_16.json'`.
benchpairs:
	bash scripts/benchpairs.sh $(BENCHPAIRS)

# Seeded load generator against an in-process daemon: every workload,
# human-readable summary. Point it elsewhere with
# `go run ./cmd/loadtest -target http://host:8080`.
loadtest:
	$(GO) run ./cmd/loadtest -duration 2s -conc 16 -seed 1

# Ten seconds each of parser, full-pipeline, and log-replay fuzzing
# beyond the checked-in seeds.
fuzz:
	$(GO) test -fuzz FuzzParseProgram -fuzztime 10s ./internal/parser/
	$(GO) test -fuzz FuzzNewPlan -fuzztime 10s -run '^$$' .
	$(GO) test -fuzz FuzzWALReplay -fuzztime 10s ./internal/persist/

# Run the plan-serving daemon on :8080.
serve:
	$(GO) run ./cmd/loopmapd -addr :8080

# One-shot end-to-end check: ephemeral port, one self-issued /v1/plan.
serve-smoke:
	$(GO) run ./cmd/loopmapd -smoke

# Regenerate every table and figure of the paper.
experiments:
	$(GO) run ./cmd/experiments -e all

# Fault-tolerance suite under the race detector: fault injection, degraded
# remapping, panic/overload middleware, plus the experiments smoke sweep.
chaos:
	$(GO) test -race -run 'Fault|Degraded|Panic|Overload' ./...
	$(GO) run ./cmd/experiments -faults

# Kill/restart chaos harness: build loopmapd, drive it with concurrent
# fsync=always load (group commit under SIGKILL), kill it mid-write,
# restart from the same -disk-cache-dir, and assert every pre-kill
# response is served warm and byte-identical.
crash:
	$(GO) run ./cmd/crashtest -requests 64 -seed 1

# Cluster elasticity/kill chaos harness: boot 3 sharded daemons with an
# admin token, drive mixed load through the cluster-aware client, join a
# 4th shard under live traffic (asserting only its keyspace moves), then
# SIGKILL the busiest shard and assert its keyspace serves warm from the
# replicas — zero recomputations, every acknowledged response re-served
# byte-identically.
cluster:
	$(GO) run ./cmd/clustertest -requests 48 -seed 1

# Network-partition chaos harness under the race detector: an in-process
# 4-shard cluster with every inter-shard connection routed through a
# seeded TCP chaos fabric. Each cycle injects a partition / blackhole /
# asymmetric cut / latency / reset, drives load, heals, and asserts zero
# acked-plan loss, digest convergence on every owner↔standby pair, and
# deadline-budgeted forwarding.
partition:
	$(GO) run -race ./cmd/partitiontest -shards 4 -cycles 6 -requests 24 -seed 1

# Storage-fault smoke harness under the race detector: seeded disk-fault
# plans (EIO / ENOSPC / torn writes / fsync failure / rename failure /
# on-disk bitrot) against the tiered store and a two-shard cluster.
# Asserts zero acked-durable loss, the sticky read-only latch, that every
# armed plan actually fires, scrub quarantine of corrupt segments,
# anti-entropy healing from the standby, and that a fault-free plan is a
# byte-identical no-op.
diskchaos:
	$(GO) run -race ./cmd/diskchaos -seed 1 -cycles 6

# Tiered-store smoke harness: a daemon with a tiny RAM LRU and a churny
# disk tier is filled past RAM, SIGKILLed inside a compaction window,
# and restarted. Asserts zero acked-plan loss (every pre-kill response
# re-served byte-identical), zero recomputations on re-touch (disk hits
# only), and O(WAL-tail) startup — segments attach via the manifest
# instead of being replayed.
tieredtest:
	$(GO) run ./cmd/tieredtest -keys 96 -seed 1

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
