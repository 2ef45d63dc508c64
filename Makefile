# Development targets for the loopmap reproduction (module "repro").

GO ?= go

.PHONY: all build vet test race short bench benchpairs fuzz experiments cover clean serve serve-smoke chaos scenario loc

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

# Ten alternating pairs of the benchmark (perfbench) on the parent commit
# and the working tree, over the workloads and run length BENCHMARK.json
# sets, summarized per metric into BENCH.json. Pass options through, e.g.
# `make benchpairs BENCHPAIRS='--base HEAD~1 --head HEAD --out BENCH_16.json'`.
benchpairs:
	bash scripts/benchpairs.sh $(BENCHPAIRS)

# Ten seconds each of parser, full-pipeline, log-replay and /v1/plan
# wire-decoder fuzzing beyond the checked-in seeds.
fuzz:
	$(GO) test -fuzz FuzzParseProgram -fuzztime 10s ./internal/parser/
	$(GO) test -fuzz FuzzNewPlan -fuzztime 10s -run '^$$' .
	$(GO) test -fuzz FuzzWALReplay -fuzztime 10s ./internal/persist/
	$(GO) test -fuzz FuzzPlanWire -fuzztime 10s -run '^$$' ./api/

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

# The end-to-end fault scenarios under the race detector, one subtest
# per row: crash (SIGKILL and restart), cluster (join and shard kill),
# partition (seeded network faults), diskchaos (seeded disk faults) and
# tiered (SIGKILL inside a compaction). `go test ./...` runs them too;
# -short skips the rows that start loopmapd subprocesses.
scenario:
	$(GO) test -race -v -run TestScenario ./internal/scenario

# Lines of the tracked Go files outside perfbench/: non-test, then test.
loc:
	@echo "non-test $$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l)"
	@echo "test $$(git ls-files '*_test.go' | grep -v '^perfbench/' | xargs cat | wc -l)"

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
