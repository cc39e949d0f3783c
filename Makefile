# Local mirror of .github/workflows/ci.yml — `make ci` runs the same
# gates CI enforces on push/PR.

GO ?= go

.PHONY: ci build vet fmt-check lint test test-shuffle race bench-smoke bench bench-shard bench-latency bench-persist bench-kv bench-obs bench-sealer bench-sealer-baseline bench-timing bench-timing-baseline persist-smoke kv-smoke cluster-smoke perfbench-test fmt

ci: build vet fmt-check lint test test-shuffle race bench-smoke bench-sealer bench-timing persist-smoke kv-smoke cluster-smoke perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Shuffled test order flushes out inter-test state dependencies that a
# fixed order silently satisfies.
test-shuffle:
	$(GO) test -shuffle=on -count=1 ./...

# Static analysis: the repo's own obliviousness linter (horam-lint:
# ctflow, ctmask, errdrop) plus staticcheck and govulncheck when
# installed. See README "Static obliviousness guarantees".
lint:
	./scripts/lint.sh

# The second run repeats the packages on the concurrent serving path
# (every connection goroutine calls engine.Batch) at 1 and 4 CPUs. It
# skips the constant-time differential, which takes about two minutes
# per run under the race detector and has no connection concurrency;
# the first run covers it.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 -count=3 -skip TestConstantTimeDifferentialAndTraceParity ./internal/server/ ./internal/engine/ ./internal/cluster/

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Durability acceptance gate: horamd -data-dir start -> write -> SIGTERM
# -> restart -> read-back over real TCP and a real storage file.
persist-smoke:
	./scripts/persist_smoke.sh

# KV acceptance gate: horamd -kv -data-dir start -> KSET/KGET/KDEL over
# TCP -> SIGTERM -> restart from snapshot -> read the table back.
kv-smoke:
	./scripts/kv_smoke.sh

# Cluster acceptance gate: 2 horamd -shard-serve nodes + 1 -gateway,
# KV traffic over real TCP, SIGTERM one node mid-traffic, assert the
# gateway surfaces per-task ERRs naming the dead shard instead of
# wedging.
cluster-smoke:
	./scripts/cluster_smoke.sh

# The serving benchmark's own tests (request oracle, seed determinism,
# counter reconciliation). perfbench/ is a separate Go module, so the
# root ./... pattern never reaches it.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Full benchmark run (slow) — the reproduction's headline numbers.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Regenerate the committed shard-scaling baseline (BENCH_shard.json):
# aggregate throughput vs shard count through internal/engine.
bench-shard:
	$(GO) run ./cmd/horam-bench -exp shard -out BENCH_shard.json

# Regenerate the committed tail-latency baseline (BENCH_latency.json):
# per-request p50/p99/max, monolithic vs deamortized shuffle.
bench-latency:
	$(GO) run ./cmd/horam-bench -exp latency -out BENCH_latency.json

# Regenerate the committed persistence baseline (BENCH_persist.json):
# file-backed storage device vs the in-memory simulator.
bench-persist:
	$(GO) run ./cmd/horam-bench -exp persist -out BENCH_persist.json

# Regenerate the committed KV baseline (BENCH_kv.json): oblivious
# key-value logical throughput vs shard count.
bench-kv:
	$(GO) run ./cmd/horam-bench -exp kv -out BENCH_kv.json

# Observability overhead: instrumented registry + tracer vs the bare
# engine on one workload. Host-machine numbers, so not part of ci.
bench-obs:
	$(GO) run ./cmd/horam-bench -exp obs -out BENCH_obs.json

# Sealer throughput gate: fail if the seal/open microbenchmarks fall
# below 80% of the committed BENCH_sealer.json baseline.
bench-sealer:
	./scripts/sealer_gate.sh

# Regenerate the committed sealer baseline (BENCH_sealer.json).
bench-sealer-baseline:
	./scripts/sealer_gate.sh -update

# Timing-variance gate: constant-time pairs must be statistically
# indistinguishable AND the default-mode canary must stay detectable.
bench-timing:
	./scripts/timing_gate.sh

# Regenerate the committed timing baseline (BENCH_timing.json).
bench-timing-baseline:
	./scripts/timing_gate.sh -update

fmt:
	gofmt -w .
