# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check race short sim svcsmoke bench benchall experiments fuzz fmt vet clean

all: build vet test

build:
	$(GO) build ./...

# Default test target: full suite, then a short-mode pass under the race
# detector so concurrency regressions surface in everyday runs.
test:
	$(GO) test ./...
	$(GO) test -short -race ./...

# The pre-merge gate: gofmt over every tracked Go file (git ls-files
# keeps the benchmark's .bench_build/ out), static analysis, the full
# suite under -race
# (which includes the differential model checker), a focused
# overload/shed/drain soak under -race (deterministic virtual time, so
# it is quick), the twd end-to-end durability test (schedule, SIGKILL
# mid-traffic, restart, verify every acked timer fires or survives),
# 30-second smokes of the batched-ingress, model-checker (mixed-ops and
# reset-storm), WAL-replay, replica-stream and /v1/fired page-decoder
# fuzz targets,
# a fleet-simulation smoke (`make sim`: 100k virtual connections, the
# conservation ledger and firing-lag SLO asserted at exit), a service
# benchmark smoke (`make svcsmoke`), and a one-iteration benchmark smoke
# so `make bench` can never rot unnoticed (it compiles and enters every
# benchmark without measuring anything).
check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run Overload -race -short ./timer/ ./internal/schemetest/
	$(GO) test -run=TestE2ECrashRecovery -count=1 -v ./cmd/twd/
	$(GO) test -race -run=TestE2EFailover -count=1 -v ./cmd/twd/
	$(GO) test -run=xxx -fuzz=FuzzBatchIngress -fuzztime=30s ./timer/
	$(GO) test -run=xxx -fuzz=FuzzModelMixedOps -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzModelResetStorm -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzWALReplay -fuzztime=30s ./internal/wal/
	$(GO) test -run=xxx -fuzz=FuzzReplicaStream -fuzztime=30s ./internal/replica/
	$(GO) test -run=xxx -fuzz=FuzzFiredPageDecode -fuzztime=30s ./twclient/
	$(MAKE) sim
	$(MAKE) svcsmoke
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Fleet-simulation smoke: 100k simulated connections, 4 virtual hours,
# compressed into a few wall seconds. twfleet exits non-zero unless the
# started == delivered+shed+stopped+outstanding+abandoned ledger closes
# exactly and p99.9 firing lag stays within the SLO.
sim:
	$(GO) run ./cmd/twfleet -conns 100000 -shards 2 -hours 4

# Service benchmark smoke: svcbench is a module of its own, so the root
# `go vet ./...` never reaches it. Short runs of both gated workloads
# drive a real twd and exit non-zero on any oracle violation: fire-storm
# checks every acked timer fires exactly once; admit also checks that
# stopped timers never fire, leases renew, and the ledger closes.
svcsmoke:
	cd svcbench && $(GO) vet ./...
	bash svcbench/run.sh --workload fire-storm --seed 1 --seconds 5 --trace 0
	bash svcbench/run.sh --workload admit --seed 1 --seconds 5 --trace 0

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Hot-path benchmarks with allocation counts, summarized as JSON at the
# repo root (BENCH_11.json) and gated against the committed BENCH_10.json:
# the run fails if AfterFunc+Stop slows down more than 10% or the
# allocation-free hot path starts allocating. BENCH_11 reruns the
# reset-heavy race (BenchmarkResetHeavy, reset ratio 50/80/95%) with
# every wheel resetting in place, as gsq already did in BENCH_10. Both
# files were taken at GOMAXPROCS=1, whose benchmark names carry no -N
# suffix; benchjson matches names verbatim, so on a multi-core box run
# `GOMAXPROCS=1 make bench` for the gate to compare anything. Set
# BENCH_BASELINE to a saved `go test -bench` output file to embed
# different before/after numbers; BENCH_COUNT repeats each benchmark.
# `make benchall` is the old kitchen-sink run.
BENCH_BASELINE ?=
BENCH_COUNT ?= 1
bench:
	$(GO) run ./cmd/benchjson -count=$(BENCH_COUNT) \
		$(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) \
		-compare BENCH_10.json -o BENCH_11.json

benchall:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every figure/table from the paper (e1..e16).
experiments:
	$(GO) run ./cmd/twbench | tee results_twbench.txt

# Short fuzz bursts over the conformance and batched-ingress targets.
fuzz:
	$(GO) test -run=xxx -fuzz=FuzzScheme6Conformance -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzScheme7Conformance -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzHybridConformance -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzModelMixedOps -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzModelResetStorm -fuzztime=30s ./internal/schemetest/
	$(GO) test -run=xxx -fuzz=FuzzBatchIngress -fuzztime=30s ./timer/

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -rf internal/schemetest/testdata
