# tsperr build/verify targets.
#
# `make check` is the tier-2 verification gate: vet, the project linters
# (tsperrlint source passes + the netlist structural lint), the full-budget
# Monte Carlo oracles, the full test suite under the race detector (the
# resilience tests exercise the scenario worker pool concurrently), and vet
# plus tests of the nested bench/ module, which the root `go test ./...`
# never compiles.

GO ?= go

.PHONY: all build test lint check oracle fuzz cover smoke bench pprof pprof-miss pprof-setup clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# `make lint` runs the project-specific static analysis (DESIGN.md §9/§14):
# the tsperrlint pass suite over every package including test files, and the
# structural lint over every generated pipeline netlist. A finding cannot be
# suppressed.
lint:
	$(GO) run ./cmd/tsperrlint -tests ./...
	$(GO) run ./cmd/tsperrlint -netlist

check: lint fuzz oracle
	$(GO) vet ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# `make oracle` runs the standing Monte Carlo oracles at their full budget:
# the Section 5 simulation check and the Equation (14) sampling check over
# all 12 benchmarks (`go test` runs them on a tenth of the budget).
oracle:
	$(GO) test -count=1 -run 'Oracle' ./internal/harness -args -oracle.full

# `make fuzz` runs the native fuzz targets briefly: long enough to catch a
# canonical-hashing regression or a decoder that trusts untrusted bytes (a
# request body, a model-cache snapshot, a VCD activity trace), short enough for the pre-commit gate. The seed
# corpora always run as part of `make test` regardless.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRequestHash -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzParseRequest -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime $(FUZZTIME) ./internal/modelcache/
	$(GO) test -run '^$$' -fuzz FuzzReadVCD -fuzztime $(FUZZTIME) ./internal/activity/

# `make cover` is the coverage ratchet: total statement coverage must stay
# at or above COVER_MIN. Raise the floor when coverage grows; never lower it
# to admit a regression. (Measured 78.9% when the ratchet was introduced.)
COVER_MIN ?= 75.0

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { sub(/%/, "", $$3); \
		   if ($$3 + 0 < min) { printf "FAIL: coverage %.1f%% below ratchet %.1f%%\n", $$3, min; exit 1 } \
		   printf "coverage %.1f%% (ratchet %.1f%%)\n", $$3, min }'

# `make smoke` runs the four tsperrd end-to-end smokes, each driving
# re-executed daemons on kernel-chosen ports: the daemon (warm-up, one
# estimate, a 16-request dedup burst), the operating-point search (a 2x2
# voltage/temperature grid whose warm re-run is served from the cache), the
# surrogate tier (untrained escalations, background training, shadow
# residuals, the response tier field) and the cluster (a -peers coordinator
# routing a Monte Carlo request to one of two plain daemons, which is
# SIGKILLed mid-request; the local fallback matches a single-node run byte
# for byte), each ending in a SIGTERM drain. `go test ./...` runs them too,
# except under -short.
smoke:
	$(GO) test -count=1 -run '^TestSmoke(Daemon|Oppoint|Surrogate|Cluster)$$' ./cmd/tsperrd

# `make bench` records the full benchmark suite as go-test JSON events in
# BENCH_<date>.json (benchstat-friendly after extracting the output lines:
#   jq -r 'select(.Action=="output").Output' BENCH_<date>.json | benchstat -).
BENCH_OUT := BENCH_$(shell date +%Y-%m-%d).json

bench:
	$(GO) test -run '^$$' -bench . -benchmem -json . | tee $(BENCH_OUT)

# `make pprof` captures CPU and allocation profiles of the warm end-to-end
# stringsearch estimate (BenchmarkEndToEndWarm drives the simulate -> activity
# -> DTA hot path). Inspect with:
#   go tool pprof -top cpu.prof
#   go tool pprof -top -sample_index=alloc_objects mem.prof
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkEndToEndWarm$$' -benchtime 1000x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof / mem.prof; try: $(GO) tool pprof -top cpu.prof"

# `make pprof-miss` captures CPU and allocation profiles of the estimate-miss
# mix in process (BenchmarkLayer/estimate-miss-mix: the nine high-count
# programs at 1-32 scenarios, two passes over all 288 keys), the daemon's
# cache-miss path without the HTTP layer. Inspect with:
#   go tool pprof -top miss-cpu.prof
#   go tool pprof -top -sample_index=alloc_space miss-mem.prof
pprof-miss:
	$(GO) test -run '^$$' -bench 'BenchmarkLayer/estimate-miss-mix$$' -benchtime 576x \
		-cpuprofile miss-cpu.prof -memprofile miss-mem.prof .
	@echo "wrote miss-cpu.prof / miss-mem.prof; try: $(GO) tool pprof -top miss-cpu.prof"

# `make pprof-setup` profiles a fresh daemon's set-up in process
# (BenchmarkLayer/setup-cold: an uncached framework build — netlist
# generation, SSTA calibration, datapath training — plus the cold control
# characterization of the nine estimate-miss programs), the cost every cold
# tsperr run, fresh tsperrd and new /v1/oppoint condition pays. Inspect with:
#   go tool pprof -top -cum setup-cpu.prof
pprof-setup:
	$(GO) test -run '^$$' -bench 'BenchmarkLayer/setup-cold$$' -benchtime 10x \
		-cpuprofile setup-cpu.prof -memprofile setup-mem.prof .
	@echo "wrote setup-cpu.prof / setup-mem.prof; try: $(GO) tool pprof -top -cum setup-cpu.prof"

clean:
	$(GO) clean ./...
