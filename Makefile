# Convenience targets for the tracepre reproduction.

GO ?= go

.PHONY: all build examples fmt-check vet lint test race bench bench-smoke tools-smoke experiments fuzz ci clean

all: build vet test

# What CI runs (.github/workflows/ci.yml): the tier-1 gate plus a
# race-detector pass over the short suite, the lint job, and vet plus
# tests of the perfbench module, which compiles against the harness,
# pipeline, sample and trace APIs.
ci: build lint test
	$(GO) test -race -short ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...
	$(GO) build ./examples/...

examples:
	$(GO) build ./examples/...

# Fail when any file drifts from gofmt — mirrored by the CI lint job.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Lint: gofmt gate and vet always; staticcheck when installed (CI
# installs it — see the lint job in .github/workflows/ci.yml).
lint: fmt-check vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the hot-path microbenchmarks: not a measurement, a
# CI canary that the benchmarks build and run (see BENCH_precon.json,
# BENCH_interning.json and BENCH_broadcast.json for how to take real
# numbers). The stream-layer benchmarks run once too: recording and
# functional emulation of one stream, timed by nobody. The steady-state
# allocation contracts run here — the trace store's intern/release
# round, the chunked replay loop, the chunk-buffer free list, one
# backend dispatch (zero allocations; the dispatch microbenchmark runs
# once beside it) and Optimize's fixed count per trace — plus the
# recorder's gates (Record's streams byte-equal to the Dyn-at-a-time
# record oracle on every benchmark and on hand-built edge cases, and
# the FuzzRecord seed corpus) and the group driver's correctness gates:
# decode-once counting, the decode-work bound of a seeking sampled
# group (counted instructions, never wall time), full-Result
# equivalence of every group member against the same cell run as a
# group of one, stream-cache accounting untouched by decoded chunks,
# and sampled groups equal to the seek-free linear driver.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Observe|RegionChurn|U32Set|LineSet|AddrIndex' \
		-benchtime 1x -benchmem ./internal/precon/
	$(GO) test -run '^$$' -bench 'InternHit|InternChurn|Clone' \
		-benchtime 1x -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench 'Figure5Broadcast' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'Figure5Sampled' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'StreamRecord|StreamEmulate' -benchtime 1x -benchmem .
	$(GO) test -run 'TestRecord|FuzzRecord' -count 1 ./internal/emulator/
	$(GO) test -run 'TestOptimizeAllocs' -count 1 ./internal/preproc/
	$(GO) test -run TestInternSteadyStateAllocs -count 1 ./internal/trace/
	$(GO) test -run 'TestChunkLoopSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestDispatchSteadyStateAllocs' -bench 'BenchmarkDispatch$$' \
		-benchtime 1x -benchmem -count 1 ./internal/pipeline/
	$(GO) test -run 'TestChunkBufPoolSteadyState' -count 1 ./internal/emulator/
	$(GO) test -run 'TestBroadcast' -count 1 ./internal/harness/
	$(GO) test -run 'TestFastForwardSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestSampledCoversFullRunCI' -count 1 ./internal/core/
	$(GO) test -run 'TestSampled' -count 1 ./internal/harness/ ./internal/sample/

# Run the command-line tools and the anatomy example end to end on
# small budgets: each must exit 0 and print something. `make examples`
# only builds them.
tools-smoke:
	@set -e; for cmd in \
		"./cmd/tracesim -bench gcc -tc 256 -pb 256 -n 2000000 -timeline 100000" \
		"./cmd/traces -bench gcc -n 1000000" \
		"./cmd/workload -bench gcc -n 1000000" \
		"./examples/precon-anatomy"; do \
		out=$$($(GO) run $$cmd) || { echo "tools-smoke: $$cmd failed"; exit 1; }; \
		[ -n "$$out" ] || { echo "tools-smoke: $$cmd printed nothing"; exit 1; }; \
		echo "ok  $$cmd ($$(printf '%s\n' "$$out" | wc -l) lines)"; \
	done

# Regenerate every paper table/figure plus the extension studies at the
# full default budget (writes to stdout; takes a few minutes).
experiments: build
	$(GO) run ./cmd/tablegen -exp all

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/isa/
	$(GO) test -fuzz FuzzAssemble -fuzztime 30s ./internal/asm/
	$(GO) test -fuzz FuzzChunkSegmenter -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzStreamDecode -fuzztime 30s ./internal/emulator/
	$(GO) test -fuzz FuzzRecord -fuzztime 30s ./internal/emulator/
	$(GO) test -fuzz FuzzDispatch -fuzztime 30s ./internal/pipeline/

clean:
	$(GO) clean ./...
