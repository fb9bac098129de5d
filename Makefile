# Standard developer entry points. Everything is plain `go` underneath;
# this file only spells out the common invocations.

GO ?= go

.PHONY: all build vet test race check chaos soak lint bench-paper bench-full fuzz experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/wire/... ./internal/session/... ./internal/fleet/... ./internal/store/... ./internal/health/... ./cmd/badabingd/... .

# Fast pre-push gate: static checks plus the race-sensitive packages.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -short ./internal/fleet/... ./internal/session/... ./internal/wire/... ./internal/runner/... ./internal/store/... ./internal/health/... ./cmd/badabingd/...

# Fault-injection matrix under the race detector: every impairment class
# (drop, duplicate, reorder, delay, truncate, corrupt, bursts) against a
# live session, the batch-vs-fallback estimate parity row, plus the
# dead-reflector abort, fleet retry and daemon drain paths. The
# killed-reflector row (an outage must never read as loss) runs 20 times:
# a boundary race there shows up as a rare flake, not a steady failure.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/... \
		-run 'TestImpaired|TestBatchFallbackParity|TestHung|TestHandshake|TestFlaky'
	$(GO) test -race -count=20 ./internal/chaos/ -run 'TestKilledReflectorAbortsPartial'
	$(GO) test -race -count=1 ./internal/session/wiretransport/... ./cmd/badabingd/...
	$(GO) test -race -count=1 ./internal/fleet/ -run 'TestWireSession|TestCreateAPIHardening|TestRetry'

# Supervised self-healing soak: N live wire sessions while the harness
# kills the archive disk (FaultySink windows) and bounces reflectors
# mid-run, under the race detector. Asserts the full recovery story:
# breaker trips, health walks ok→degraded→ok, every spilled event
# replays, no goroutine/fd leak. `-short` runs a reduced matrix in CI.
soak:
	$(GO) test -race -count=1 -v ./internal/chaos/ -run TestSoakSelfHealing
	$(GO) test -race -count=1 ./internal/fleet/ -run 'TestBreaker|TestKillTheDisk|TestAdmission|TestReadyz|TestRetryAfter'

# Static analysis beyond vet: every Go file gofmt-clean, then the
# external analyzers, optional locally (skipped with a note when not
# installed); CI installs both.
lint: vet metrics-hygiene
	@bad=$$(gofmt -l .); if [ -n "$$bad" ]; then echo "gofmt: unformatted files:"; echo "$$bad"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping"; fi

# internal/obs is the only producer of Prometheus exposition text: a
# hand-rolled `fmt.Fprintf(w, "# HELP ...")` writer anywhere else
# bypasses the registry (unsorted families, duplicate names, no
# conformance coverage). Test files may hold the literals (they parse
# and assert on them).
metrics-hygiene:
	@bad=$$(grep -rln --include='*.go' --exclude='*_test.go' -e '# HELP' -e '# TYPE' . | grep -v '^\./internal/obs/' || true); \
	if [ -n "$$bad" ]; then \
		echo "metrics-hygiene: exposition text written outside internal/obs:"; \
		echo "$$bad"; exit 1; \
	fi
.PHONY: metrics-hygiene

# Shortened-horizon paper benchmarks: one per table/figure plus ablations.
bench-paper:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Paper-scale benchmarks (same horizons as the paper's 900 s runs).
bench-full:
	BADABING_BENCH_HORIZON=900s $(GO) test -bench=. -benchmem -timeout 4h -run '^$$' .

fuzz:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzHeaderUnmarshal -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzControlQuery -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzControlReply -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzZingHeaderUnmarshal -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzLiveness -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzCollectorPacket -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzZingCollector -fuzztime 30s
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzWALDecode -fuzztime 30s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzTraceAnalyze -fuzztime 30s

# Reproduce every paper table and figure at full scale: 103 cells, 1 min
# 32–42 s wall on a 2-vCPU Intel Xeon host (2 workers, 3 min 0–20 s of work).
experiments:
	$(GO) run ./cmd/labsim -experiment all -horizon 900s

clean:
	$(GO) clean ./...
