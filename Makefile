# Repo-wide checks. `make check` is the pre-commit gate: build, vet, the
# lunavet analysis suite, the full test suite (once plain, where the
# byte-identity differential matrix runs in full, and once under the race
# detector, where the parallel runner is the main customer), and a short
# benchmark smoke to catch perf-metric regressions. The repo benchmark is
# perfbench (see BENCHMARK.json and perfbench/README.md).

GO ?= go

# Pinned external-tool versions. The tools are optional locally (the
# targets skip with an install hint when the binary is absent — the repo
# must build and check with nothing beyond the Go toolchain, so there is
# no tools.go/go.sum pin); CI installs exactly these versions so the
# enforced toolchain is reproducible.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build vet lint lint-report staticcheck govulncheck test race bench-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lunavet: the repo's own analyzers (determinism, maporder, slabown,
# hotalloc, partown, fluiddet, hatchgate — see internal/lint). Zero
# non-suppressed diagnostics is a hard gate; suppressions need a justified
# //lint:allow. Also runnable as `go vet -vettool=$$(go env GOPATH)/bin/lunavet
# ./...` after `go install ./cmd/lunavet`.
lint:
	$(GO) run ./cmd/lunavet ./...

# Machine-readable lint report: the JSON findings (CI's diff annotations
# read .diagnostics[].file/.line), the SARIF 2.1.0 log for code-scanning
# upload, and the //lint:allow inventory (file, keys, justification, usage
# count — a directive at 0 is drift).
lint-report:
	$(GO) run ./cmd/lunavet -json -sarif lunavet.sarif ./... > lunavet.json
	$(GO) run ./cmd/lunavet -suppressions ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not found; skipping. Install with:"; \
		echo "  $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck not found; skipping. Install with:"; \
		echo "  $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One quick experiment benchmark, the raw event-loop benchmark, the
# 4 KiB write-path pair (zero-copy vs copy-path), the cluster 4 KiB writes
# over the RDMA back network (RDMA and Solar front ends; 2000 I/Os each so
# allocs/op is the steady state), the CDF lookup benchmark guarding the
# sort.Search fix, and the hardware CRC-32C rate (10000 blocks, past the
# lazy table set-up): enough to verify the events/sec, sim-µs/wall-ms,
# copies/op and allocs/op metrics still report.
bench-smoke:
	$(GO) test -run xxx -bench 'Fig6|SimulatorEventRate|WritePath4K' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'RDMAWrite4K|SolarWrite4K' -benchtime 2000x -benchmem .
	$(GO) test -run xxx -bench 'CDFAt' -benchtime 1x -benchmem ./internal/stats
	$(GO) test -run xxx -bench 'Checksum4K' -benchtime 10000x -benchmem ./internal/crc

check: build vet lint staticcheck govulncheck test race bench-smoke
