# cacheeval — build/test/reproduce targets.

GO ?= go

.PHONY: all ci build vet fmt-check lint staticcheck govulncheck test test-short test-race bench bench-smoke bench-pairs fuzz cover repro serve obs-smoke examples fmt clean

# `all` is `ci` plus the full (non-short) test suite; vet/gofmt run once via
# the ci target rather than being listed twice.
all: ci test

# ci mirrors .github/workflows/ci.yml locally: build, vet, gofmt check,
# short tests, and short tests under the race detector.
ci: build vet fmt-check test-short test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond go vet. Both tools run via `go run tool@version`,
# so they are fetched on demand and never become module dependencies; the
# pinned versions keep CI reproducible. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4
lint: staticcheck govulncheck

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# One benchmark per paper artifact plus the microbenchmarks (reduced scale).
bench:
	$(GO) test -bench=. -benchmem ./...

# Smoke-run every benchmark once so the bench targets cannot silently rot;
# mirrors the CI bench job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Interleaved end-to-end benchmark pairs (bench/, BENCHMARK.json): the
# PARENT revision against the working tree on one WORKLOAD, PAIRS runs per
# side with a WINDOW-second window (default 25), then the `bench/run.sh
# compare` table. The parent runs from a temporary `git clone --shared`
# of the repository, so the pairs write nothing under .git. See
# scripts/benchpairs.sh.
# BENCH_2..7.json are kept as history.
PARENT ?= HEAD
WORKLOAD ?= grid-stack
PAIRS ?= 5
WINDOW ?= 25
bench-pairs:
	bash scripts/benchpairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) 1 $(WINDOW)

# Fuzz smoke: run every Fuzz* target in the packages that define them for
# FUZZTIME each (native go fuzzing; seeds always run under plain `go test`).
FUZZTIME ?= 30s
FUZZPKGS = ./internal/trace ./internal/cache ./internal/server ./internal/simcheck ./internal/workload
fuzz:
	@set -e; for pkg in $(FUZZPKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "=== fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Coverage profile over the short suite (the conformance harness drives the
# simulators hard enough that short mode is representative). The hierarchy
# engine source added for the two-level/victim work carries a hard statement
# floor: it is the newest simulator surface, and the oracle lockstep suite is
# supposed to keep it hot — falling below the floor means the conformance
# grids stopped reaching code they were written to pin.
COVERFLOOR ?= 85
COVERFLOORFILE = internal/cache/hierarchy.go
cover:
	$(GO) test -short -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1
	@awk -v floor=$(COVERFLOOR) -v file=$(COVERFLOORFILE) 'index($$1, file ":") { total += $$2; if ($$3 > 0) covered += $$2 } END { if (total == 0) { print "cover: no statements matched " file; exit 1 } pct = 100 * covered / total; printf "cover floor: %s %.1f%% of statements (floor %d%%)\n", file, pct, floor; if (pct < floor) { print "cover: hierarchy coverage below floor"; exit 1 } }' cover.out

# Regenerate every table and figure at the paper's run lengths (~1 min).
repro:
	$(GO) run ./cmd/paperrepro

# Run the evaluation service on :8080.
serve:
	$(GO) run ./cmd/cacheserved

# End-to-end observability smoke: start cacheserved on an ephemeral port,
# hit /healthz and both /metrics formats, run one simulation, and verify
# the Prometheus families, histogram buckets and JSON access log.
obs-smoke:
	sh scripts/obs_smoke.sh

# Run all example programs.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/designspace
	$(GO) run ./examples/multiprog
	$(GO) run ./examples/prefetch
	$(GO) run ./examples/workloadchoice

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
