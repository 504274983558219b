GO ?= go

# Pin the linter so local runs and CI agree on the finding set.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK ?= staticcheck

.PHONY: build test race vet lint check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint runs staticcheck at the pinned version. Install it once with:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
lint:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "lint: staticcheck not found; install with:" >&2; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; \
		exit 1; }
	$(STATICCHECK) ./...

# check is the full pre-merge gate: build, vet, lint, the test suite
# under the race detector (instrumentation runs concurrently with the
# debug HTTP endpoints, so -race is part of the bar), then every
# experiment's smoke gate.
check: scripts/check.sh
	./scripts/check.sh

# bench runs every experiment at smoke scale; it exits nonzero if any
# gate fails or any gated experiment does not replay byte-identically
# on the same seed (see EXPERIMENTS.md for each gate).
bench:
	$(GO) run ./cmd/vmbench -series smoke
