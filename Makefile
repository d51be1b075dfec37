# gem5rtl build/test entry points. The bench target produces the committed
# event-kernel benchmark baseline; see PERFORMANCE.md.

GO ?= go

.PHONY: all build test bench bench-check doccheck

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Refresh the committed kernel benchmark baseline (run on a quiet machine).
bench:
	$(GO) run ./cmd/kernelbench -out BENCH_kernel.json

# CI gate: run the suite and fail on >10% regression vs the committed
# baseline (allocs/op, B/op, calendar-queue and RTL compile speedups).
bench-check:
	$(GO) run ./cmd/kernelbench -baseline BENCH_kernel.json

# Enforce godoc comments on every exported symbol of the kernel packages,
# then audit that every command-line flag the binaries register is documented
# in the user-facing docs (see cmd/doccheck -flags). The audit covers every
# command directory by glob, plus the shared host-flag table the run
# binaries register from, so a new binary or a moved flag cannot escape it.
doccheck:
	$(GO) run ./cmd/doccheck ./internal/sim ./internal/port ./internal/sweepd ./internal/rtlc ./internal/prof ./internal/hostflag
	$(GO) run ./cmd/doccheck -flags README.md,EXPERIMENTS.md,PERFORMANCE.md \
		$(wildcard ./cmd/*) ./internal/hostflag
