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
# in the user-facing docs (see cmd/doccheck -flags).
doccheck:
	$(GO) run ./cmd/doccheck ./internal/sim ./internal/port ./internal/sweepd ./internal/rtlc ./internal/prof
	$(GO) run ./cmd/doccheck -flags README.md,EXPERIMENTS.md,PERFORMANCE.md \
		./cmd/gem5rtl ./cmd/nvdla-dse ./cmd/rtlsim ./cmd/pmurun ./cmd/kernelbench \
		./cmd/sweepd ./cmd/sweepctl ./cmd/faultcamp ./cmd/overhead
