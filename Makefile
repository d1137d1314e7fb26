# Development entry points. Everything is plain go tooling; the Makefile
# just pins the invocations CI and reviewers should use.

GO ?= go

.PHONY: all build test vet lint analyze race fuzz bench bench-all bench-diff budget check fmt fmtcheck

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The subtraction ratchet on its own (it also runs as part of test): recounts
# orb + transport lines, Options fields, Stats structs, time.Now sites and
# test sleeps from source and fails when one rises above the BUDGET file.
budget:
	$(GO) test -run '^TestBudget$$' .

vet:
	$(GO) vet ./...

# idlvet: semantic checks over the shipped IDL specs plus a lint of every
# registered mapping's templates.
lint:
	$(GO) run ./cmd/idlvet -templates ./idl/...

# orbvet: the runtime-side counterpart of lint — ~6 analyzers over the
# repo's own Go source that mechanize the lease/pool/lock/classification
# invariants DESIGN §13 describes. -strict so warnings fail CI too;
# deliberate exceptions are silenced in source with //orbvet:ignore.
analyze:
	$(GO) run ./cmd/orbvet -strict ./...

# Race-detect the runtime packages the fault-tolerance layer touches,
# including the replica kill+drain torture test (TestReplicaTortureKillDrain),
# the balance policies, wire's refcounted body leases and lock-free intern
# table, naming, the event fan-out broker (slow-subscriber torture included),
# and the generated bindings' decode-lifetime test (values must outlive the
# recycled lease they were decoded from).
race:
	$(GO) test -race ./internal/orb/... ./internal/transport/... ./internal/balance/... ./internal/wire/... ./internal/naming/... ./internal/events/... ./internal/gen/...

# Brief fuzz pass over the reference parsers (single, replica-set and
# channel) + wire framings, plus the lease lifecycle (FuzzFreeMessage:
# random Retain/Free/ReleaseBody interleavings must never alias a live
# buffer), the keepalive ping/pong frames in both codecs, and the generated
# marshalers: arbitrary bodies through the sequence decode of stubs and
# skeletons (FuzzSeqDecode: no panic, no allocation the body does not back)
# and random values through text and CDR, which must agree with the input and
# each other (FuzzMarshalDifferential).
fuzz:
	$(GO) test -fuzz 'FuzzParseRef$$' -fuzztime 30s ./internal/orb/
	$(GO) test -fuzz 'FuzzParseRefSet$$' -fuzztime 30s ./internal/orb/
	$(GO) test -fuzz 'FuzzParseChannelRef$$' -fuzztime 30s ./internal/orb/
	$(GO) test -fuzz 'FuzzFreeMessage$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzKeepaliveFrame$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzSeqDecode$$' -fuzztime 30s ./internal/gen/
	$(GO) test -fuzz 'FuzzMarshalDifferential$$' -fuzztime 30s ./internal/gen/

# The paper-claim and extension benchmarks (C-series, Fig4, multiplexing,
# robustness, collocation, event fan-out, hedged tail), captured as diffable
# JSON. EventFanoutSlowSub is deliberately left out: the p99 of a
# wedged-consumer topology is noisy by construction (run it by hand via
# bench-all). HedgedTail is recorded here but kept out of the bench-diff
# gate below: it is sleep-driven (the stalls are the workload), so its
# wall-clock numbers drift with host timer granularity, not with code cost. Commit
# BENCH_results.json when the numbers move for a reason. Three passes with
# the fastest sample kept (benchjson -min) — the same estimator bench-diff
# uses, so the committed baseline and the regression gate never disagree
# about what a benchmark "costs": interference only ever slows a run down,
# and spacing a name's samples a full pass apart keeps one slow host phase
# from capturing all of them.
bench:
	( for i in 1 2 3; do \
		$(GO) test -run xxx -bench 'C[0-9]|Fig4|Multiplex|Robustness|Overload|Replica|Collocat|EventFanout$$|HedgedTail$$' -benchmem . || exit 1; \
	done ) | tee /dev/stderr | $(GO) run ./internal/tools/benchjson -min > BENCH_results.json

# Every benchmark in every package, human-readable.
bench-all:
	$(GO) test -bench . -benchmem ./...

# Perf regression gate: re-run the invocation-path macrobenchmarks and fail
# on ns/op regressions against the committed baseline — and on any gated name
# allocating more per operation than its baseline, a count that needs no
# calibration (see benchjson's doc comment). The gate compares only
# the stable C-series names (-only). The suite runs as three separate passes
# and the fastest sample of each benchmark is kept (-min): interference only
# ever slows a run down, so min-of-3 tracks real cost — and because slow host
# phases last whole seconds, the three samples of one name are spaced a full
# pass apart (~30s) rather than back-to-back, so one phase cannot capture all
# of them. On shared or virtualized hardware the whole machine also drifts —
# measured 2× between quiet and busy host phases, which no absolute threshold
# survives — so the comparison is calibrated: the plain-round-trip
# reference's old/new ratio divides out the machine factor and the gate
# judges relative cost. The threshold is 50%: residual per-benchmark jitter
# after calibration stays well under it, while every optimization this gate
# protects is a ≥1.9× relative win (connection pooling 6×, write coalescing
# 2.6× at 32 callers, the text quoting fast path 1.9×). The committed
# baseline is recorded with the same estimator.
bench-diff:
	( for i in 1 2 3; do \
		$(GO) test -run xxx -bench 'C2_|C5_|C6_|Collocated$$|EventFanout$$' -benchtime 0.5s -benchmem . || exit 1; \
	done ) | $(GO) run ./internal/tools/benchjson -min > /tmp/bench_new.json
	$(GO) run ./internal/tools/benchjson -diff BENCH_results.json /tmp/bench_new.json \
		-threshold 50 -only 'C2_|C5_|C6_|Collocated$$|EventFanout/' -calibrate 'BenchmarkC2_Protocol/cdr/empty'

fmt:
	gofmt -l -w .

# Fails if any file is not gofmt-clean (listing the offenders).
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The tier-1 gate: what must be green before merging. race covers the
# transport/orb concurrency (coalescer included) plus wire's leases;
# lint/analyze cover the IDL layer and the runtime invariants; bench-diff
# gates perf.
check: build vet lint analyze test race fmtcheck bench-diff
