# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet fmt-check test race alloc-check cover bench benchmark-smoke figures-golden audit-smoke faults-smoke sinkd-smoke figures examples fuzz clean

all: build test

# check is the pre-commit gate: formatting, go vet, the race detector and
# the allocation budgets in one go. The race run IS the test suite (same
# tests, more checking): every package that starts goroutines ends it with
# the goroutine-leak gate (internal/leaktest), and the lock witnesses fail
# within seconds if a lock is held across blocking work. A plain `go test`
# pass would only repeat it without the detector; the budgets skip
# themselves under -race, so alloc-check runs them once more without it.
# The invariants these tests witness are listed in docs/INVARIANTS.md.
check: fmt-check vet race alloc-check

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l cmd internal examples benchmark bench_test.go); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-check is the one allocation gate: the TestAllocBudget* tests hold
# every steady-state branch of the per-epoch path to its committed count
# (zero almost everywhere) and, where a metrics registry is attached, to
# zero handle lookups (see docs/INVARIANTS.md). Run without -race: the
# budget tests skip themselves under race instrumentation, whose shadow
# allocations would drown the counts.
alloc-check:
	$(GO) test -run TestAllocBudget ./...

cover:
	$(GO) test -cover ./internal/...

bench:
	$(GO) test -bench=. -benchmem ./...

# benchmark-smoke runs the repository benchmark (BENCHMARK.json,
# benchmark/README.md) at 1/20 size in under 15 s with every correctness
# check on: the figure-output hash, ε at every audited epoch and ingest
# tenants bit-identical to their reference replicas. It reads /proc, so
# Linux only. Timings at this size mean nothing; `go run ./benchmark -seed 1`
# is the measurement.
benchmark-smoke:
	$(GO) run ./benchmark -smoke

# figures-golden runs the benchmark's figures workload at full size
# (kenbench -all -test 5000 -parallel 2, about 18 s on a 2-core host) and
# fails unless its result line reads "correct":true, i.e. the figure output
# still hashes to benchmark/golden/figures-seed1.sha256. The command itself
# exits 0 on a hash mismatch, hence the check of its result line.
figures-golden:
	@out=$$($(GO) run ./benchmark -workload figures) || exit 1; \
	echo "$$out"; \
	case "$$out" in *'"correct":true'*) ;; \
	*) echo "figures-golden: FAIL (figure output differs from benchmark/golden/figures-seed1.sha256)"; exit 1;; esac

# sinkd-smoke proves the multi-tenant daemon end to end with real
# processes: kensinkd pinned to one deployment, three concurrent kensource
# tenants streaming through the session handshake, the /v1/query answers
# verified bit-identical to local reference replicas by kenswarm (which
# also requires each tenant's /v1/slo total_frames to equal the frames it
# sent — the SLO window counts every applied frame exactly once), a
# mismatched-spec client rejected with the typed "spec rejected" error,
# and the live SLO monitor probed both ways — /v1/health healthy via
# `kentop -once -fail-degraded` after the clean run, then degraded on a
# second daemon whose injected apply delay (-apply-delay) sheds a bursty
# tenant, flipping /v1/health to 503/"shedding" end to end.
sinkd-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"; kill $$daemon $$daemon2 2>/dev/null' EXIT && \
	$(GO) build -o "$$tmp/kensinkd" ./cmd/kensinkd && \
	$(GO) build -o "$$tmp/kenswarm" ./cmd/kenswarm && \
	$(GO) build -o "$$tmp/kensource" ./cmd/kensource && \
	$(GO) build -o "$$tmp/kentop" ./cmd/kentop && \
	{ "$$tmp/kensinkd" -pin -seed 1 -listen 127.0.0.1:7171 -http 127.0.0.1:7172 >"$$tmp/daemon.log" 2>&1 & } && daemon=$$! && \
	"$$tmp/kenswarm" -connect 127.0.0.1:7171 -http http://127.0.0.1:7172 \
		-seed 1 -tenants 3 -specs 1 -steps 150 -verify && \
	if "$$tmp/kensource" -connect 127.0.0.1:7171 -tenant intruder -seed 99 -steps 10 2>"$$tmp/rej.log"; then \
		echo "sinkd-smoke: FAIL (pinned daemon accepted a mismatched spec)"; exit 1; fi && \
	grep -q "spec rejected" "$$tmp/rej.log" && \
	"$$tmp/kentop" -http http://127.0.0.1:7172 -once -fail-degraded >"$$tmp/top.log" && \
	grep -q "status: ok" "$$tmp/top.log" && \
	{ "$$tmp/kensinkd" -listen 127.0.0.1:7173 -http 127.0.0.1:7174 \
		-frame-budget 2 -apply-delay 200ms >"$$tmp/daemon2.log" 2>&1 & } && daemon2=$$! && \
	sleep 1 && \
	{ "$$tmp/kensource" -connect 127.0.0.1:7173 -tenant bursty -seed 1 -steps 40 2>"$$tmp/shed.log" || true; } && \
	shed=""; for i in $$(seq 1 20); do \
		if "$$tmp/kentop" -http http://127.0.0.1:7174 -once | grep -q "shedding"; then shed=yes; break; fi; \
		sleep 0.5; \
	done; test -n "$$shed" || { echo "sinkd-smoke: FAIL (tenant never shed)"; cat "$$tmp/daemon2.log"; exit 1; } && \
	if "$$tmp/kentop" -http http://127.0.0.1:7174 -once -fail-degraded >"$$tmp/top2.log"; then \
		echo "sinkd-smoke: FAIL (kentop did not flag the degraded daemon)"; exit 1; fi && \
	grep -q "status: degraded" "$$tmp/top2.log" && \
	echo "sinkd-smoke: PASS (3 tenants verified bit-identical; mismatched spec rejected; health ok->degraded probed via kentop)"

# audit-smoke proves the protocol invariants on real traces: a kensim lab
# comparison, the clean packet-level simulator (kennet's ken, avg and tinydb
# programs with nothing lost — faults-smoke only audits it at 20% loss) and
# the quick benchmark suite at pool widths 1 and 8 — the kensim and
# kenbench traces carry the per-clique report, suppress and apply events of
# both loop schemes, Ken and Avg — each
# replayed through kenaudit -strict (ε bound, no silent divergence, byte
# accounting). The two kenbench audit reports must be byte-identical —
# parallel scheduling may reorder trace lines but never the audited facts.
# One kensim run written both as a flat file and as a segmented store must
# give cmp-equal kenaudit -json reports, whole and under an -epochs window
# (the store's index seek reads the same events a flat scan filters), and
# the store directory must hold nothing but seg-*.jsonl.
# The last leg exercises the tamper evidence of the segmented store: the
# same kensim run written as a hash-chained store must pass
# kenaudit -verify-chain, and must fail it (exit 1) after a single flipped
# byte. See docs/OBSERVABILITY.md.
audit-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/kensim -dataset lab -scheme all -parallel 4 -test 300 -trace-out "$$tmp/kensim.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/kensim.jsonl" -strict -q && \
	$(GO) run ./cmd/kennet -program ken -steps 200 -trace-out "$$tmp/net-ken.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/net-ken.jsonl" -strict -q && \
	$(GO) run ./cmd/kennet -program avg -steps 200 -trace-out "$$tmp/net-avg.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/net-avg.jsonl" -strict -q && \
	$(GO) run ./cmd/kennet -program tinydb -steps 200 -trace-out "$$tmp/net-tinydb.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/net-tinydb.jsonl" -strict -q && \
	$(GO) run ./cmd/kenbench -all -quick -parallel 1 -trace-out "$$tmp/seq.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenbench -all -quick -parallel 8 -trace-out "$$tmp/par.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/seq.jsonl" -strict -q -json "$$tmp/seq.json" && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/par.jsonl" -strict -q -json "$$tmp/par.json" && \
	cmp "$$tmp/seq.json" "$$tmp/par.json" && \
	$(GO) run ./cmd/kensim -dataset lab -scheme all -parallel 1 -test 300 -trace-out "$$tmp/one.jsonl" >/dev/null && \
	$(GO) run ./cmd/kensim -dataset lab -scheme all -parallel 1 -test 300 -trace-out "$$tmp/one/" -trace-segment-events 5000 >/dev/null && \
	if ls "$$tmp/one" | grep -qv '^seg-[0-9]*\.jsonl$$'; then \
		echo "audit-smoke: FAIL (store holds files other than seg-*.jsonl)"; ls "$$tmp/one"; exit 1; fi && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/one.jsonl" -strict -q -json "$$tmp/one-flat.json" && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/one" -strict -q -json "$$tmp/one-store.json" && \
	cmp "$$tmp/one-flat.json" "$$tmp/one-store.json" && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/one.jsonl" -epochs 100:200 -q -json "$$tmp/win-flat.json" && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/one" -epochs 100:200 -q -json "$$tmp/win-store.json" && \
	cmp "$$tmp/win-flat.json" "$$tmp/win-store.json" && \
	$(GO) run ./cmd/kensim -dataset lab -scheme djc -parallel 1 -test 200 -trace-out "$$tmp/store/" -trace-segment-events 500 >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/store" -verify-chain -strict -q 2>/dev/null && \
	printf 'X' | dd of="$$tmp/store/seg-00000000.jsonl" bs=1 seek=100 count=1 conv=notrunc 2>/dev/null && \
	if $(GO) run ./cmd/kenaudit -trace "$$tmp/store" -verify-chain -q 2>/dev/null; then \
		echo "audit-smoke: FAIL (verify-chain accepted a corrupted store)"; exit 1; fi && \
	echo "audit-smoke: PASS (traces audit clean; parallel == sequential; flat == store, whole and windowed; corruption detected)"

# faults-smoke proves the reliability layer under fire: the §6 lossy
# protocol (kensim, 20% report loss with heartbeats), the full packet
# simulator (kennet, 20% per-hop loss with ARQ, heartbeats and base-side
# failure detection) and its avg and tinydb programs at 20% loss — all three
# programs close their epochs through the same ledger — each trace replayed
# through kenaudit -strict: the auditor must excuse every ε miss by a
# traced, unrepaired drop and agree with both byte ledgers and the
# retransmission counts.
faults-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/kensim -dataset garden -scheme djc -test 400 -loss 0.2 -heartbeat 10 -trace-out "$$tmp/lossy.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/lossy.jsonl" -strict -q && \
	$(GO) run ./cmd/kennet -program ken -steps 200 -loss 0.2 -arq-retries 3 -heartbeat 10 -failure-alpha 0.01 -trace-out "$$tmp/arq.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/arq.jsonl" -strict -q && \
	$(GO) run ./cmd/kennet -program avg -steps 200 -loss 0.2 -trace-out "$$tmp/avg.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/avg.jsonl" -strict -q && \
	$(GO) run ./cmd/kennet -program tinydb -steps 200 -loss 0.2 -trace-out "$$tmp/tinydb.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/tinydb.jsonl" -strict -q && \
	echo "faults-smoke: PASS (lossy, ARQ, avg and tinydb traces audit clean at 20% loss)"

# Regenerate every figure of the paper plus the extension/sweep tables.
figures:
	$(GO) run ./cmd/kenbench -all -test 5000
	$(GO) run ./cmd/kenbench -fig 15 -test 900
	$(GO) run ./cmd/kenbench -fig 16 -test 1500

# examples runs all eight examples and holds each one's stdout to its
# golden, examples/testdata/<name>.golden. Every example prints the same
# bytes run to run but for the ephemeral port the streaming example's sink
# listens on, which is masked as 127.0.0.1:PORT before the comparison.
EXAMPLES = quickstart redwood anomaly lossy lifetime streaming pullquery analysis

examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e >"$$tmp/$$e.out" || exit 1; \
		sed -E 's/127\.0\.0\.1:[0-9]+/127.0.0.1:PORT/g' "$$tmp/$$e.out" | diff -u examples/testdata/$$e.golden - || \
			{ echo "examples: FAIL ($$e stdout differs from examples/testdata/$$e.golden)"; exit 1; }; \
	done && echo "examples: PASS (all eight match their stdout goldens)"

fuzz:
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSession$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSpec$$' -fuzztime 30s ./internal/deploy/
	$(GO) test -fuzz FuzzReadCSVMatrix -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz 'FuzzLinearGaussianSchedule$$' -fuzztime 30s ./internal/model/
	$(GO) test -fuzz 'FuzzCovKernels$$' -fuzztime 30s ./internal/gauss/
	$(GO) test -fuzz 'FuzzKen$$' -fuzztime 30s ./internal/oracle/
	$(GO) test -fuzz 'FuzzGreedy$$' -fuzztime 30s ./internal/cliques/

# clean removes the test cache and exactly what .gitignore lists: root
# binaries from a bare `go build ./cmd/<name>`, and the benchmark's outputs.
clean:
	$(GO) clean -testcache
	rm -rf ken* benchmark/out .bench_build
