# Convenience targets; dune does the real work. See doc/CI.md.

.PHONY: all build test quick-test lint lint-graph witness fingerprint check sim ha-check shard-check stats bench bench-smoke perfbench-smoke perfbench-det clean

all: build

build:
	dune build @all

test: build
	dune runtest

quick-test:
	ALCOTEST_QUICK_TESTS=1 dune runtest

# The static analyzer alone (also runs as part of `dune runtest`).
# `--json` output: dune exec bin/rrq_lint.exe -- --json --baseline lint.baseline lib
lint:
	dune exec bin/rrq_lint.exe -- --baseline lint.baseline lib

# Call graph and static lock-order graph as Graphviz under doc/; rendered
# to SVG when the dot tool is installed.
lint-graph:
	dune exec bin/rrq_lint.exe -- --baseline lint.baseline --dot doc lib
	@if command -v dot >/dev/null 2>&1; then \
	  dot -Tsvg doc/callgraph.dot -o doc/callgraph.svg; \
	  dot -Tsvg doc/lockorder.dot -o doc/lockorder.svg; \
	  echo "rendered doc/callgraph.svg and doc/lockorder.svg"; \
	else echo "dot not installed; wrote .dot files only"; fi

# The runtime lock-order witness alone (also runs as part of `dune
# runtest`): observed acquisition-order edges must be contained in the
# static R7 lock-order graph.
witness:
	dune exec bin/rrq_witness.exe

# The behaviour gate alone (also runs as part of `dune runtest`): every
# explored plan and crash-sweep run must reproduce its digest in
# test/fingerprint.golden.
fingerprint:
	dune build ./check.fingerprint
	diff test/fingerprint.golden _build/default/check.fingerprint

# The simulation tester alone: explored schedules + crash-site sweeps of
# the quickstart, main-memory and HA worlds, then the quickstart, HA and
# sharded worlds again with every site checkpointing after 2 log records,
# so the checkpoint crash sites (TM logs, the standby's tmship store) are
# reached and audited.
sim:
	dune exec bin/rrq_demo.exe -- check --budget 25
	dune exec bin/rrq_demo.exe -- check --sites
	dune exec bin/rrq_demo.exe -- check --scenario quickstart-mm --sites
	dune exec bin/rrq_demo.exe -- check --scenario ha --sites
	@for s in quickstart ha sharded; do \
	  dune exec bin/rrq_demo.exe -- check --scenario $$s --checkpoint-every 2 --budget 25 || exit 1; \
	  dune exec bin/rrq_demo.exe -- check --scenario $$s --checkpoint-every 2 --sites || exit 1; \
	done

# The failover campaign alone (also runs as part of `dune runtest`):
# HA explorer + lag-bug catch + replication crash-site sweep, then the
# B15 failover-latency benchmark at smoke scale.
ha-check:
	dune exec test/test_ha.exe
	dune exec test/test_check.exe -- test ha
	dune exec bench/main.exe -- --smoke --only B15

# The shard campaign alone (also runs as part of `dune runtest`):
# sharded explorer + misroute-bug catch + shard crash-site sweep, then the
# B13 scale-out benchmark at smoke scale.
shard-check:
	dune exec test/test_check.exe -- test sharded
	dune exec bin/rrq_demo.exe -- check --scenario sharded --sites
	dune exec bench/main.exe -- --smoke --only B13

# Observability smoke: a fault-free recorded run, metrics registry dump.
stats:
	dune exec bin/rrq_demo.exe -- stats

# The CI gate: build, lint, full tests, simulation-tester smoke.
check: build lint test sim

bench:
	dune exec bench/main.exe

# The perf-path smoke (also runs as part of `dune runtest`): B1 (queue op
# micro-costs incl. the main-memory fast path), B12 (immediate vs adaptive
# group commit) and B13 (sharded scale-out) at tiny iteration counts —
# exercises the measurement harness and the seal-reason counters, does not
# produce meaningful numbers.
bench-smoke:
	dune exec bench/main.exe -- --smoke --only B1 --only B12 --only B13

# The repository benchmark at smoke scale: every perfbench workload for 3 s
# with tracing on, which runs its correctness gate and its determinism and
# passivity checks. Fails unless each run reports "correct": true.
perfbench-smoke:
	@for w in local sharded_2pc ha_hot; do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 7 --seconds 3 --trace 1) || exit 1; \
	  echo "$$out" | tail -n 1 | grep -q '"correct": true' \
	    || { echo "perfbench-smoke: $$w: not correct"; exit 1; }; \
	  echo "perfbench-smoke: $$w: correct"; \
	done

# The repository benchmark's deterministic end-to-end columns: every
# workload for 1 s with tracing off on seeds 1, 2 and 7, one line each. Two
# trees that behave alike print identical lines; the host-time columns
# (setup_s, host_us_per_req) are left out because they vary run to run.
# Fails unless each run reports "correct": true.
perfbench-det:
	@for w in local sharded_2pc ha_hot; do for s in 1 2 7; do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed $$s --seconds 1 --trace 0) || exit 1; \
	  echo "$$out" | tail -n 1 | python3 -c 'import json, sys; \
	    d = json.load(sys.stdin); m = d["metrics"]; \
	    cols = ["alloc_words_per_req", "heap_peak_mb", "lat_p50_ms", "lat_p99_ms", "throughput_rps"]; \
	    print(sys.argv[1], "seed", sys.argv[2], "correct", d["correct"], "failed", d["failed"], \
	      " ".join("%s=%.6g" % (c, m[c]["value"]) for c in cols)); \
	    sys.exit(0 if d["correct"] else 1)' $$w $$s || exit 1; \
	done; done

clean:
	dune clean
