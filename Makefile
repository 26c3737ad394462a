# Convenience wrappers around dune. `make bench-smoke` (also run as part
# of `make test` via the @bench-smoke alias) is the sub-second sanity run
# of the wall-clock batch benchmark, its JSON validated against the
# pooled-over-scalar speedup bar and the minor-heap words per packet
# ceilings; `make compile-smoke` is the same for the
# interpreted-vs-compiled datapath section and `make parallel-smoke` for
# the multicore-scaling section; `make bench` regenerates every
# section, and `make bench-json` refreshes the committed BENCH_batch.json,
# BENCH_compile.json, and BENCH_obs.json baselines in the repo root.
# `make bench-parallel` refreshes BENCH_parallel.json (the multicore
# scaling grid), `make bench-overload` refreshes BENCH_overload.json
# (offered-load-vs-goodput curves under adversarial traffic),
# `make bench-lpm` refreshes BENCH_lpm.json (DIR-24-8 trie vs linear
# route lookup up to 1M routes — the full run takes a few minutes),
# `make bench-fdd` refreshes BENCH_fdd.json (compiled vs FDD-fused
# datapath on the cascaded-classifier config), `make bench-tune`
# refreshes BENCH_tune.json (the profile-guided autotuning cells and the
# measured-cost placement comparison), and `make bench-all` regenerates
# every committed BENCH_*.json in one go.
# `make loc` prints the `*.ml` + `*.mli` line count of each lib/
# directory, then one total for each of lib/, bin/, bench/, perfbench/
# (read only: it is the benchmark) and test/, and their sum: the net
# size ROADMAP tracks beside pps.
# `make perfbench-smoke` runs the layered benchmark (perfbench/) for 2 s
# on each workload and fails unless every result line reports
# "correct": true. `make perfbench-pairs PARENT=<rev> [PAIRS=10]
# [SECONDS=15]` compares the working tree with revision PARENT on
# perfbench in alternating run pairs (tools/pairs.py): medians,
# quartiles, pairs won and in-run ratios per workload and metric.
# `make obs-smoke` (also part of `dune runtest`) validates
# oclick-report's JSON output against the report schema on the example
# configurations; `make overload-smoke` (likewise part of `dune
# runtest`) runs the overload benchmark on the smoke budget and
# validates its JSON against the curve schema; `make lpm-smoke`,
# `make fdd-smoke`, and `make tune-smoke` do the same for the
# route-lookup, fusion, and autotuning benchmarks.

.PHONY: all build test bench bench-smoke compile-smoke parallel-smoke \
	bench-json bench-parallel bench-overload bench-lpm bench-fdd \
	bench-tune bench-all obs-smoke overload-smoke lpm-smoke fdd-smoke \
	tune-smoke perfbench-smoke perfbench-pairs loc clean

all: build

build:
	dune build

test:
	dune runtest

bench: build
	dune exec bench/main.exe

bench-smoke:
	dune build @bench-smoke

compile-smoke:
	dune build @compile-smoke

parallel-smoke:
	dune build @parallel-smoke

bench-json: build
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- batch --json
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- compile --json
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- obs --json

bench-parallel: build
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- parallel --json

bench-overload: build
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- overload --json

bench-lpm: build
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- lpm --json

bench-fdd: build
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- fdd --json

bench-tune: build
	cd $(CURDIR) && dune exec --no-build bench/main.exe -- tune --json

bench-all: bench-json bench-parallel bench-overload bench-lpm bench-fdd \
	bench-tune

obs-smoke:
	dune build @obs-smoke

overload-smoke:
	dune build @overload-smoke

lpm-smoke:
	dune build @lpm-smoke

fdd-smoke:
	dune build @fdd-smoke

tune-smoke:
	dune build @tune-smoke

perfbench-smoke:
	@for w in iprouter cascade churn; do \
	  line=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 \
	    --trace 0 | tail -n 1); \
	  case "$$line" in \
	    *'"correct": true'*) echo "perfbench-smoke $$w: correct" ;; \
	    *) echo "perfbench-smoke $$w: FAILED: $$line"; exit 1 ;; \
	  esac; \
	done

PAIRS ?= 10
SECONDS ?= 15

perfbench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perfbench-pairs PARENT=<rev>"; exit 2; }
	python3 tools/pairs.py --parent $(PARENT) --pairs $(PAIRS) --seconds $(SECONDS)

loc:
	@for d in lib/*/; do \
	  n=$$(cat $$d*.ml $$d*.mli 2>/dev/null | wc -l); \
	  printf '%-16s %6d\n' "$${d%/}" $$n; \
	done; all=0; for d in lib bin bench perfbench test; do \
	  n=$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -not -path '*/out/*' \
	    -exec cat {} + | wc -l); \
	  printf '%-16s %6d\n' "$$d/" $$n; all=$$((all + n)); \
	done; printf '%-16s %6d\n' all $$all

clean:
	dune clean
