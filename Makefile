# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check vet bench perf perf-record examples clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# What CI runs (.github/workflows/ci.yml): the full build, the tier-1
# test suite, smoke iterations of the provenance, federation-faults,
# trace-health and scheduler bench groups, an `explain` pass over the
# scripted breach (the flight recorder must always be able to narrate
# a denial, on a busy provider too: `--users 300` must exit 0 and name
# the thief), the federated trace / health goldens (byte-for-byte;
# `w5 health` must judge the scripted faulty peer degraded, exit 2),
# the scripted soak summary golden (`w5 soak` byte-for-byte —
# the seeded scheduler must be deterministic across processes), the
# telemetry golden (`w5 stats`: every metric, the tick histograms
# and the last trace tree, byte-for-byte), a full audit log holding
# exactly its capacity (`w5 serve`), and every example program run to
# completion.
check: vet examples
	dune build @all && dune runtest
	dune exec bench/main.exe -- --only provenance --smoke
	dune exec bench/main.exe -- --only federation-faults --smoke
	dune exec bench/main.exe -- --only trace-health --smoke
	dune exec bench/main.exe -- --only scheduler --smoke
	dune exec bin/w5.exe -- explain > /dev/null
	out="$$(dune exec bin/w5.exe -- explain --users 300)" && echo "$$out" | grep -qF "(mal/thief)"
	dune exec bin/w5.exe -- trace --federated | diff -u test/golden/trace_federated.txt -
	dune exec bin/w5.exe -- health | diff -u test/golden/health.txt -
	dune exec bin/w5.exe -- health > /dev/null; test $$? -eq 2
	dune exec bin/w5.exe -- soak | diff -u test/golden/soak.txt -
	dune exec bin/w5.exe -- stats | diff -u test/golden/stats.txt -
	dune exec bin/w5.exe -- serve --users 8 --requests 20000 | grep -F "audit log entries: 65536 ("

# Static label-flow analysis of the example platform, with the runtime
# soundness pass; the JSON form must match the committed golden report
# byte for byte (regenerate it with the redirect below after a
# *reviewed* change to the showcase or the analyzer).
#   dune exec bin/w5.exe -- vet --format json > test/golden/vet.json
vet:
	dune build bin/w5.exe
	dune exec bin/w5.exe -- vet --runtime 300
	dune exec bin/w5.exe -- vet --format json | diff -u test/golden/vet.json -

bench:
	dune exec bench/main.exe

# Tracking performance over time (README §"Tracking performance over
# time"): a full measured bench run, emitted as BENCH_<group>.json and
# diffed against the committed baselines at the repo root under
# per-group relative thresholds. Exit 1 on regression. CI runs only
# the structural (--schema-only) gate — smoke timings are noise — so
# this value gate is the local, pre-commit check.
perf:
	dune exec bench/main.exe -- --json-dir _bench_fresh
	dune exec bin/w5.exe -- perf diff --fresh _bench_fresh

# Re-record the committed baselines after a *reviewed* perf change
# (and regenerate the schema golden CI byte-diffs):
perf-record:
	dune exec bench/main.exe -- --json-dir _bench_fresh
	dune exec bin/w5.exe -- perf record --fresh _bench_fresh
	dune exec bin/w5.exe -- perf schema > test/golden/bench_schema.txt

examples:
	@for e in quickstart social_network photo_mashup federation_sync \
	          recommendation code_search provider_ops collaboration \
	          difc_tutorial embedding; do \
	  echo "== examples/$$e =="; \
	  dune exec examples/$$e.exe || exit 1; \
	done

clean:
	dune clean
