#!/usr/bin/env bash
# Tier-1 CI matrix, fail-fast: the four configurations a change must keep
# green before it lands (README "CI matrix"). Each cell is a separate build
# tree so configurations never contaminate each other:
#
#   analysis  static analysis: lfrc_lint (fixture self-test + src must be
#             clean), plus clang-tidy / cppcheck when the host provides them
#   release   plain Release tree — the same cells run_all.sh exercises
#   tsan      LFRC_SANITIZE=thread   (racy protocols die here first)
#   asan      LFRC_SANITIZE=address  (UAF / double-free / leaks)
#   sim       LFRC_SIM=ON, quick schedule budget (deterministic interleaving
#             exploration; incompatible with the sanitizers, hence its own cell)
#
# analysis runs first: a lint finding fails the matrix in seconds, before
# any compile. ~5 minutes on a 1-CPU container. Select a subset:
#   ./scripts/ci.sh tsan sim        or        ./scripts/ci.sh --analysis
set -euo pipefail
cd "$(dirname "$0")/.."

cells=("$@")
if [[ ${#cells[@]} -eq 0 ]]; then
  cells=(analysis release tsan asan sim)
fi

run_cell() {
  local name="$1"; shift
  echo
  echo "=== ci cell: $name ==="
  "$@"
}

for cell in "${cells[@]}"; do
  case "$cell" in
    analysis|--analysis)
      # Wall-clock guard: analysis is the fail-fast tier, so the mandatory
      # checks must stay interactive (< 30 s) even as the fixture corpus and
      # rule set grow (R2 now does a per-file helper pre-pass). The optional
      # heavyweight analyzers below are outside this budget.
      SECONDS=0
      run_cell analysis python3 tools/lfrc_lint/lfrc_lint.py --root . --self-test
      # The real gate: src/ must lint clean. Fails fast on any finding. The
      # same run emits the machine-readable SARIF artifact CI dashboards
      # consume and regenerates the R6 fence-pairing table.
      mkdir -p build-analysis
      python3 tools/lfrc_lint/lfrc_lint.py --root . \
        --sarif build-analysis/lfrc_lint.sarif \
        --order-table build-analysis/fence_pairings.md src
      # SARIF sanity: well-formed 2.1.0 with the expected driver, so a
      # half-written artifact can't be uploaded as a green result.
      python3 - <<'PY'
import json
with open("build-analysis/lfrc_lint.sarif") as fh:
    doc = json.load(fh)
assert doc["version"] == "2.1.0", doc.get("version")
runs = doc["runs"]
assert runs and runs[0]["tool"]["driver"]["name"] == "lfrc_lint"
print(f"analysis: SARIF ok ({len(runs[0].get('results', []))} result(s))")
PY
      # Fence-table freshness: the committed docs/fence_pairings.md must
      # match what the annotations actually say — a memory-order edit that
      # skips the regeneration step fails here, not in review.
      if ! diff -u docs/fence_pairings.md build-analysis/fence_pairings.md; then
        echo "analysis: docs/fence_pairings.md is stale — regenerate with:" >&2
        echo "  python3 tools/lfrc_lint/lfrc_lint.py --root . --order-table docs/fence_pairings.md src" >&2
        exit 1
      fi
      if (( SECONDS >= 30 )); then
        echo "analysis: mandatory lint took ${SECONDS}s — over the 30 s fail-fast budget" >&2
        exit 1
      fi
      # Mutant coverage: every seeded-mutant enumerator in
      # src/util/mutation.hpp must be armed (`mutation::arm x(mutant::...)`)
      # by some file under tests/, so no seam outlives the test proving the
      # checkers catch it.
      python3 - <<'PY'
import pathlib, re, sys
hdr = pathlib.Path("src/util/mutation.hpp").read_text()
body = re.search(r"enum class mutant\s*\{(.*?)\};", hdr, re.S).group(1)
mutants = [m.strip() for m in re.sub(r"//[^\n]*", "", body).split(",") if m.strip()]
armed = set()
for f in pathlib.Path("tests").rglob("*.[ch]pp"):
    armed |= set(re.findall(r"\barm\s+\w+\s*[({]\s*(?:\w+::)*mutant::(\w+)", f.read_text()))
unarmed = [m for m in mutants if m not in armed]
if unarmed:
    sys.exit(f"analysis: mutant(s) armed by no test under tests/: {', '.join(unarmed)}")
print(f"analysis: all {len(mutants)} seeded mutants are armed by a test")
PY
      # Heavier analyzers ride along where the host has them. The container
      # images bake in only the base toolchain, so absence is a notice,
      # not a failure — lfrc_lint above is the mandatory check.
      if command -v clang-tidy >/dev/null 2>&1; then
        cmake -B build -G Ninja >/dev/null  # refresh compile_commands.json
        git ls-files 'src/**/*.cpp' 'src/*.cpp' | \
          xargs -r clang-tidy -p build --quiet
      else
        echo "analysis: clang-tidy not on PATH — skipped (config: .clang-tidy)"
      fi
      if command -v cppcheck >/dev/null 2>&1; then
        cppcheck --std=c++20 --enable=warning,performance,portability \
          --inline-suppr --error-exitcode=1 --quiet -I src src
      else
        echo "analysis: cppcheck not on PATH — skipped"
      fi
      ;;
    release)
      run_cell release cmake -B build -G Ninja
      cmake --build build
      ctest --test-dir build --output-on-failure
      # E10 smoke: exits non-zero if the reuse engine generates ANY
      # reclaimer traffic (retired / pending deltas must be zero).
      ./build/bench/bench_e10_casn --duration=0.05 --max_threads=2
      # Net loopback smoke: lfrc_kvd + lfrc_loadgen over 127.0.0.1 — asserts
      # a non-empty latency histogram and zero reclaimer residual after the
      # SIGTERM graceful drain (scripts/net_smoke.sh).
      ./scripts/net_smoke.sh build 0.5 3000
      ;;
    tsan)
      run_cell tsan cmake -B build-thread -G Ninja -DLFRC_SANITIZE=thread
      cmake --build build-thread
      # Runs the full suite including test_smr_conformance — every smr
      # policy's protocol races (counted DCAS, hazard announce/validate,
      # epoch pins, deferred's delta flush / review-queue handoff, GC
      # safepoints) die here first.
      # The Valois comparator and its type-stable block pool read recycled
      # memory BY DESIGN — the exact hazard the paper's §2 discusses and
      # LFRC exists to avoid. TSan rightly reports those reads as races,
      # and test_valois runs >10 min under TSan on one CPU; both are
      # non-LFRC baselines, so the thread cell skips them (Release and
      # ASan cells still run them in full).
      ctest --test-dir build-thread --output-on-failure \
        -E '^(test_alloc|test_valois)$'
      # R6's dynamic twin, both legs (tests/order_race_probe.cpp). Clean
      # orders first: the choreography itself must be race-free, so a
      # failure here is a real arena bug, not probe noise.
      ./build-thread/tests/order_race_probe
      # Mutant leg, inverted: the seeded weaken-the-pop-acquire mutation
      # severs the remote-head release/acquire pairing, and TSan MUST
      # report the recycled-payload race. The probe surviving means the
      # pairing the fence table documents is not actually load-bearing —
      # fail the cell.
      if ./build-thread/tests/order_race_probe --mutant 2>/dev/null; then
        echo "tsan: order_race_probe --mutant survived — weakened remote-pop orders produced no race" >&2
        exit 1
      else
        echo "tsan: order_race_probe --mutant died as required (remote-head pairing is load-bearing)"
      fi
      ;;
    asan)
      run_cell asan cmake -B build-address -G Ninja -DLFRC_SANITIZE=address
      cmake --build build-address
      # Full suite including test_smr_conformance: UAF/double-free in any
      # policy's reclamation path lands here (deferred's review queue frees
      # after a grace period — an early free is exactly an ASan hit). The smr::leaky baseline never
      # frees by design; lsan.supp suppresses exactly those allocations so
      # LSan still guards every other policy.
      LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
        ctest --test-dir build-address --output-on-failure
      # Arena poisoning interop, inverted: the probe reads a freed arena
      # payload. Recycled (never-unmapped) blocks are invisible to ASan's
      # own heap bookkeeping, so this only dies if the arena's manual
      # poison-on-free is working — the probe SURVIVING means the recycling
      # path silently lost sanitizer coverage, and the cell fails.
      if ./build-address/tests/arena_uaf_probe 2>/dev/null; then
        echo "asan: arena_uaf_probe survived a freed-payload read — arena poisoning is broken" >&2
        exit 1
      else
        echo "asan: arena_uaf_probe died as required (poison-on-free intact)"
      fi
      ;;
    sim)
      run_cell sim cmake -B build-sim -G Ninja -DLFRC_SIM=ON
      cmake --build build-sim
      # Quick budget: enough schedules to catch protocol regressions without
      # turning CI into the overnight exploration run (EXPERIMENTS.md).
      LFRC_SIM_SCHEDULES="${LFRC_SIM_SCHEDULES:-500}" \
        ctest --test-dir build-sim -L sim --output-on-failure
      ;;
    *)
      echo "unknown ci cell: $cell (known: analysis release tsan asan sim)" >&2
      exit 2
      ;;
  esac
done

echo
echo "CI MATRIX GREEN (${cells[*]})"
