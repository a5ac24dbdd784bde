#!/usr/bin/env bash
# Tier-1 gate: lint, build both feature configurations, test, the model
# gate against the committed exact-counter baseline, benchmark smokes,
# and a short deterministic opacity sweep.
#
# Run from the repository root:
#
#   ./scripts/ci.sh
#
# The sweep gives each of the paper's five algorithms a ~1-second budget
# of seeded deterministic schedules on each HTM configuration, checking
# every recorded history for opacity. A failure prints the replay seed;
# reproduce it with
#
#   cargo run -p tm-check --release --bin sweep -- \
#       --algorithm <name> --htm <config> --replay <seed>
#
# No step may write a tracked file: the script records the worktree
# status first and fails at the end if any step changed it.

set -euo pipefail
cd "$(dirname "$0")/.."

worktree_status() { git status --porcelain 2>&1 || true; }
status_before="$(worktree_status)"

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release, instrumented: workspace pulls the deterministic feature via tm-check) =="
cargo build --workspace --release

echo "== build (release, uninstrumented: the benchmark crate's free build compiles yield/trace hooks out) =="
# rh-bench turns `deterministic` on unconditionally; the standalone
# benchmark crate (outside the workspace) is the build with
# rh_norec::INSTRUMENTED == false.
cargo build --release --manifest-path benchmark/Cargo.toml

echo "== tests =="
cargo test -q --workspace

echo "== slow and free-running tests (#[ignore]d in the tier-1 pass, gating here) =="
# A bare `cargo test` at the root runs every crate's fast tests. What it
# skips runs here in release: rh-bench's end-to-end print-only check and
# the free-running multi-thread paper-shape cells. The 16-thread
# contention cell is informative only (below). `--tests` leaves out
# doctests, whose `ignore` marks illustrative snippets, not slow tests.
cargo test -q --workspace --release --tests -- --ignored --skip rh_beats_hybrid_under_contention

echo "== benchmark crate tests (free and controlled builds) =="
cargo test -q --release --manifest-path benchmark/Cargo.toml
cargo test -q --release --manifest-path benchmark/Cargo.toml --features controlled

echo "== model gate (traced smoke pass vs scripts/baseline-smoke-seed1.json, GATING on exact counters) =="
# The baseline is this same traced smoke pass at seed 1, committed. Its
# exact counters (modeled_cyc_per_op_t1 of every workload,
# engine.*.rmw_cyc, store.*_cyc, sched.steps_per_case,
# check.events_per_case) are pure functions of the seed and the cost
# model, so any digit that moves is a change to the modeled system. The
# gate fails on a moved exact counter, a failed operation, a missing
# workload or metric, or documents compare cannot read (exit 2). Host
# rows and the non-exact modeled rows depend on the machine and its
# load: compare prints their verdicts as information only. A change
# that means to move the model regenerates the baseline (README.md,
# "The model gate").
benchmark/run.sh --smoke --trace --seed 1
compare_code=0
compare_report="$(benchmark/run.sh compare scripts/baseline-smoke-seed1.json benchmark/out/run-1.json)" \
    || compare_code=$?
echo "$compare_report"
if [ "$compare_code" -eq 2 ] \
    || grep -E 'EXACT COUNTER MOVED|operations FAILED|MISSING' <<<"$compare_report"; then
    echo "ci.sh: model gate failed (compare exit $compare_code; offending lines above)"
    exit 1
fi
echo "model gate held (compare exit $compare_code; host and non-exact rows informative)"

echo "== overhead benchmark smoke (per-op cost matrix, printed) =="
cargo run -p rh-bench --release -- overhead --csv

echo "== ablation smoke (single vs sharded clock, quick scale) =="
cargo run -p rh-bench --release -- ablate

echo "== batch executor smoke (Block-STM race vs the interactive engines, sentinel printed) =="
# Runs the batch engine against all five interactive engines on the same
# transfer batch at 1 and 4 threads. The run asserts balance
# conservation per cell and prints the pinned batch-vs-best-interactive
# sentinel's verdict without asserting it: its cells are free-running
# workers whose wall-clock overlap depends on host load (full runs still
# assert it).
cargo run -p rh-bench --release -- batch --smoke

echo "== free-running 16-thread contention cell (informative) =="
# The 16-thread contention cell of crates/bench/tests/shapes.rs is
# skipped by both test passes above: on a loaded 2-vCPU host the OS, not
# the model, decides which transactions overlap, and this cell's verdict
# flips. It is printed here and never fails the build.
cargo test -q -p rh-bench --release --test shapes -- --ignored --exact rh_beats_hybrid_under_contention \
    || echo "ci.sh: free-running shapes cell failed (informative, not gating)"

echo "== service scheduler-grid smoke (static/steal/batch, sentinel-asserted) =="
# One engine keeps the controlled-replay cells CI-sized: each cell is a
# pure function of the trace seed (identical to the same cell of a full
# grid run — cells are independent), and the run asserts per-cell
# balance conservation and the pinned scheduler sentinel. This is also
# the named CI exercise of the steal pool and the batch former: the cell
# set is static baseline, work-stealing pool, and dynamic batch
# formation.
cargo run -p rh-bench --release -- service --engine rh-norec --smoke

echo "== deterministic opacity sweep (~1 s per algorithm per HTM config) =="
for htm in default disabled tiny; do
    cargo run -p tm-check --release --bin sweep -- --htm "$htm" --seconds 1
done

echo "== mutation-score gate (hard 100% kill floor over the planted-bug corpus) =="
# Every manifest mutant must die within its bounded seed budget, every
# paired clean engine must pass the same budget, and all five algorithms
# must sweep clean at clock shards {1,4} under both oracles. Prints the
# per-mutant kill table; any survivor or clean failure exits nonzero.
cargo run -p tm-check --release --bin tm-check -- mutate --budget 40

echo "== policy parity (bit-for-bit off, seed-pure on, seeded lane claims) =="
# The workspace test pass above already runs this suite once; this
# explicit release-mode invocation is the named gate for the lane
# controller's contract: an explicitly disabled PolicyConfig, and the
# controller at clock_shards = 1, replay bit-for-bit as the default;
# adaptive replays are a pure function of the seed; the controller
# provably engages; a seeded sweep with it on stays opaque under both
# oracles. It also gates the seeded lane claims: on four contention
# cells under the controlled scheduler, static4 beats static1 where
# commits are disjoint, and adaptive tracks the better static setting,
# at pinned cycle totals.
cargo test -q -p tm-check --release --test policy_parity

echo "== batch parity (bit-for-bit vs sequential rank order, 1-worker fast path) =="
# The workspace pass above runs this suite once; this release-mode
# invocation is the named gate for the batch engine's core contract:
# speculative execution at any worker count commits exactly the state
# sequential rank-order execution produces (kv shards {1,4}, batch sizes
# {1,64,1024}, seed sweep), controlled interleavings preserve parity,
# and a 1-worker executor provably takes the no-speculation fast path.
cargo test -q -p tm-check --release --test batch_parity

echo "== KV serializability sweep (request traces, strict-serializability + conservation) =="
# Replays seeded KV transfer traces through the full application stack
# (sessions, bucket probes, multi-key transfers) under the deterministic
# scheduler at kv shards {1,4}, judged by both history oracles plus the
# balance-conservation invariant, and proves the planted KV mutant dies
# within its manifest budget.
cargo test -q -p tm-check --release --test kv_sweep

echo "== worktree unchanged (no step may write a tracked file) =="
status_after="$(worktree_status)"
if [ "$status_before" != "$status_after" ]; then
    echo "ci.sh: the worktree changed during the run"
    diff <(echo "$status_before") <(echo "$status_after") || true
    exit 1
fi

echo "ci.sh: all green"
