#!/usr/bin/env bash
# Tier-1 gate: lint, build both feature configurations, test, benchmark
# smoke, and a short deterministic opacity sweep.
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

set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "== benchmark crate tests (free and controlled builds) + smoke pass =="
cargo test -q --release --manifest-path benchmark/Cargo.toml
cargo test -q --release --manifest-path benchmark/Cargo.toml --features controlled
benchmark/run.sh --smoke

echo "== committed ledger diff (BENCH_3 -> BENCH_4, deterministic, informative) =="
# Diffs the two *committed* artifacts — byte-stable regardless of CI
# host load. Informative, not gating: the committed BENCH_4.json carries
# four cells >5% over BENCH_3 (the sharded-clock tradeoff rows noted in
# DESIGN.md §11), so `--fail` here can never pass and never has. Runs
# before the smoke below, which overwrites the worktree BENCH_4.json
# with fresh (ungated) numbers.
cargo run -p rh-bench --release -- diff BENCH_3.json BENCH_4.json

echo "== committed ledger gates (BENCH_4/BENCH_7 -> BENCH_8, deterministic, GATING) =="
# PR 8 re-arms the `--fail` gate the PR 6 demotion left informative:
# BENCH_8.json re-measures the overhead matrix (BENCH_4 keys) and the
# service percentiles (BENCH_7 keys) on the policy-capable engine, so
# these committed-vs-committed joins are byte-stable in CI and fail the
# build if a future BENCH_8 commit regresses a cell past its threshold.
# Thresholds are per-cell (DESIGN.md §14): the sharded-clock headline
# cells are pinned tight for the RH engines only (observed deltas are
# <3%; HY NOrec — the structural negative control — legitimately
# wobbles ±30% there as its abort storms reshuffle), tail percentiles
# of the software engines get a wide `*_p99` berth (p99 of a
# 175-cycle cell is pure scheduling noise), and everything else sits
# under a default chosen ~2x above the largest benign re-measurement
# delta on record.
cargo run -p rh-bench --release -- diff BENCH_4.json BENCH_8.json --fail \
    --threshold 60 \
    --cell-threshold RH-NOrec/contended_disjoint=10 \
    --cell-threshold RH-NOrec/contended_sharded=10 \
    --cell-threshold RH-NOrec-Postfix/contended_disjoint=10 \
    --cell-threshold RH-NOrec-Postfix/contended_sharded=10
cargo run -p rh-bench --release -- diff BENCH_7.json BENCH_8.json --fail \
    --threshold 50 \
    --cell-threshold '*_p99=700'

echo "== committed ledger gate (BENCH_8 -> BENCH_9, deterministic, GATING) =="
# BENCH_9.json carries every BENCH_8 row verbatim (byte-stable 0-delta
# joins, so this --fail gate holds every pre-existing cell to the same
# thresholds as above) and appends the new batch/* race cells. The batch
# rows join nothing in BENCH_8 and therefore land in `unmatched` —
# informative-first by the diff tool's own semantics. Their teeth live in
# the batch smoke below: `rh-bench batch` asserts the pinned sentinel
# (1-worker cell within 10% of sequential; the batch engine strictly
# beats the best interactive engine at every swept thread count >= 4) on
# every run, smoke included, and panics the build otherwise.
cargo run -p rh-bench --release -- diff BENCH_8.json BENCH_9.json --fail \
    --threshold 60 \
    --cell-threshold RH-NOrec/contended_disjoint=10 \
    --cell-threshold RH-NOrec/contended_sharded=10 \
    --cell-threshold RH-NOrec-Postfix/contended_disjoint=10 \
    --cell-threshold RH-NOrec-Postfix/contended_sharded=10 \
    --cell-threshold '*_p99=700'

echo "== committed ledger gate (BENCH_9 -> BENCH_10, deterministic, GATING) =="
# BENCH_10.json carries every BENCH_9 row verbatim (0-delta joins held to
# the same thresholds) and appends the scheduler grid's
# <class>_<stat>@static|@steal|@batch rows. The grid rows join nothing in
# BENCH_9 and land in `unmatched` — informative-first; their teeth are
# the run-time scheduler sentinel `rh-bench service` asserts on every
# invocation (smoke included, below), which panics the build on a p99
# regression of the saturating engines or a p50 regression of the
# absorbing ones (DESIGN.md §16).
cargo run -p rh-bench --release -- diff BENCH_9.json BENCH_10.json --fail \
    --threshold 60 \
    --cell-threshold RH-NOrec/contended_disjoint=10 \
    --cell-threshold RH-NOrec/contended_sharded=10 \
    --cell-threshold RH-NOrec-Postfix/contended_disjoint=10 \
    --cell-threshold RH-NOrec-Postfix/contended_sharded=10 \
    --cell-threshold '*_p99=700'

echo "== overhead benchmark smoke (writes BENCH_4.json) =="
cargo run -p rh-bench --release -- overhead --csv

echo "== ablation smoke (single vs sharded clock, quick scale) =="
cargo run -p rh-bench --release -- ablate

echo "== policy ablate smoke (adaptive vs static grid + BENCH_8 assembly, quick scale) =="
# The uninstrumented-config exercise of the adaptive policy layer: the
# full grid (static1/static4/adaptive on the four sentinels) plus the
# BENCH_8 assembly path with a small service cell. Writes a fresh
# (ungated) worktree BENCH_8.json — the committed one was gated above.
cargo run -p rh-bench --release -- ablate --policy all --smoke --requests 2000 --threads 2

echo "== batch executor smoke (Block-STM race vs the interactive engines, sentinel printed) =="
# Runs the batch engine against all five interactive engines on the same
# transfer batch at 1 and 4 threads. The run asserts balance
# conservation per cell and prints the pinned batch-vs-best-interactive
# sentinel's verdict without asserting it: its cells are free-running
# workers whose wall-clock overlap depends on host load (full runs still
# assert it). No ledger write in smoke mode (the committed BENCH_9.json
# was gated above).
cargo run -p rh-bench --release -- batch --smoke

echo "== free-running paper-shape cells (informative) =="
# The 16-thread contention cell of crates/bench/tests/shapes.rs is
# #[ignore]d in the test pass above: on a loaded 2-vCPU host the OS, not
# the model, decides which transactions overlap. Its verdict is printed
# here and never fails the build.
cargo test -q -p rh-bench --release --test shapes -- --ignored \
    || echo "ci.sh: free-running shapes cell failed (informative, not gating)"

echo "== service scheduler-grid smoke (static/steal/batch, sentinel-asserted) =="
# One engine keeps the controlled-replay cells CI-sized: each cell is a
# pure function of the trace seed (identical to the same cell of a full
# grid run — cells are independent), the run asserts per-cell balance
# conservation and the pinned scheduler sentinel, and smoke writes no
# ledger (the committed BENCH_10.json was gated above). This is also the
# named CI exercise of the steal pool and the batch former: the cell set
# is static baseline, work-stealing pool, and dynamic batch formation.
cargo run -p rh-bench --release -- service --engine rh-norec --smoke

echo "== bench diff smoke (fresh run vs committed ledger, informative) =="
# No --fail: a fresh overhead run on a loaded CI host can wobble past the
# threshold; the committed BENCH_4.json (gated above) is the artifact.
cargo run -p rh-bench --release -- diff BENCH_3.json BENCH_4.json

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

echo "== policy parity (bit-for-bit off, seed-pure on, instrumented oracle config) =="
# The workspace test pass above already runs this suite once; this
# explicit release-mode invocation is the named gate for the policy
# layer's parity contract: an explicitly disabled PolicyConfig replays
# bit-for-bit as the default, adaptive replays are a pure function of
# the seed, the controllers provably engage, and a seeded sweep with
# every controller on stays opaque under both oracles.
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

echo "ci.sh: all green"
