#!/usr/bin/env bash
# The CI gate, runnable locally: exactly what .github/workflows/ci.yml
# runs. Everything is offline — third-party crates are vendored shims
# under crates/shims/, so no step touches a registry.
#
#   ./scripts/ci.sh         # full gate: fmt, clippy, build, test, doc,
#                           # benchmark package tests, bench/limits
#                           # determinism smoke, profile artifact,
#                           # exact fidelity gate
#   ./scripts/ci.sh --fast  # format/lint/build/test/doc only — skips the
#                           # benchmark package, bench smoke, artifacts
#                           # and the fidelity gate
#
# Nightly-only legs (Miri smoke, TSan build) probe for their toolchain
# pieces and skip cleanly when absent; CI_SKIP_MIRI=1 / CI_SKIP_TSAN=1
# force the skip even when the toolchain would allow them.

set -euo pipefail
cd "$(dirname "$0")/.."
ci_start=$(date +%s)

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "unknown argument: $arg (expected --fast)" >&2; exit 2 ;;
  esac
done

step() { printf '\n== %s ==\n' "$1"; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The last thing the gate prints: the simulator's line count (ROADMAP aim
# 2: "lines removed is a reported metric"; every file under crates/sim/src,
# `plan/` and `pool/` included), the allocation, plan-size, launch-ledger
# and seeded-input gauges, `run_impl`'s size and placement, how long the
# gate took and how many tests `cargo test` passed —
# the numbers a PR that adds or removes code or configurations is expected
# to report before/after.
miri_leg=skipped
tsan_leg=skipped
forbid_unsafe="not checked"
summary() {
  find crates/sim/src -name '*.rs' | sort | xargs wc -l
  # Whether the compiler forbids `unsafe` everywhere, as the step below
  # checked (the simulator had 11 `unsafe` blocks before its memory core
  # became atomic slices).
  echo "unsafe code: $forbid_unsafe"
  # The nightly-only legs skip when their toolchain is missing (and under
  # --fast): say which of them this run actually held.
  echo "miri: $miri_leg; tsan: $tsan_leg"
  # Heap allocations of one build + compile pass over the suite
  # (tests/alloc_budget.rs; `cargo test -q` above ran it with its output
  # captured).
  cargo test -q --test alloc_budget -- --nocapture 2>/dev/null | grep '^alloc_budget:'
  # The lockstep gauge, as the gate step below measured it: what the
  # quick sweep executes, and in how many dispatches.
  echo "quick sweep: $gauge (lane-instructions, dispatches, lanes/dispatch)"
  # Register and instruction width of the plan engine (plan/slot.rs and
  # plan/instr.rs assert their bounds at compile time).
  cargo test -q -p sycl-mlir-sim --lib plan_sizes -- --nocapture 2>/dev/null | grep -o 'plan_sizes:.*'
  # The launch path's exact work counts (tests/launch_path.rs, which pins
  # them): launches, distinct bindings, plans looked up and proof
  # instantiations, for the quick sweep and for repro_hostdag's graph.
  cargo test -q --test launch_path launch_ledger -- --nocapture 2>/dev/null | grep -o 'launch_ledger:.*'
  # Bytes the seeded inputs' recipes generate (tests/seeded_inputs.rs,
  # which pins them): none while the compile_only pass builds and compiles,
  # each seeded input once when one run of each program uploads it.
  cargo test -q --test seeded_inputs generated -- --nocapture 2>/dev/null | grep -o 'seeded_inputs:.*'
  # The between-pass verifier's work over the suite (tests/ir_verifier_diff.rs,
  # which pins it): verifier runs, skips and ops visited.
  cargo test -q --test ir_verifier_diff verify_counters -- --nocapture 2>/dev/null | grep -o 'verify_counters:.*'
  # Placement control: the execution workloads move 6-10% with where the
  # linker puts the instruction loop, so a timing gap under 10% is read
  # beside this line from both builds (size in bytes, address mod 64).
  nm -S -C target/release/repro_all | while read -r addr size _ name; do
    if [[ "$name" == "sycl_mlir_sim::plan::exec::run_impl" ]]; then
      echo "run_impl: $((16#$size)) bytes, address mod 64 = $((16#$addr % 64))"
    fi
  done
  passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$tmp/test.log")
  echo "ci.sh wall time: $(( $(date +%s) - ci_start )) s; cargo test: $passed passed"
}

# The `(sweep)` row of `--profile=on`'s lockstep section, for the quick
# sweep: deterministic work counters — every thread count reads the same.
lockstep_gauge() {
  ./target/release/repro_all --quick --profile=on 2>/dev/null | awk '$4 == "(sweep)" { print $1, $2, $3 }'
}

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release

# Device-memory faults are `MemFault` values (ARCHITECTURE.md, "Faults are
# values"): no panic carries one, so nothing may classify panics by text —
# nor errors: a memory fault is `SimError::Fault` and a limit trip
# `SimError::LimitExceeded`, told by
# variant (`limit_kind()`), never flattened into a message — the limit
# text is written in interp.rs and matched nowhere.
step "no panic-transported memory faults, no error classified by its text under crates/"
if grep -rnE 'failure_of_panic|(starts_with|contains)\("(device memory|type-mismatched|unknown device buffer)|panic!\("type-mismatched|starts_with\("injected fault|msg\(fault\.to_string\(\)\)' crates/ ||
  grep -rnF 'contains("execution limit exceeded")' crates/ | grep -v '^crates/sim/src/interp.rs:'; then
  echo "FAIL: a memory fault is being reported by panic, or a failure classified by its text, again" >&2
  exit 1
fi

# One operand table (ARCHITECTURE.md): which registers an instruction
# reads and writes, and of which class, is `Instr::operands` and nothing
# else. The five walkers it replaced must not come back beside it.
step "no second operand walker under crates/sim/src"
if grep -rnE 'fn (for_each_read|for_each_write|def_classes|use_classes|dst_reg)\b' crates/sim/src; then
  echo "FAIL: a hand-written operand walker is back; derive it from Instr::operands" >&2
  exit 1
fi

# Names are resolved once (ARCHITECTURE.md): CSE compares expressions in the
# module, it formats nothing; and the one registered context of a thread is
# `full_context()`'s — library code that registers the dialects into a
# context of its own brings back a registration per build.
step "no formatted CSE key, no second registered context under crates/"
# Library code only: every file keeps its tests in one trailing module
# (plan/tests.rs is that module for plan/, in a file of its own).
non_test() { [[ "$1" == */tests.rs ]] || sed '/^#\[cfg(test)\]/,$d' "$1"; }
if non_test crates/transform/src/canonicalize.rs | grep -n 'format!('; then
  echo "FAIL: canonicalize.rs formats text again; CSE keys are structural" >&2
  exit 1
fi
registrations=$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
  non_test "$f" | grep -vE '^\s*//|fn register_all\(' | grep -H --label="$f" 'register_all(' || true
done)
if [[ "$registrations" != "crates/frontend/src/lib.rs:"* || $(wc -l <<<"$registrations") != 1 ]]; then
  echo "FAIL: register_all is called outside full_context() and test code:" >&2
  echo "$registrations" >&2
  exit 1
fi

# Registers are 16 bytes (ARCHITECTURE.md): the plan engine keeps a
# work-item's registers as `Slot`s. `RtValue` is the public value type —
# arguments, device memory, the tree walk — and 72 bytes wide; a register
# file of them makes every register move a `memmove` call again.
step "no RtValue register file in the plan engine"
if for f in crates/sim/src/plan/*.rs; do non_test "$f"; done | grep -n 'Vec<RtValue>'; then
  echo "FAIL: plan/ holds a Vec<RtValue> again; plan registers are Slots" >&2
  exit 1
fi

# No `unsafe` (ARCHITECTURE.md, "Pool and arena design"): every member
# crate under crates/ inherits the workspace's `unsafe_code = "forbid"`
# lint, and the facade's library forbids it itself — its package holds the
# one `unsafe` of the repo, tests/alloc_budget.rs's counting allocator
# (`GlobalAlloc` is an unsafe trait). The compiler then refuses any other.
step "unsafe code forbidden in every crate"
for manifest in $(find crates -name Cargo.toml | sort); do
  if ! awk '/^\[lints\]$/ { in_lints = 1; next } /^\[/ { in_lints = 0 } in_lints && /^workspace = true$/ { found = 1 } END { exit !found }' "$manifest"; then
    echo "FAIL: $manifest does not inherit the workspace lints ([lints] workspace = true)" >&2
    exit 1
  fi
done
if ! grep -qx 'unsafe_code = "forbid"' Cargo.toml || ! grep -qx '#!\[forbid(unsafe_code)\]' src/lib.rs; then
  echo "FAIL: the workspace lint or src/lib.rs no longer forbids unsafe_code" >&2
  exit 1
fi
if grep -rlw 'unsafe' examples tests | grep -vx 'tests/alloc_budget.rs'; then
  echo "FAIL: unsafe code under examples/ or tests/ outside tests/alloc_budget.rs" >&2
  exit 1
fi
forbid_unsafe="forbidden in all $(find crates -name Cargo.toml | wc -l) member crates and src/lib.rs"
echo "unsafe code: $forbid_unsafe"

# One access step (ARCHITECTURE.md): device memory is slices of
# `AtomicU32` / `AtomicU64` elements that `memory.rs` alone holds, reads
# and writes — a kernel or host-task access through `memory::Buf`, the
# tree walk through `MemoryPool::load` / `store`; the pools only resolve a
# `MemId` to a `Buf` — and both engines count transactions through
# `cost::Coalescer`. The layers and the second tracker it replaced must
# not come back beside it.
step "atomic element access only in memory.rs; one coalescing tracker"
if grep -rnE '\[AtomicU(32|64)\]' crates/sim/src | grep -v '^crates/sim/src/memory.rs:'; then
  echo "FAIL: device memory's elements are reached outside memory.rs; resolve a Buf and use it" >&2
  exit 1
fi
if grep -rnE 'fn elem_bytes\(&self, id|macro_rules! pool_(load|store)|IntMixHasher' crates/sim/src; then
  echo "FAIL: a per-id element-size lookup, a pool access macro or the tracker's hasher is back" >&2
  exit 1
fi

# One graph run per program (ARCHITECTURE.md, "Pool and arena design"): a
# run's extra workers are scoped threads that borrow its state and are
# joined before it returns. The process-wide pool they replaced — parked
# threads, lifetime-erased job pointers, a completion latch — must not
# come back beside them.
step "no persistent worker pool under crates/sim/src"
if grep -rnE 'RawJob|static POOL|fn launch_job|ensure_workers|worker_main' crates/sim/src; then
  echo "FAIL: the persistent worker pool is back; a graph run's workers are scoped threads" >&2
  exit 1
fi

# One executor (ARCHITECTURE.md, "One plan executor"): the plan engine runs
# a sub-group's work-items in lockstep, a lane group of one being the
# scalar case. A per-item executor — its slot type, a second instruction
# loop — must not come back beside it.
step "no per-item plan executor under crates/sim/src"
if grep -rn 'PlanWorkItem' crates/sim/src ||
  [[ $(grep -rhE '^\s*(pub(\(crate\))? )?fn run_impl\b' crates/sim/src | wc -l) != 1 ]]; then
  echo "FAIL: a per-item executor (PlanWorkItem, a second run_impl) is back beside the lockstep one" >&2
  exit 1
fi

# Verification and fusion are what the plan engine does, not settings
# (ARCHITECTURE.md, "Static verification and check elision" and "The
# three-engine story"): every decoded plan is verified once and fused. A
# mode, a level or a second fusion entry point must not come back.
step "no verify mode, no fuse level"
if grep -rnE 'VerifyMode|FuseLevel|fuse_plan_with' crates src tests examples; then
  echo "FAIL: a verify mode or fuse level is back; verification and fusion always run" >&2
  exit 1
fi

# A work-item's position is computed, not stored (ARCHITECTURE.md, "A
# work-item's position"): both engines answer item queries from the launch
# geometry through `NdRangeSpec::item_query`. A stored position bundle, or
# a second copy of the geometry arithmetic, must not come back.
step "no stored work-item position"
if grep -rnE 'NdItemVal|items_of_group|fn group_of\b' crates src tests examples; then
  echo "FAIL: a work-item position is stored or computed outside NdRangeSpec again" >&2
  exit 1
fi

# One superinstruction (ARCHITECTURE.md, "The three-engine story"): fusion
# forms the indexed accessor load and nothing else. The load-accumulate
# pair, the multiply-accumulate chain and the un-CSE'd four-instruction
# read were retired because they did not pay; they must not come back.
step "one fusion pattern"
if grep -rnE 'LoadBinFloat|LoadMulAddF|AccLoadQuad|try_quad|try_pair' crates src tests examples; then
  echo "FAIL: a retired superinstruction or its matcher is back; fusion forms acc.load.idx only" >&2
  exit 1
fi

# One failure per graph run (ARCHITECTURE.md, "The out-of-order launch
# scheduler"): a run reports the failure serial submission order meets
# first and stops there. Per-launch statuses, the cancel cascade and the
# DAG's Kahn walk (edges point forward, so a graph is acyclic by
# construction) must not come back.
step "one failure per graph run"
if grep -rnE 'LaunchStatus|cancelled_by|failure_cascades|into_statuses|fn cascades|first_failure|kahn_levels|fn levels\b' crates src tests examples; then
  echo "FAIL: per-launch failure outcomes or the Kahn walk are back; a graph run has one failure" >&2
  exit 1
fi

# Failures come from kernels (ARCHITECTURE.md, "Execution limits"): a
# run's failure is an organic one — a memory fault, a divergent barrier, a
# host-view fault, an unknown buffer, a rejected kernel or a tripped
# limit. Synthetic fault injection and the cancel token that nothing
# called must not come back to the production paths.
step "no fault injection, no cancel token"
if grep -rnE 'FaultPlan|FaultSite|CancelToken|SimError::Injected|LimitKind::Cancelled' crates src tests examples; then
  echo "FAIL: fault injection or the cancel token is back; failures come from kernels" >&2
  exit 1
fi

# One barrier check (ARCHITECTURE.md, "Static verification and check
# elision"): the round loop finds a barrier that work-items reach
# divergently, at run time. The verifier's barrier-loop lint and the
# device's re-run of the IR uniformity analysis, which only counted
# barriers, must not come back; the analysis stays with the compiler
# (crates/analysis, tests/uniformity.rs).
step "one barrier check, the round loop"
if grep -rnE 'barrier_uniformity|barrier_loop_pass|uniform_decodable_regs|transitive_barrier_funcs|barriers_uniform|barriers_total' crates src tests examples; then
  echo "FAIL: decode-time barrier facts are back; the round loop checks every barrier" >&2
  exit 1
fi

# One device report (ARCHITECTURE.md, "Static verification and check
# elision"): everything a Device counts is a field of the `DeviceReport`
# that `Device::report()` returns, and its `Display` is the `--profile`
# dump. The per-counter accessors and the string-typed report they
# replaced must not come back beside it.
step "one device report"
if grep -rnE '\b(plan_cache_counters|verify_counters|profile_report|ProfileSums)\b' crates src tests examples; then
  echo "FAIL: a per-counter accessor or the string-typed profile report is back; read Device::report()" >&2
  exit 1
fi

# One home for launch facts (ARCHITECTURE.md, "Launch facts"): the seven
# facts host-device propagation and the AdaptiveCpp JIT write onto a
# kernel are keyed and shaped in crates/sycl/src/facts.rs alone, and the
# range queries they pin down are folded by hostdev::fold_device_queries
# alone. Their keys, the old key constants and the JIT's second fold must
# not come back elsewhere. Host-device propagation is the one reader of a
# launch site in the host IR: what it proved is a fact, so nothing else
# re-derives it from `sycl.host.schedule_kernel` ops.
step "one home for launch facts"
if grep -rnE 'sycl\.(global_range|local_range|arg_buffer_ids|arg_ranges|const_args|dead_args|folded_args)|KERNEL_(GLOBAL_RANGE|LOCAL_RANGE|DEAD_ARGS)_ATTR|ARG_BUFFER_IDS_ATTR|fold_range_queries' crates src tests examples \
  | grep -v '^crates/sycl/src/facts.rs:'; then
  echo "FAIL: a launch-fact key or a second range-query fold outside crates/sycl/src/facts.rs; go through sycl::facts" >&2
  exit 1
fi
if grep -rn 'schedule_info' crates src tests examples \
  | grep -vE '^(crates/sycl/|crates/transform/src/hostdev\.rs:)'; then
  echo "FAIL: schedule_info outside crates/sycl/ and hostdev.rs; read the launch facts host-device propagation recorded instead" >&2
  exit 1
fi

# One function per plan (ARCHITECTURE.md, "Plan bytecode format"): the
# decoder inlines every device call, so the plan executor keeps no call
# frames. The frame, the call instruction and the plan's function table
# must not come back.
step "one function per plan"
if grep -rnE 'PlanFrame|Instr::Call\b|plan\.funcs\b' crates src tests examples; then
  echo "FAIL: a call frame, Instr::Call or a plan function table is back; the decoder inlines calls" >&2
  exit 1
fi

# Runs the whole workspace, including the scheduler's hardening suites:
# tests/scheduler_stress.rs (~200 randomized hazard DAGs across tree |
# plan × threads 1 | 4, plus error-ordering pins),
# tests/hazard_graph_diff.rs (the queue's hazard-table edges against the
# all-pairs reference: subset, same closure, linear count) and
# tests/plan_fuzz.rs (random legal bytecode, fused vs unfused, lockstep
# vs item order, the order-and-proof audit) — and the lockstep suites:
# tests/lockstep_divergence.rs (lanes that branch apart, loop unevenly,
# re-merge at barriers or fail, against the tree walk) and the audit sweep
# of tests/differential.rs.
# --no-fail-fast: one red crate must not hide the targets after it.
step "cargo test (incl. scheduler stress + plan fuzz suites)"
cargo test -q --no-fail-fast 2>&1 | tee "$tmp/test.log"

# The lockstep gauge: the quick sweep's lane-instructions must not move
# with how they are dispatched (they are the per-opcode totals of the
# profile), and the dispatch count says whether lanes stayed together —
# both are exact, so a change to either is a change to explain. (It read
# 36828204 2550862 14.44 while constants, casts and in-place loop carries
# still executed as instructions.)
step "lockstep gauge: quick-sweep lane-instructions and dispatches, exactly"
gauge=$(lockstep_gauge)
if [[ "$gauge" != "31156048 2154044 14.46" ]]; then
  echo "FAIL: the quick sweep's lockstep gauge reads '$gauge', expected '31156048 2154044 14.46'" >&2
  exit 1
fi
echo "quick sweep: $gauge (lane-instructions, dispatches, lanes/dispatch)"

# The verifier's counts over the quick sweep, exactly: every kernel the
# paper's figures run is fully provable — no finding, nothing refused —
# and what the interval pass proves does not drift. Every plan is
# verified (a plan with findings runs with every check in place), so
# these counts, not a second sweep, are what says the suite stayed clean.
step "verify stats: the quick sweep's plans, proofs and findings, exactly"
vstats=$(./target/release/repro_all --quick --json | sed -n 's/.*"verify_stats": {\(.*\), "verify_us": [0-9]*}.*/\1/p')
expected='"plans": 174, "sites_proven": 642, "sites_total": 792, "rejected": 0, "lint_findings": 0'
if [[ "$vstats" != "$expected" ]]; then
  echo "FAIL: the quick sweep's verify_stats read '$vstats', expected '$expected'" >&2
  exit 1
fi
echo "verify_stats: $vstats"

step "cargo doc --no-deps (deny warnings)"
# Catches broken intra-doc links; crates/sim and crates/runtime also deny
# missing_docs at compile time.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

if [[ "$fast" == 1 ]]; then
  echo "(--fast: skipping the benchmark package, bench/limits smoke, artifacts and the fidelity gate)"
  summary
  exit 0
fi

# ----------------------------------------------------------------------
# Benchmark package: benchmark/ is a Cargo package of its own that the
# workspace build never sees, compiled against a frozen slice of the
# crates' API (`pass_stats.per_pass` and its stage names among it). Build
# it and run its tests, so that an API edit next to that slice cannot
# leave the repo benchmark uncompilable unnoticed.
# ----------------------------------------------------------------------
step "benchmark package: cargo test --manifest-path benchmark/Cargo.toml"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# ----------------------------------------------------------------------
# Bench smoke: the full evaluation sweep in quick mode under both
# schedules — the default (sequentially and on 4 worker threads) and the
# serial reference (--engine=tree). Asserts the determinism contract
# (bit-identical tables across threads and engines) and prints the
# wall-time trajectory so a perf regression is visible in the CI log.
# ----------------------------------------------------------------------
step "bench smoke: repro_all --quick (threads=1 vs threads=4 vs engine=tree)"

# Run a sweep, keep its output as $tmp/<name>.out, and diff its tables
# (every line but the wall-time trailer — the only legitimate difference
# between runs) against an earlier run's.
tables() { grep -v '^repro_wall_time_seconds:' "$tmp/$1.out"; }
sweep() { # <name> <flags...>
  local name=$1
  shift
  ./target/release/repro_all --quick "$@" | tee "$tmp/$name.out"
}
same_tables() { # <reference> <name> <what differs>
  if ! diff -u <(tables "$1") <(tables "$2"); then
    echo "FAIL: repro_all tables differ $3" >&2
    exit 1
  fi
}

sweep t1 --threads=1
sweep t4 --threads=4
sweep tree --engine=tree
same_tables t1 t4 "between --threads=1 and --threads=4"
same_tables t1 tree "between the plan engine and the tree-walk serial reference"
echo "tables bit-identical across thread counts and engines"

# Every workload family must actually be in the sweep — a registry
# regression that dropped a category would keep all the diffs above
# green while silently shrinking coverage.
for family in \
  "Fig. 2: single-kernel benchmarks" \
  "Fig. 3: polybench benchmarks" \
  "Stencil workloads" \
  "Reduction/scan workloads (extension)" \
  "Sparse indirect-index workloads (extension)"; do
  if ! grep -qF "$family" "$tmp/t1.out"; then
    echo "FAIL: bench smoke is missing the '$family' table" >&2
    exit 1
  fi
done
echo "all five workload families present in the sweep"

# ----------------------------------------------------------------------
# Host-task graph smoke: repro_hostdag is the host-task-heavy shape (one
# host node per three kernels); its tables must be bit-identical across
# thread counts and between the two schedules. The `hazard edges:` line
# is part of the table and is echoed below: a queue that went back to one
# edge per direct hazard reads ~20 edges per command group, not ~1. So is
# `host functions: F for G command groups`: the kernels read 8 buffers
# through one geometry, so host IR with one function per distinct command
# group has F <= 8 < G; one function per submission reads F = G.
# ----------------------------------------------------------------------
step "host-task graph smoke: repro_hostdag --quick (threads 1/4, engine=tree)"
for cfg in "--threads=4" "--threads=1" "--engine=tree"; do
  ./target/release/repro_hostdag --quick "$cfg" 2>/dev/null \
    | grep -v '^repro_wall_time_seconds:' > "$tmp/hostdag-cur.tables"
  if [ ! -f "$tmp/hostdag-ref.tables" ]; then
    cp "$tmp/hostdag-cur.tables" "$tmp/hostdag-ref.tables"
  elif ! diff -u "$tmp/hostdag-ref.tables" "$tmp/hostdag-cur.tables"; then
    echo "FAIL: repro_hostdag tables differ under $cfg" >&2
    exit 1
  fi
done
if ! grep '^hazard edges: ' "$tmp/hostdag-ref.tables"; then
  echo "FAIL: repro_hostdag prints no 'hazard edges:' line" >&2
  exit 1
fi
hostfns=$(grep '^host functions: ' "$tmp/hostdag-ref.tables" || true)
echo "$hostfns"
if ! [[ "$hostfns" =~ ^host\ functions:\ ([0-9]+)\ for\ ([0-9]+)\ command\ groups$ ]] \
  || ((BASH_REMATCH[1] > 8 || BASH_REMATCH[2] <= BASH_REMATCH[1])); then
  echo "FAIL: repro_hostdag host IR is not one function per distinct command group (want F <= 8 < G)" >&2
  exit 1
fi
echo "host-task graph tables bit-identical across thread counts and engines"

# ----------------------------------------------------------------------
# Configuration smoke: a bad setting is an error (exit status 2), from
# the environment and from a flag alike — never a warning and a silently
# different configuration. The retired A/B settings are the cases.
# ----------------------------------------------------------------------
step "configuration smoke: bad settings exit 2"
expect_exit_2() { # <description> <command...>
  local what=$1 status=0
  shift
  "$@" >/dev/null 2>"$tmp/config.err" || status=$?
  if [[ "$status" != 2 ]] || ! grep -q '^error: invalid simulator setting' "$tmp/config.err"; then
    echo "FAIL: $what: expected exit 2 with a ConfigError, got $status" >&2
    cat "$tmp/config.err" >&2
    exit 1
  fi
}
expect_exit_2 "--fuse=off" ./target/release/repro_all --quick --fuse=off
expect_exit_2 "--verify=strict" ./target/release/repro_all --quick --verify=strict
expect_exit_2 "SYCL_MLIR_SIM_FUSE=off" env SYCL_MLIR_SIM_FUSE=off ./target/release/repro_all --quick
expect_exit_2 "SYCL_MLIR_SIM_VERIFY=off" env SYCL_MLIR_SIM_VERIFY=off ./target/release/repro_all --quick
expect_exit_2 "--batch=off" ./target/release/repro_all --quick --batch=off
expect_exit_2 "--jit=off" ./target/release/repro_all --quick --jit=off
expect_exit_2 "SYCL_MLIR_SIM_SCHED=fifo" env SYCL_MLIR_SIM_SCHED=fifo ./target/release/repro_hostdag --quick
expect_exit_2 "SYCL_MLIR_SIM_THREADS=many" env SYCL_MLIR_SIM_THREADS=many ./target/release/repro_all --quick
echo "bad settings are rejected from flags and environment alike"

# ----------------------------------------------------------------------
# Limits smoke: an adversarial kernel spinning an (effectively)
# unbounded loop must trip --max-ops — fail fast with the structured
# limit error, never hang — under BOTH engines, and the device must stay
# usable afterwards (repro_limits checks all of that itself; the timeout
# is the hang backstop). A sweep with generous limits *enabled* must
# then reproduce the baseline tables bit-identically: the metering path
# may cost a little wall time but can never perturb simulated results.
# ----------------------------------------------------------------------
step "limits smoke: repro_limits under both engines + generous-limits identity"
timeout 120 ./target/release/repro_limits --engine=plan --threads=4 --max-ops=2000000
timeout 120 ./target/release/repro_limits --engine=tree --max-ops=2000000

sweep limits --threads=4 --max-ops=1000000000000 --deadline-ms=600000
same_tables t4 limits "with generous limits enabled"
echo "limits smoke passed: both engines trip, device survives, tables unchanged"

# ----------------------------------------------------------------------
# Miri smoke: the scheduler/pool core under the interpreter's aliasing
# and data-race checks — a bounded subset (pool::), because Miri is two
# to three orders of magnitude slower than native. Needs the nightly
# toolchain with the miri component; probe for the actual cargo-miri
# command (a listed-but-uninstalled component fails the probe) and skip
# cleanly when absent so offline/stable-only runners stay green.
# ----------------------------------------------------------------------
step "miri smoke: cargo +nightly miri test -p sycl-mlir-sim pool:: (skip-if-unavailable)"
if [[ "${CI_SKIP_MIRI:-0}" == 1 ]]; then
  echo "(CI_SKIP_MIRI=1: skipping the Miri smoke)"
elif cargo +nightly miri --version >/dev/null 2>&1; then
  # Disable isolation: the pool tests read wall clocks for cost-model
  # timestamps. The timeout is the hang backstop, same as repro_limits.
  MIRIFLAGS="-Zmiri-disable-isolation" \
    timeout 900 cargo +nightly miri test -q -p sycl-mlir-sim pool::
  miri_leg=passed
  echo "miri smoke passed"
else
  echo "(cargo +nightly miri not available on this runner: skipping)"
fi

# ----------------------------------------------------------------------
# TSan build: compile the scheduler stress suite under ThreadSanitizer.
# Build-only — linking an instrumented std catches ABI/layout breakage
# and keeps the TSan configuration from rotting; actually *running*
# ~200 hazard DAGs under TSan is a nightly-cron job, not a gate. Needs
# nightly + the rust-src component (-Zbuild-std: std itself must be
# instrumented, an uninstrumented panic_unwind is an ABI mismatch).
# ----------------------------------------------------------------------
step "tsan build: scheduler_stress with -Zsanitizer=thread (skip-if-unavailable)"
tsan_src="$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/Cargo.toml"
if [[ "${CI_SKIP_TSAN:-0}" == 1 ]]; then
  echo "(CI_SKIP_TSAN=1: skipping the TSan build)"
elif [[ -f "$tsan_src" ]]; then
  # A separate target dir: the sanitizer RUSTFLAGS would otherwise
  # invalidate the main cache twice per CI run.
  RUSTFLAGS="-Zsanitizer=thread" \
    timeout 900 cargo +nightly build -q -Zbuild-std \
    --target x86_64-unknown-linux-gnu --target-dir target/tsan \
    --test scheduler_stress
  tsan_leg=passed
  echo "tsan build passed"
else
  echo "(nightly rust-src not available on this runner: skipping)"
fi

# ----------------------------------------------------------------------
# Profile artifact: the opcode-mix summary (per-opcode execution totals +
# ranked fusion candidates) from a --profile=on sweep, saved under
# target/ci-artifacts/ and uploaded by the workflow — so fusion-candidate
# drift across PRs is tracked instead of re-measured by hand.
# ----------------------------------------------------------------------
step "profile artifact: opcode mix (fusion-candidate drift tracking)"
artifacts=target/ci-artifacts
mkdir -p "$artifacts"
./target/release/repro_all --quick --threads=4 --profile=on > "$tmp/profile.out"
# Keep only the profile section, minus the run-dependent wall-time and
# verifier-timing lines — the artifact must diff clean across runs when
# the opcode mix is stable.
sed -n '/^== instruction profile/,$p' "$tmp/profile.out" \
  | grep -v '^repro_wall_time_seconds:' \
  | grep -v 'verify time' > "$artifacts/opcode-mix.txt"
if ! [ -s "$artifacts/opcode-mix.txt" ]; then
  echo "FAIL: --profile=on produced no instruction profile section" >&2
  exit 1
fi
# A silently disabled matcher keeps every table diff green (fusion only
# changes wall time): the sweep must have executed superinstructions.
fused_re='^ +[0-9]+  acc\.load\.idx$'
if ! grep -Eq "$fused_re" "$artifacts/opcode-mix.txt"; then
  echo "FAIL: the opcode mix lists no fused mnemonic — did fusion run?" >&2
  exit 1
fi
head -n 14 "$artifacts/opcode-mix.txt"
echo "  ... (full opcode mix in $artifacts/opcode-mix.txt)"

# ----------------------------------------------------------------------
# Fidelity gate: the quick sweep's --json summary without its stopwatch
# fields — per-workload simulated cycles and validation, the geo-means,
# the verifier's counts — must equal the checked-in
# scripts/bench-baseline.json exactly. Every number left in it is
# machine-independent, so any drift is a change to explain; an
# intentional one (a cost-model edit) refreshes the baseline:
#   ./target/release/repro_all --quick --threads=4 --json | untimed > scripts/bench-baseline.json
# with `untimed` the filter below. Wall time is not gated here: the
# repo benchmark (benchmark/run.sh) is the instrument that measures it.
# The summary is saved under target/ci-artifacts/ and uploaded next to
# opcode-mix.txt.
# ----------------------------------------------------------------------
step "fidelity gate: repro_all --json vs scripts/bench-baseline.json, exactly"
untimed() {
  sed -E '/"geo_mean_adaptivecpp"/s/,$//; /"wall_time_seconds"/d; s/, "(wall_ms|verify_us)": [0-9.]+//'
}
./target/release/repro_all --quick --threads=4 --json > "$artifacts/bench-summary.json"
# The summary tags every workload with its family; all five must be there.
for tag in single-kernel polybench stencil reduction sparse; do
  if ! grep -qF "\"category\": \"$tag\"" "$artifacts/bench-summary.json"; then
    echo "FAIL: --json summary has no \"$tag\" workloads" >&2
    exit 1
  fi
done
if ! untimed < "$artifacts/bench-summary.json" | diff -u scripts/bench-baseline.json -; then
  echo "FAIL: the quick sweep's cycles, validation or verifier counts differ from scripts/bench-baseline.json" >&2
  echo "      (an intentional cost-model change refreshes the baseline; see above)" >&2
  exit 1
fi
echo "fidelity gate passed: $(grep -c '"cycles"' scripts/bench-baseline.json) workloads' cycles and validation as recorded"

echo
echo "CI gate passed."
summary
