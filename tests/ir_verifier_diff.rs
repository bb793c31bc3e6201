//! The IR verifier against its reference.
//!
//! `sycl_mlir_ir::verify` is one scoped walk that never scans a block on a
//! valid module. The walk it replaced — a structural dominance query and an
//! isolation sweep per op — lives on here as [`reference_verify`], written
//! against nothing but `Module`'s public API, and the two must agree on the
//! verdict *and* on the message list, in order, on:
//!
//! * every module the pass manager verifies while all registered programs
//!   compile under all three flows and the AdaptiveCpp programs
//!   JIT-specialize at launch;
//! * a corpus of broken modules, hand-built per message class and seeded.
//!
//! Also here: the verifier's scaling pin and the pipeline's verify counters
//! summed over the whole suite.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::benchsuite::all_workloads;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::ir::{
    traits, verify, BlockId, Context, Module, OpId, OpInfo, ValueDef, ValueId, WalkControl,
};
use sycl_mlir_repro::runtime::{compile_program, exec};
use sycl_mlir_repro::sim::Device;

// ----------------------------------------------------------------------
// The reference: the verifier as it was before the scoped walk.
// ----------------------------------------------------------------------

fn reference_verify(m: &Module) -> Result<(), Vec<String>> {
    let mut messages = Vec::new();
    m.walk(m.top(), &mut |op| {
        reference_verify_op(m, op, &mut messages);
        WalkControl::Advance
    });
    if messages.is_empty() {
        Ok(())
    } else {
        Err(messages)
    }
}

fn reference_verify_op(m: &Module, op: OpId, messages: &mut Vec<String>) {
    let info = m.op_info(op);
    let name = m.op_name_str(op);

    if let Some(f) = info.verify {
        if let Err(e) = f(m, op) {
            messages.push(format!("`{name}`: {e}"));
        }
    }

    let is_module_like = &*name == "builtin.module";
    for (ri, &region) in m.op_regions(op).iter().enumerate() {
        let blocks = m.region_blocks(region);
        if blocks.len() != 1 {
            messages.push(format!(
                "`{name}`: region #{ri} must contain exactly one block (structured IR), found {}",
                blocks.len()
            ));
            continue;
        }
        let ops = m.block_ops(blocks[0]);
        for (i, &inner) in ops.iter().enumerate() {
            if m.op_info(inner).has_trait(traits::TERMINATOR) && i + 1 != ops.len() {
                messages.push(format!(
                    "`{}` inside `{name}`: terminator is not the last operation of its block",
                    m.op_name_str(inner)
                ));
            }
        }
        if !is_module_like {
            match ops.last() {
                Some(&last) if m.op_info(last).has_trait(traits::TERMINATOR) => {}
                Some(&last) => messages.push(format!(
                    "`{name}`: region #{ri} does not end with a terminator (ends with `{}`)",
                    m.op_name_str(last)
                )),
                None => messages.push(format!("`{name}`: region #{ri} has an empty block")),
            }
        }
    }

    for (i, &v) in m.op_operands(op).iter().enumerate() {
        if m.value_is_erased(v) {
            messages.push(format!("`{name}`: operand #{i} refers to an erased value"));
            continue;
        }
        if !reference_value_dominates(m, v, op) {
            messages.push(format!(
                "`{name}`: operand #{i} is not dominated by its definition"
            ));
        }
    }

    if info.has_trait(traits::ISOLATED_FROM_ABOVE) {
        for inner in m.nested_ops(op) {
            for (i, &v) in m.op_operands(inner).iter().enumerate() {
                if m.value_defined_outside(v, op) {
                    messages.push(format!(
                        "`{}` inside isolated `{name}`: operand #{i} captures a value from above",
                        m.op_name_str(inner)
                    ));
                }
            }
        }
    }
}

fn reference_value_dominates(m: &Module, v: ValueId, op: OpId) -> bool {
    match m.value_def(v) {
        ValueDef::BlockArg { block, .. } => {
            let mut cur = Some(op);
            while let Some(c) = cur {
                if m.op_parent_block(c) == Some(block) {
                    return true;
                }
                cur = m.op_parent_op(c);
            }
            false
        }
        ValueDef::OpResult { op: def_op, .. } => {
            let Some(def_block) = m.op_parent_block(def_op) else {
                return false;
            };
            let mut cur = Some(op);
            while let Some(c) = cur {
                if c == def_op {
                    return false;
                }
                if m.op_parent_block(c) == Some(def_block) {
                    return m.op_index_in_block(def_op) < m.op_index_in_block(c);
                }
                cur = m.op_parent_op(c);
            }
            false
        }
    }
}

/// Both verifiers' answers on `m`, which must be the same.
fn same_verdict(m: &Module, what: &str) -> Result<(), Vec<String>> {
    let new = verify(m).map_err(|e| e.messages);
    assert_eq!(new, reference_verify(m), "{what}:\n{m:?}");
    new
}

// ----------------------------------------------------------------------
// Every module the real pipelines verify.
// ----------------------------------------------------------------------

#[derive(Default)]
struct Probe {
    /// Set while the hook compares: both verifiers it calls reach the hook
    /// again.
    comparing: bool,
    modules: u32,
    mismatches: Vec<String>,
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

/// Verify hook of `test.probe`. The pass manager's verifier calls it once
/// per module it verifies, with that module: the place to run the reference
/// on exactly what the pipeline sees between two passes.
fn probe_hook(m: &Module, _op: OpId) -> Result<(), String> {
    if PROBE.with(|p| std::mem::replace(&mut p.borrow_mut().comparing, true)) {
        return Ok(());
    }
    let new = verify(m).map_err(|e| e.messages);
    let reference = reference_verify(m);
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        p.comparing = false;
        p.modules += 1;
        if new != reference {
            p.mismatches
                .push(format!("new {new:?}\nreference {reference:?}"));
        }
    });
    Ok(())
}

/// Put one `test.probe` at the end of the module's top-level block.
fn install_probe(m: &mut Module) {
    let ctx = m.ctx().clone();
    let name = ctx.register_op(OpInfo::new("test.probe").with_verify(probe_hook));
    let op = m.create_op(name, &[], &[], vec![]);
    let top = m.top_block();
    m.append_op(top, op);
}

fn probed_modules() -> u32 {
    PROBE.with(|p| p.borrow().modules)
}

#[test]
fn every_pipeline_stage_module_of_every_program_and_flow_agrees() {
    let device = Device::new();
    let mut jit_modules = 0;
    for w in all_workloads() {
        for kind in FlowKind::all() {
            let label = format!("{} [{}]", w.name, kind.name());
            let mut app = (w.build)(quick_size(&w));
            install_probe(&mut app.module);

            let before = probed_modules();
            let mut program =
                compile_program(kind, app.module).unwrap_or_else(|e| panic!("{label}: {e}"));
            let stats = &program.outcome.pass_stats;
            assert_eq!(probed_modules() - before, stats.verifies_run, "{label}");
            assert_eq!(
                (stats.verifies_run + stats.verifies_skipped) as usize,
                stats.per_pass.len(),
                "{label}"
            );

            // The launch-time pipeline (`Flow::jit_specialize`) runs inside
            // `exec::run`, once per kernel.
            if kind == FlowKind::AdaptiveCpp {
                let before = probed_modules();
                exec::run(&mut program, &mut app.runtime, &app.queue, &device)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                jit_modules += probed_modules() - before;
            }
        }
    }
    assert!(jit_modules > 0, "no JIT pipeline was observed");
    PROBE.with(|p| {
        let p = p.borrow();
        assert!(p.mismatches.is_empty(), "{}", p.mismatches.join("\n\n"));
    });
}

/// The pipeline's verify counters over the whole suite: deterministic work
/// counts. `verifies_run` moves only when a pass starts or stops touching
/// some program's module; the sum is the number of pass runs.
#[test]
fn verify_counters_over_the_suite_are_pinned() {
    let (mut run, mut skipped, mut passes) = (0, 0, 0);
    for w in all_workloads() {
        for kind in FlowKind::all() {
            let app = (w.build)(quick_size(&w));
            let program = compile_program(kind, app.module).expect("compiles");
            let stats = &program.outcome.pass_stats;
            run += stats.verifies_run;
            skipped += stats.verifies_skipped;
            passes += stats.per_pass.len() as u32;
            assert!(stats.verify_time > Duration::ZERO);
        }
    }
    assert_eq!(all_workloads().len(), 48);
    assert_eq!(passes, 48 * (3 + 3 + 10));
    assert_eq!((run, skipped), (VERIFIES_RUN, VERIFIES_SKIPPED));
}

const VERIFIES_RUN: u32 = 411;
const VERIFIES_SKIPPED: u32 = 357;

// ----------------------------------------------------------------------
// Broken modules.
// ----------------------------------------------------------------------

/// A context with one op per role the verifier distinguishes.
fn toy_ctx() -> Context {
    let ctx = Context::new();
    ctx.register_op(OpInfo::new("t.op"));
    ctx.register_op(OpInfo::new("t.ret").with_traits(traits::TERMINATOR));
    ctx.register_op(OpInfo::new("t.wrap"));
    ctx.register_op(OpInfo::new("t.iso").with_traits(traits::ISOLATED_FROM_ABOVE));
    ctx.register_op(OpInfo::new("t.bad").with_verify(|_, _| Err("always wrong".into())));
    ctx
}

/// Create a detached `name` op with `results` i32 results.
fn op(m: &mut Module, name: &str, operands: &[ValueId], results: usize) -> OpId {
    let ctx = m.ctx().clone();
    let types = vec![ctx.i32_type(); results];
    m.create_op(ctx.op(name), operands, &types, vec![])
}

/// Create and append.
fn op_in(m: &mut Module, block: BlockId, name: &str, operands: &[ValueId], results: usize) -> OpId {
    let o = op(m, name, operands, results);
    m.append_op(block, o);
    o
}

/// Append a `name` op with one region of one block with `args` arguments.
fn region_op_in(m: &mut Module, block: BlockId, name: &str, args: usize) -> (OpId, BlockId) {
    let o = op_in(m, block, name, &[], 0);
    let region = m.add_region(o);
    let types = vec![m.ctx().i32_type(); args];
    (o, m.add_block(region, &types))
}

fn messages_of(m: &Module, what: &str) -> Vec<String> {
    same_verdict(m, what).expect_err(what)
}

#[test]
fn terminator_and_region_shape_classes() {
    let ctx = toy_ctx();
    let mut m = Module::new(&ctx);
    let top = m.top_block();

    // Misplaced terminator, and the block then ends without one.
    let (_, b) = region_op_in(&mut m, top, "t.wrap", 0);
    op_in(&mut m, b, "t.ret", &[], 0);
    op_in(&mut m, b, "t.op", &[], 0);
    // Empty block.
    region_op_in(&mut m, top, "t.wrap", 0);
    // Two blocks in one region, then a well-formed second region; the ops
    // of both blocks are still visited.
    let (multi, b0) = region_op_in(&mut m, top, "t.wrap", 0);
    op_in(&mut m, b0, "t.bad", &[], 0);
    let region = m.op_regions(multi)[0];
    let b1 = m.add_block(region, &[]);
    op_in(&mut m, b1, "t.bad", &[], 0);
    let second = m.add_region(multi);
    let b2 = m.add_block(second, &[]);
    op_in(&mut m, b2, "t.ret", &[], 0);

    assert_eq!(
        messages_of(&m, "shape classes"),
        [
            "`t.ret` inside `t.wrap`: terminator is not the last operation of its block",
            "`t.wrap`: region #0 does not end with a terminator (ends with `t.op`)",
            "`t.wrap`: region #0 has an empty block",
            "`t.wrap`: region #0 must contain exactly one block (structured IR), found 2",
            "`t.bad`: always wrong",
            "`t.bad`: always wrong",
        ]
    );
}

#[test]
fn dominance_classes() {
    let ctx = toy_ctx();
    let mut m = Module::new(&ctx);
    let top = m.top_block();

    // Use before def.
    let late = op(&mut m, "t.op", &[], 1);
    let late_v = m.op_result(late, 0);
    op_in(&mut m, top, "t.op", &[late_v], 0);
    m.append_op(top, late);

    // A value of one region used in its sibling, and a block argument used
    // after its op.
    let (_, left) = region_op_in(&mut m, top, "t.wrap", 1);
    let left_arg = m.block_arg(left, 0);
    let inner = op_in(&mut m, left, "t.op", &[left_arg], 1);
    let inner_v = m.op_result(inner, 0);
    op_in(&mut m, left, "t.ret", &[], 0);
    let (_, right) = region_op_in(&mut m, top, "t.wrap", 0);
    op_in(&mut m, right, "t.ret", &[inner_v], 0);
    op_in(&mut m, top, "t.op", &[left_arg, late_v], 0);

    // A use nested inside its own definition.
    let outer = op_in(&mut m, top, "t.wrap", &[], 1);
    let outer_v = m.op_result(outer, 0);
    let region = m.add_region(outer);
    let body = m.add_block(region, &[]);
    op_in(&mut m, body, "t.ret", &[outer_v], 0);

    // An erased operand, and a definition that was never attached.
    let gone = op(&mut m, "t.op", &[], 1);
    let gone_v = m.op_result(gone, 0);
    m.erase_op(gone);
    let loose = op(&mut m, "t.op", &[], 1);
    let loose_v = m.op_result(loose, 0);
    op_in(&mut m, top, "t.op", &[gone_v, loose_v, late_v], 0);

    // An erased definition put back in front of its use is still erased
    // (and, being under the root again, not a capture).
    let undead = op(&mut m, "t.op", &[], 1);
    let undead_v = m.op_result(undead, 0);
    m.erase_op(undead);
    m.append_op(top, undead);
    op_in(&mut m, top, "t.op", &[undead_v], 0);

    assert_eq!(
        messages_of(&m, "dominance classes"),
        [
            // The root module is isolated: a definition not under it at all
            // is a capture, reported with the root's own messages.
            "`t.op` inside isolated `builtin.module`: operand #0 captures a value from above",
            "`t.op` inside isolated `builtin.module`: operand #1 captures a value from above",
            "`t.op`: operand #0 is not dominated by its definition",
            "`t.ret`: operand #0 is not dominated by its definition",
            "`t.op`: operand #0 is not dominated by its definition",
            "`t.ret`: operand #0 is not dominated by its definition",
            "`t.op`: operand #0 refers to an erased value",
            "`t.op`: operand #1 is not dominated by its definition",
            "`t.op`: operand #0 refers to an erased value",
        ]
    );
}

#[test]
fn capture_classes() {
    let ctx = toy_ctx();
    let mut m = Module::new(&ctx);
    let top = m.top_block();

    let def = op_in(&mut m, top, "t.op", &[], 1);
    let above = m.op_result(def, 0);

    // `outer` and `inner` are isolated; `mid` lives between them.
    let (_, outer) = region_op_in(&mut m, top, "t.iso", 1);
    let outer_arg = m.block_arg(outer, 0);
    op_in(&mut m, outer, "t.op", &[above, outer_arg], 0); // across one
    let mid = op_in(&mut m, outer, "t.op", &[], 1);
    let mid_v = m.op_result(mid, 0);
    let (_, inner) = region_op_in(&mut m, outer, "t.iso", 0);
    // Across two, across one, and a non-dominated use that is a capture
    // too: `late` is defined after `inner` in `outer`'s block.
    let late = op(&mut m, "t.op", &[], 1);
    let late_v = m.op_result(late, 0);
    op_in(&mut m, inner, "t.op", &[above, mid_v, outer_arg], 0);
    op_in(&mut m, inner, "t.ret", &[late_v], 0);
    m.append_op(outer, late);
    op_in(&mut m, outer, "t.ret", &[], 0);

    assert_eq!(
        messages_of(&m, "capture classes"),
        [
            // `outer`'s captures, its whole subtree in pre-order …
            "`t.op` inside isolated `t.iso`: operand #0 captures a value from above",
            "`t.op` inside isolated `t.iso`: operand #0 captures a value from above",
            // … then `inner`'s, right after `inner`'s own (it has none) …
            "`t.op` inside isolated `t.iso`: operand #0 captures a value from above",
            "`t.op` inside isolated `t.iso`: operand #1 captures a value from above",
            "`t.op` inside isolated `t.iso`: operand #2 captures a value from above",
            "`t.ret` inside isolated `t.iso`: operand #0 captures a value from above",
            // … then the ops inside `inner`.
            "`t.ret`: operand #0 is not dominated by its definition",
        ]
    );
}

/// xorshift64*: the corpus must not change with a dependency's generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// What the generator has made so far, for later ops to pick from — with
/// no regard for what is in scope where.
#[derive(Default)]
struct Pool {
    values: Vec<ValueId>,
    ops: Vec<OpId>,
}

impl Pool {
    fn operands(&self, rng: &mut Rng) -> Vec<ValueId> {
        if self.values.is_empty() {
            return Vec::new();
        }
        (0..rng.below(3))
            .map(|_| self.values[rng.below(self.values.len())])
            .collect()
    }

    fn add(&mut self, m: &Module, o: OpId) {
        self.ops.push(o);
        self.values.extend_from_slice(m.op_results(o));
    }
}

fn random_block(m: &mut Module, block: BlockId, depth: usize, rng: &mut Rng, pool: &mut Pool) {
    for _ in 0..rng.below(5) {
        let operands = pool.operands(rng);
        match rng.below(10) {
            0..=4 => {
                let results = rng.below(3);
                let o = op_in(m, block, "t.op", &operands, results);
                pool.add(m, o);
            }
            5 => {
                let o = op_in(m, block, "t.ret", &operands, 0);
                pool.add(m, o);
            }
            6 => {
                op_in(m, block, "t.bad", &operands, 0);
            }
            _ if depth == 4 => {}
            kind => {
                let name = if kind == 7 { "t.iso" } else { "t.wrap" };
                let results = rng.below(2);
                let o = op_in(m, block, name, &operands, results);
                for _ in 0..1 + rng.below(2) {
                    let region = m.add_region(o);
                    let blocks = if rng.one_in(8) { 2 * rng.below(2) } else { 1 };
                    for _ in 0..blocks {
                        let types = vec![m.ctx().i32_type(); rng.below(3)];
                        let inner = m.add_block(region, &types);
                        pool.values.extend_from_slice(m.block_args(inner));
                        random_block(m, inner, depth + 1, rng, pool);
                    }
                }
                // After its regions: uses inside them are uses inside
                // their own definition.
                pool.add(m, o);
            }
        }
    }
    if !rng.one_in(4) {
        let operands = pool.operands(rng);
        let o = op_in(m, block, "t.ret", &operands, 0);
        pool.add(m, o);
    }
}

fn random_module(ctx: &Context, seed: u64) -> Module {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut m = Module::new(ctx);
    let mut pool = Pool::default();
    // An erased and a never-attached definition to pick from.
    let gone = op(&mut m, "t.op", &[], 1);
    let loose = op(&mut m, "t.op", &[], 1);
    if rng.one_in(2) {
        pool.values.push(m.op_result(gone, 0));
        pool.values.push(m.op_result(loose, 0));
    }
    m.erase_op(gone);
    let top = m.top_block();
    random_block(&mut m, top, 0, &mut rng, &mut pool);
    // Rewire some operands to values made later (or anywhere).
    for _ in 0..rng.below(4) {
        if pool.ops.is_empty() || pool.values.is_empty() {
            break;
        }
        let o = pool.ops[rng.below(pool.ops.len())];
        let v = pool.values[rng.below(pool.values.len())];
        match m.op_operands(o).len() {
            0 => m.push_operand(o, v),
            n => m.set_operand(o, rng.below(n), v),
        }
    }
    m
}

#[test]
fn seeded_corpus_of_broken_modules_agrees() {
    const CLASSES: [&str; 9] = [
        "always wrong",
        "must contain exactly one block",
        "terminator is not the last operation",
        "does not end with a terminator",
        "has an empty block",
        "refers to an erased value",
        "is not dominated by its definition",
        "inside isolated `t.iso`: operand",
        "inside isolated `builtin.module`: operand",
    ];
    let ctx = toy_ctx();
    let mut seen = [0u32; CLASSES.len()];
    let (mut valid, mut multi_message) = (0, 0);
    for seed in 0..600 {
        let m = random_module(&ctx, seed);
        match same_verdict(&m, &format!("seed {seed}")) {
            Ok(()) => valid += 1,
            Err(messages) => {
                multi_message += (messages.len() > 3) as u32;
                for (class, n) in CLASSES.iter().zip(&mut seen) {
                    *n += messages.iter().any(|msg| msg.contains(class)) as u32;
                }
            }
        }
    }
    for (class, n) in CLASSES.iter().zip(seen) {
        assert!(n >= 5, "only {n} modules with a `{class}` message");
    }
    assert!(valid >= 5, "only {valid} valid modules");
    assert!(multi_message >= 100, "{multi_message}");
}

// ----------------------------------------------------------------------
// Scaling.
// ----------------------------------------------------------------------

/// One isolated function whose single block holds `n` ops, each using the
/// results of the one before it and of the first.
fn chain_module(ctx: &Context, n: usize) -> Module {
    let mut m = Module::new(ctx);
    let top = m.top_block();
    let (_, body) = region_op_in(&mut m, top, "t.iso", 1);
    let first = m.block_arg(body, 0);
    let mut prev = first;
    for _ in 0..n {
        let o = op_in(&mut m, body, "t.op", &[prev, first], 1);
        prev = m.op_result(o, 0);
    }
    op_in(&mut m, body, "t.ret", &[prev], 0);
    m
}

fn min_verify_time(m: &Module) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            verify(m).expect("valid");
            start.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn verifying_one_long_block_is_linear() {
    let ctx = toy_ctx();
    let small = min_verify_time(&chain_module(&ctx, 8 << 10));
    let large = min_verify_time(&chain_module(&ctx, 64 << 10));
    // Eight times the ops: linear is 8x, a scan per operand is 64x.
    assert!(
        large < small * 24,
        "8k ops: {small:?}, 64k ops: {large:?} ({:.1}x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
