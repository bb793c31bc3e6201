//! Loop-invariant code motion (§VI-A of the paper).
//!
//! Beyond the upstream-MLIR utility (which only hoists memory-effect-free
//! ops), this pass moves *memory* operations:
//!
//! * loop-invariant loads are hoisted when no write in the loop may alias
//!   the read location — proven by the SYCL-aware alias analysis (§V-A);
//! * loop-invariant stores are sunk after the loop when nothing else in the
//!   loop may touch their location;
//! * because a hoisted/sunk memory op must not execute for a zero-trip
//!   loop, the transformed loop is wrapped in a versioning guard
//!   `lb < ub`;
//! * loads blocked **only** by may-alias (not must-alias) writes are
//!   rescued by *runtime alias versioning*: the guard additionally checks
//!   `sycl.accessor.base(a) != sycl.accessor.base(b)` and the unoptimized
//!   loop is kept in the else branch.

use std::collections::{HashMap, HashSet};
use sycl_mlir_analysis::alias::{AliasAnalysis, AliasResult};
use sycl_mlir_analysis::reaching::access_target;
use sycl_mlir_ir::dialect::{is_memory_effect_free, memory_effects, traits, EffectKind};
use sycl_mlir_ir::{Builder, Module, OpId, Pass, ValueId, WalkControl};

/// Statistics of one LICM run.
#[derive(Debug, Default, Clone)]
pub struct LicmStats {
    pub pure_hoisted: usize,
    pub loads_hoisted: usize,
    pub stores_sunk: usize,
    pub guarded_loops: usize,
    pub versioned_loops: usize,
}

/// The LICM pass. `enable_versioning` controls both the zero-trip guard
/// for memory hoists and runtime alias versioning; without it only pure
/// ops move (the conservative behaviour of a SYCL-unaware compiler).
pub struct LicmPass {
    pub enable_versioning: bool,
    pub stats: LicmStats,
}

impl LicmPass {
    pub fn new(enable_versioning: bool) -> LicmPass {
        LicmPass {
            enable_versioning,
            stats: LicmStats::default(),
        }
    }
}

impl Pass for LicmPass {
    fn name(&self) -> &'static str {
        "licm"
    }

    /// The conservative pass only moves pure ops; it has nothing to add
    /// to its `changed` flag.
    fn note(&self) -> Option<String> {
        self.enable_versioning.then(|| {
            format!(
                "licm: {} pure, {} loads hoisted, {} loops guarded, {} runtime-versioned",
                self.stats.pure_hoisted,
                self.stats.loads_hoisted,
                self.stats.guarded_loops,
                self.stats.versioned_loops
            )
        })
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        let mut loops = Vec::new();
        m.walk(m.top(), &mut |op| {
            if m.op_has_trait(op, traits::LOOP_LIKE) {
                loops.push(op);
            }
            WalkControl::Advance
        });
        let mut changed = false;
        // Innermost-first so invariants bubble outward.
        for &l in loops.iter().rev() {
            if m.op_is_erased(l) {
                continue;
            }
            changed |= licm_on_loop(m, l, self.enable_versioning, &mut self.stats);
        }
        Ok(changed)
    }
}

/// A memory access inside the loop: `(op, memref, indices)`.
struct LoopAccess {
    op: OpId,
    mem: ValueId,
    indices: Vec<ValueId>,
}

fn licm_on_loop(m: &mut Module, loop_op: OpId, versioning: bool, stats: &mut LicmStats) -> bool {
    let body = m.op_region_block(loop_op, 0);
    let body_ops = m.block_ops(body).to_vec();
    let aa = AliasAnalysis::new();

    // Gather all writes/reads anywhere in the loop and whether anything has
    // unknown effects.
    let mut writes: Vec<LoopAccess> = Vec::new();
    let mut reads: Vec<LoopAccess> = Vec::new();
    let mut unknown_write = false;
    let mut unknown_read = false;
    m.walk(loop_op, &mut |op| {
        if op == loop_op {
            return WalkControl::Advance;
        }
        match memory_effects(m, op) {
            Some(effects) => {
                for e in effects {
                    match (e.kind, e.value) {
                        (EffectKind::Write, Some(_)) => {
                            if let Some((mem, indices)) = access_target(m, op) {
                                writes.push(LoopAccess { op, mem, indices });
                            } else {
                                unknown_write = true;
                            }
                        }
                        (EffectKind::Write, None) => unknown_write = true,
                        (EffectKind::Read, Some(_)) => {
                            if let Some((mem, indices)) =
                                sycl_mlir_analysis::reaching::read_target(m, op)
                            {
                                reads.push(LoopAccess { op, mem, indices });
                            } else {
                                unknown_read = true;
                            }
                        }
                        (EffectKind::Read, None) => unknown_read = true,
                        _ => {}
                    }
                }
            }
            None => {
                unknown_write = true;
                unknown_read = true;
            }
        }
        // Effects of nested loops/ifs were already collected recursively by
        // `memory_effects`; don't descend into them again.
        if m.op_has_trait(op, traits::RECURSIVE_EFFECTS) {
            return WalkControl::Skip;
        }
        WalkControl::Advance
    });

    let mut hoisted: HashSet<OpId> = HashSet::new();
    let mut pure_hoists: Vec<OpId> = Vec::new();
    let mut load_hoists: Vec<OpId> = Vec::new();
    let mut store_sinks: Vec<OpId> = Vec::new();
    // Accessor pairs that need a runtime disjointness check.
    let mut version_pairs: Vec<(ValueId, ValueId)> = Vec::new();

    let operand_ok = |m: &Module, hoisted: &HashSet<OpId>, v: ValueId| {
        m.value_defined_outside(v, loop_op)
            || m.def_op(v).map(|d| hoisted.contains(&d)).unwrap_or(false)
    };

    for &op in &body_ops {
        if m.op_has_trait(op, traits::TERMINATOR | traits::BARRIER) {
            continue;
        }
        if !m.op_regions(op).is_empty() {
            continue; // nested control flow is not hoisted wholesale
        }
        let ops_ok = m
            .op_operands(op)
            .iter()
            .all(|&v| operand_ok(m, &hoisted, v));
        if !ops_ok {
            continue;
        }
        if is_memory_effect_free(m, op) {
            hoisted.insert(op);
            pure_hoists.push(op);
            continue;
        }
        if !versioning {
            continue;
        }
        // Loads: hoistable when no write in the loop may alias.
        if let Some((mem, indices)) = sycl_mlir_analysis::reaching::read_target(m, op) {
            if unknown_write {
                continue;
            }
            let mut blocked = false;
            let mut pairs = Vec::new();
            for w in &writes {
                match aa.access_alias(m, (mem, &indices), (w.mem, &w.indices)) {
                    AliasResult::NoAlias => {}
                    AliasResult::MustAlias => {
                        blocked = true;
                        break;
                    }
                    AliasResult::MayAlias => match versionable_pair(m, mem, w.mem) {
                        Some(pair) => pairs.push(pair),
                        None => {
                            blocked = true;
                            break;
                        }
                    },
                }
            }
            if blocked {
                continue;
            }
            hoisted.insert(op);
            load_hoists.push(op);
            for p in pairs {
                if !version_pairs.contains(&p) {
                    version_pairs.push(p);
                }
            }
            continue;
        }
        // Stores: sinkable when nothing else in the loop touches the
        // location.
        if let Some((mem, indices)) = access_target(m, op) {
            if unknown_write || unknown_read {
                continue;
            }
            let mut blocked = false;
            for other in writes.iter().chain(reads.iter()) {
                if other.op == op {
                    continue;
                }
                if aa
                    .access_alias(m, (mem, &indices), (other.mem, &other.indices))
                    .may()
                {
                    blocked = true;
                    break;
                }
            }
            if !blocked {
                store_sinks.push(op);
            }
        }
    }

    if pure_hoists.is_empty() && load_hoists.is_empty() && store_sinks.is_empty() {
        return false;
    }

    // Phase 1: pure ops move unconditionally before the loop.
    for &op in &pure_hoists {
        m.detach_op(op);
        m.move_op_before(op, loop_op);
    }
    stats.pure_hoisted += pure_hoists.len();

    if load_hoists.is_empty() && store_sinks.is_empty() {
        return true;
    }

    // Phase 2: memory motion under a versioning guard.
    stats.loads_hoisted += load_hoists.len();
    stats.stores_sunk += store_sinks.len();
    stats.guarded_loops += 1;
    if !version_pairs.is_empty() {
        stats.versioned_loops += 1;
    }

    let lb = m.op_operand(loop_op, 0);
    let ub = m.op_operand(loop_op, 1);
    let inits = m.op_operands(loop_op)[3..].to_vec();
    let result_types: Vec<_> = m
        .op_results(loop_op)
        .iter()
        .map(|&r| m.value_type(r))
        .collect();

    // Clone the unoptimized loop for the else branch when runtime alias
    // checks are involved (the aliasing case must still run the original).
    let else_clone = if version_pairs.is_empty() {
        None
    } else {
        let mut mapping = HashMap::new();
        Some(m.clone_op(loop_op, &mut mapping))
    };

    // Record the loop's external uses before we build the then-yield.
    let loop_results = m.op_results(loop_op).to_vec();
    let external_uses: Vec<(usize, sycl_mlir_ir::Use)> = loop_results
        .iter()
        .enumerate()
        .flat_map(|(i, &r)| m.value_uses(r).iter().map(move |&u| (i, u)))
        .collect();

    // Build the guard condition before the loop.
    let (if_op, then_block, else_block) = {
        let mut b = Builder::before(m, loop_op);
        let mut cond = sycl_mlir_dialects::arith::cmpi(&mut b, "slt", lb, ub);
        for (acc_a, acc_b) in &version_pairs {
            let base_a = sycl_mlir_sycl::device::accessor_base(&mut b, *acc_a);
            let base_b = sycl_mlir_sycl::device::accessor_base(&mut b, *acc_b);
            let ne = sycl_mlir_dialects::arith::cmpi(&mut b, "ne", base_a, base_b);
            cond = b.build_value("arith.andi", &[cond, ne], b.ctx().i1_type(), vec![]);
        }
        let if_op = b.build("scf.if", &[cond], &result_types, vec![]);
        let m = b.module();
        let then_region = m.add_region(if_op);
        let then_block = m.add_block(then_region, &[]);
        let else_region = m.add_region(if_op);
        let else_block = m.add_block(else_region, &[]);
        (if_op, then_block, else_block)
    };

    // Then branch: hoisted loads, the (now optimized) loop, sunk stores.
    for &op in &load_hoists {
        m.detach_op(op);
        m.append_op(then_block, op);
    }
    m.detach_op(loop_op);
    m.append_op(then_block, loop_op);
    for &op in &store_sinks {
        m.detach_op(op);
        m.append_op(then_block, op);
    }
    {
        let yield_name = m.ctx().op("scf.yield");
        let y = m.create_op(yield_name, &loop_results, &[], vec![]);
        m.append_op(then_block, y);
    }

    // Else branch: original clone (aliasing case) or just the inits
    // (zero-trip case).
    {
        let else_values = match else_clone {
            Some(clone) => {
                m.append_op(else_block, clone);
                m.op_results(clone).to_vec()
            }
            None => inits,
        };
        let yield_name = m.ctx().op("scf.yield");
        let y = m.create_op(yield_name, &else_values, &[], vec![]);
        m.append_op(else_block, y);
    }

    // Redirect the recorded external uses to the scf.if results.
    for (i, u) in external_uses {
        let new_v = m.op_result(if_op, i);
        m.set_operand(u.op, u.index as usize, new_v);
    }
    true
}

/// A may-alias blocker is versionable when both bases are accessor values:
/// `sycl.accessor.base` can compare their memory identities at run time.
fn versionable_pair(m: &Module, a: ValueId, b: ValueId) -> Option<(ValueId, ValueId)> {
    let acc_a = accessor_of(m, a)?;
    let acc_b = accessor_of(m, b)?;
    Some((acc_a, acc_b))
}

fn accessor_of(m: &Module, v: ValueId) -> Option<ValueId> {
    if sycl_mlir_sycl::types::accessor_info(&m.value_type(v)).is_some() {
        return Some(v);
    }
    let d = m.def_op(v)?;
    if m.op_is(d, "sycl.accessor.subscript") {
        return Some(m.op_operand(d, 0));
    }
    if m.op_is(d, "memref.cast") {
        return accessor_of(m, m.op_operand(d, 0));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::affine::build_affine_for;
    use sycl_mlir_dialects::arith::{self, constant_index};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::memref;
    use sycl_mlir_ir::{print_module, verify, Context, Module, PassManager};
    use sycl_mlir_sycl::device::{
        global_id, load_via_id, make_id, mark_kernel, store_via_id, subscript,
    };
    use sycl_mlir_sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    fn run_licm(m: &mut Module, versioning: bool) -> LicmStats {
        let mut pass = LicmPass::new(versioning);
        let mut pm = PassManager::new();
        let changed = pass.run(m).unwrap();
        let _ = changed;
        verify(m).unwrap_or_else(|e| panic!("{e}\n{}", print_module(m)));
        let _ = &mut pm;
        pass.stats
    }

    #[test]
    fn pure_invariant_hoisted_without_guard() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "f", &[c.index_type()], &[]);
        let x = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 16);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, zero, n, one, &[], |inner, iv, _| {
                let inv = arith::addi(inner, x, x); // invariant
                let var = arith::addi(inner, inv, iv); // variant
                inner.build("llvm.store", &[var, var], &[], vec![]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let stats = run_licm(&mut m, true);
        assert_eq!(stats.pure_hoisted, 1);
        assert_eq!(stats.guarded_loops, 0);
        // The invariant add now sits directly in the function body.
        let body_ops: Vec<String> = m
            .block_ops(m.op_region_block(func, 0))
            .iter()
            .map(|&o| m.op_name_str(o).to_string())
            .collect();
        assert!(body_ops.contains(&"arith.addi".to_string()), "{body_ops:?}");
    }

    #[test]
    fn invariant_load_hoisted_with_guard() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (func, entry) = build_func(
            &mut m,
            top,
            "f",
            &[c.f32_type(), c.index_type(), c.index_type()],
            &[],
        );
        let x = m.block_arg(entry, 0);
        let lb = m.block_arg(entry, 1);
        let ub = m.block_arg(entry, 2);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let f32t = b.ctx().f32_type();
            let a = memref::alloca(&mut b, f32t.clone(), &[1]);
            let out = memref::alloca(&mut b, f32t, &[64]);
            let zero = constant_index(&mut b, 0);
            memref::store(&mut b, x, a, &[zero]);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, lb, ub, one, &[], |inner, iv, _| {
                let z = constant_index(inner, 0);
                // Loop-invariant load from `a`; the loop writes only `out`.
                let v = memref::load(inner, a, &[z]);
                memref::store(inner, v, out, &[iv]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let stats = run_licm(&mut m, true);
        assert_eq!(stats.loads_hoisted, 1);
        assert_eq!(stats.guarded_loops, 1);
        assert_eq!(stats.versioned_loops, 0);
        // An scf.if guard now wraps the loop.
        let text = print_module(&m);
        assert!(text.contains("scf.if"), "{text}");
        assert!(text.contains("arith.cmpi"), "{text}");
        let _ = func;
    }

    #[test]
    fn must_aliased_load_not_hoisted() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (_func, entry) = build_func(&mut m, top, "f", &[c.f32_type()], &[]);
        let x = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let f32t = b.ctx().f32_type();
            let a = memref::alloca(&mut b, f32t, &[1]);
            let zero = constant_index(&mut b, 0);
            memref::store(&mut b, x, a, &[zero]);
            let n = constant_index(&mut b, 8);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, zero, n, one, &[], |inner, _iv, _| {
                let z = constant_index(inner, 0);
                let v = memref::load(inner, a, &[z]);
                let doubled = arith::addf(inner, v, v);
                memref::store(inner, doubled, a, &[z]); // must-alias write
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let stats = run_licm(&mut m, true);
        assert_eq!(stats.loads_hoisted, 0);
        assert_eq!(stats.guarded_loops, 0);
    }

    /// Two accessors without host aliasing info: the load from `a` may
    /// alias the store to `b`, so LICM versions the loop with a runtime
    /// `sycl.accessor.base` disjointness check.
    #[test]
    fn may_aliased_accessors_use_runtime_versioning() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[acc.clone(), acc, nd1], &[]);
        mark_kernel(&mut m, func);
        let a = m.block_arg(entry, 0);
        let b_acc = m.block_arg(entry, 1);
        let item = m.block_arg(entry, 2);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = global_id(&mut b, item, 0);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 8);
            let one = constant_index(&mut b, 1);
            // Hoist candidate: a[0] is invariant; the loop stores b[gid+iv].
            let zero_id = make_id(&mut b, &[zero]);
            let view_a = subscript(&mut b, a, zero_id);
            build_affine_for(&mut b, zero, n, one, &[], |inner, iv, _| {
                let z = constant_index(inner, 0);
                let v = sycl_mlir_dialects::affine::load(inner, view_a, &[z]);
                let idx = arith::addi(inner, gid, iv);
                store_via_id(inner, v, b_acc, &[idx]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let stats = run_licm(&mut m, true);
        assert_eq!(stats.loads_hoisted, 1);
        assert_eq!(stats.versioned_loops, 1);
        let text = print_module(&m);
        assert!(text.contains("sycl.accessor.base"), "{text}");
        // Both the optimized and the fallback loop exist.
        assert_eq!(text.matches("affine.for").count(), 2, "{text}");
    }

    /// Without versioning (the DPC++-like conservative mode) the same loop
    /// is left untouched.
    #[test]
    fn versioning_disabled_keeps_loop() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[acc.clone(), acc, nd1], &[]);
        mark_kernel(&mut m, func);
        let a = m.block_arg(entry, 0);
        let b_acc = m.block_arg(entry, 1);
        let item = m.block_arg(entry, 2);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = global_id(&mut b, item, 0);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 8);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, zero, n, one, &[], |inner, iv, _| {
                let v = load_via_id(inner, a, &[zero]);
                let idx = arith::addi(inner, gid, iv);
                store_via_id(inner, v, b_acc, &[idx]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let stats = run_licm(&mut m, false);
        assert_eq!(stats.loads_hoisted, 0);
        assert_eq!(stats.versioned_loops, 0);
    }
}
