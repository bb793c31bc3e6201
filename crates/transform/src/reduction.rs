//! Array-reduction detection (§VI-B of the paper, Listings 4→5).
//!
//! Finds loops that load an invariant array element, accumulate into it and
//! store it back every iteration, and rewrites them to carry the running
//! value in an `iter_args` scalar: the `2N` memory accesses become `2`.
//! Legality rests on the SYCL-aware alias analysis: nothing else in the
//! loop may touch the reduced location.

use sycl_mlir_analysis::alias::{AliasAnalysis, AliasResult};
use sycl_mlir_analysis::reaching::{access_target, read_target};
use sycl_mlir_ir::dialect::{memory_effects, traits, EffectKind};
use sycl_mlir_ir::{Builder, FxHashMap, Module, OpId, Pass, ValueId, WalkControl};

/// The reduction-detection pass.
#[derive(Default)]
pub struct DetectReductionPass {
    /// Number of reductions rewritten (the paper counts 5 in Correlation
    /// and 4 in Covariance).
    pub rewritten: usize,
}

impl Pass for DetectReductionPass {
    fn name(&self) -> &'static str {
        "detect-reduction"
    }

    fn note(&self) -> Option<String> {
        Some(format!("reductions rewritten: {}", self.rewritten))
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        let mut changed = false;
        // Repeat until no loop offers another opportunity (several array
        // reductions can live in one loop).
        loop {
            let mut loops = Vec::new();
            m.walk(m.top(), &mut |op| {
                if m.op_has_trait(op, traits::LOOP_LIKE) {
                    loops.push(op);
                }
                WalkControl::Advance
            });
            let mut round = false;
            for &l in loops.iter().rev() {
                if m.op_is_erased(l) {
                    continue;
                }
                if detect_and_rewrite(m, l) {
                    self.rewritten += 1;
                    round = true;
                    changed = true;
                    break; // op ids shifted; re-collect loops
                }
            }
            if !round {
                break;
            }
        }
        Ok(changed)
    }
}

/// One reduction candidate inside a loop.
struct Candidate {
    load: OpId,
    store: OpId,
}

fn detect_and_rewrite(m: &mut Module, loop_op: OpId) -> bool {
    let Some(cand) = find_candidate(m, loop_op) else {
        return false;
    };
    rewrite(m, loop_op, cand);
    true
}

fn find_candidate(m: &Module, loop_op: OpId) -> Option<Candidate> {
    let aa = AliasAnalysis::new();
    let body = m.op_region_block(loop_op, 0);
    let body_ops = m.block_ops(body).to_vec();

    // Collect all memory accesses in the loop (recursively) once.
    let mut all_accesses: Vec<(OpId, ValueId, Vec<ValueId>, EffectKind)> = Vec::new();
    let mut unknown = false;
    m.walk(loop_op, &mut |op| {
        if op == loop_op {
            return WalkControl::Advance;
        }
        match memory_effects(m, op) {
            Some(effects) => {
                for e in &effects {
                    match e.kind {
                        EffectKind::Write => match access_target(m, op) {
                            Some((mem, idx)) => {
                                all_accesses.push((op, mem, idx, EffectKind::Write))
                            }
                            None => {
                                if e.value.is_none() {
                                    unknown = true
                                }
                            }
                        },
                        EffectKind::Read => match read_target(m, op) {
                            Some((mem, idx)) => all_accesses.push((op, mem, idx, EffectKind::Read)),
                            None => {
                                if e.value.is_none() {
                                    unknown = true
                                }
                            }
                        },
                        _ => {}
                    }
                }
            }
            None => unknown = true,
        }
        if m.op_has_trait(op, traits::RECURSIVE_EFFECTS) {
            return WalkControl::Skip;
        }
        WalkControl::Advance
    });
    if unknown {
        return None;
    }

    // Pattern: a top-level invariant load L and a later top-level store S to
    // provably the same location, with no other may-aliasing access.
    for (si, &store) in body_ops.iter().enumerate() {
        if !(m.op_is(store, "affine.store") || m.op_is(store, "memref.store")) {
            continue;
        }
        let (smem, sidx) = access_target(m, store)?;
        // Target must be loop-invariant.
        let invariant = m.value_defined_outside(smem, loop_op)
            && sidx.iter().all(|&v| m.value_defined_outside(v, loop_op));
        if !invariant {
            continue;
        }
        for &load in &body_ops[..si] {
            if !(m.op_is(load, "affine.load") || m.op_is(load, "memref.load")) {
                continue;
            }
            let Some((lmem, lidx)) = read_target(m, load) else {
                continue;
            };
            if aa.access_alias(m, (lmem, &lidx), (smem, &sidx)) != AliasResult::MustAlias {
                continue;
            }
            let l_invariant = m.value_defined_outside(lmem, loop_op)
                && lidx.iter().all(|&v| m.value_defined_outside(v, loop_op));
            if !l_invariant {
                continue;
            }
            // No other access may alias the location.
            let clean = all_accesses.iter().all(|(op, mem, idx, _)| {
                *op == load
                    || *op == store
                    || aa.access_alias(m, (smem, &sidx), (*mem, idx)) == AliasResult::NoAlias
            });
            if clean {
                return Some(Candidate { load, store });
            }
        }
    }
    None
}

/// Rewrite Listing 4 into Listing 5: pre-load the element, thread the
/// running value through `iter_args`, store once after the loop.
fn rewrite(m: &mut Module, loop_op: OpId, cand: Candidate) {
    let (lmem, lidx) = read_target(m, cand.load).expect("load target");
    let stored_value = m.op_operand(cand.store, 0);
    let elem_ty = m.value_type(m.op_result(cand.load, 0)).clone();
    let load_name = m.op_name_str(cand.load).to_string();
    let store_name = m.op_name_str(cand.store).to_string();

    // Initial value: re-load the element before the loop.
    let init = {
        let mut b = Builder::before(m, loop_op);
        let mut operands = vec![lmem];
        operands.extend_from_slice(&lidx);
        b.build_value(&load_name, &operands, elem_ty.clone(), vec![])
    };

    // Rebuild the loop with one extra iter_arg.
    let old_operands = m.op_operands(loop_op).to_vec();
    let old_results = m.op_results(loop_op).to_vec();
    let old_body = m.op_region_block(loop_op, 0);
    let old_args = m.block_args(old_body).to_vec();
    let old_yield = m.block_terminator(old_body).expect("loop terminator");
    let old_yield_operands = m.op_operands(old_yield).to_vec();
    let yield_name = m.op_name_str(old_yield).to_string();

    let mut new_operands = old_operands.clone();
    new_operands.push(init);
    let mut new_result_types: Vec<_> = old_results
        .iter()
        .map(|&r| m.value_type(r).clone())
        .collect();
    new_result_types.push(elem_ty.clone());
    let loop_name = m.op_name(loop_op);
    let attrs = m.op_attrs(loop_op).to_vec();
    let new_loop = m.create_op_interned(loop_name, &new_operands, &new_result_types, attrs);
    let region = m.add_region(new_loop);
    let mut arg_types: Vec<_> = old_args.iter().map(|&a| m.value_type(a).clone()).collect();
    arg_types.push(elem_ty);
    let new_body = m.add_block(region, &arg_types);

    let mut mapping: FxHashMap<ValueId, ValueId> = FxHashMap::default();
    for (i, &old_arg) in old_args.iter().enumerate() {
        mapping.insert(old_arg, m.block_arg(new_body, i));
    }
    // The load's result is replaced by the carried scalar.
    let red_arg = m.block_arg(new_body, old_args.len());
    mapping.insert(m.op_result(cand.load, 0), red_arg);

    for &op in m.block_ops(old_body).to_vec().iter() {
        if op == cand.load || op == cand.store || op == old_yield {
            continue;
        }
        let cloned = m.clone_op(op, &mut mapping);
        m.append_op(new_body, cloned);
    }
    // New yield: old values + the running value.
    let mut new_yield_operands: Vec<ValueId> = old_yield_operands
        .iter()
        .map(|v| *mapping.get(v).unwrap_or(v))
        .collect();
    new_yield_operands.push(*mapping.get(&stored_value).unwrap_or(&stored_value));
    {
        let yname = m.ctx().op(&yield_name);
        let y = m.create_op(yname, &new_yield_operands, &[], vec![]);
        m.append_op(new_body, y);
    }

    // Insert the new loop before the old one, store the final value after.
    let block = m.op_parent_block(loop_op).expect("attached loop");
    let index = m.op_index_in_block(loop_op);
    m.insert_op(block, index, new_loop);
    {
        let mut b = Builder::at(m, block, index + 1);
        let final_v = b.module().op_result(new_loop, new_result_types.len() - 1);
        let mut operands = vec![final_v, lmem];
        operands.extend_from_slice(&lidx);
        b.build(&store_name, &operands, &[], vec![]);
    }

    // Rewire old results and erase the old loop.
    for (i, &r) in old_results.iter().enumerate() {
        let n = m.op_result(new_loop, i);
        m.replace_all_uses(r, n);
    }
    m.erase_op(loop_op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::affine::{build_affine_for, load, store};
    use sycl_mlir_dialects::arith;
    use sycl_mlir_dialects::arith::constant_index;
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_ir::{print_module, verify, Context, Module};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    /// The paper's Listing 4 → Listing 5 rewrite.
    #[test]
    fn listing4_becomes_listing5() {
        let c = ctx();
        let mut m = Module::new(&c);
        let f32t = c.f32_type();
        let mem1 = c.memref_type(f32t.clone(), &[1]);
        let memd = c.memref_type(f32t, &[-1]);
        let top = m.top();
        let (func, entry) = build_func(
            &mut m,
            top,
            "reduction",
            &[mem1, memd, c.index_type(), c.index_type()],
            &[],
        );
        // Host analysis proved the two arrays live in distinct buffers —
        // the SYCL-aware AA precondition for the rewrite (§VI-B).
        sycl_mlir_sycl::facts::BUFFER_IDS.set(&mut m, func, vec![0, 1, -1, -1]);
        let ptr = m.block_arg(entry, 0);
        let other = m.block_arg(entry, 1);
        let lb = m.block_arg(entry, 2);
        let ub = m.block_arg(entry, 3);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let one = constant_index(&mut b, 1);
            let zero = constant_index(&mut b, 0);
            build_affine_for(&mut b, lb, ub, one, &[], |inner, iv, _| {
                let val = load(inner, ptr, &[zero]);
                let o = load(inner, other, &[iv]);
                let res = arith::addf(inner, val, o);
                store(inner, res, ptr, &[zero]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let mut pass = DetectReductionPass::default();
        let changed = pass.run(&mut m).unwrap();
        assert!(changed);
        assert_eq!(pass.rewritten, 1);
        verify(&m).unwrap_or_else(|e| panic!("{e}\n{}", print_module(&m)));

        let text = print_module(&m);
        // The loop now carries one iter_arg and yields it.
        assert!(text.contains("affine.yield"), "{text}");
        // Exactly one load and one store of ptr remain, both outside the loop.
        let func_block = m.op_region_block(func, 0);
        let loop_op = m
            .block_ops(func_block)
            .iter()
            .copied()
            .find(|&o| m.op_is(o, "affine.for"))
            .unwrap();
        assert_eq!(m.op_results(loop_op).len(), 1);
        // Inside the loop: no store at all, and only the `other` load.
        let mut inner_stores = 0;
        let mut inner_loads = 0;
        m.walk(loop_op, &mut |op| {
            if m.op_is(op, "affine.store") {
                inner_stores += 1;
            }
            if m.op_is(op, "affine.load") {
                inner_loads += 1;
            }
            WalkControl::Advance
        });
        assert_eq!(inner_stores, 0, "{text}");
        assert_eq!(inner_loads, 1, "{text}");
    }

    /// When `%ptr` and `%other_ptr` may alias (two raw memref args), the
    /// rewrite must not fire — the paper's legality condition.
    #[test]
    fn aliasing_blocks_rewrite() {
        let c = ctx();
        let mut m = Module::new(&c);
        let f32t = c.f32_type();
        let memd = c.memref_type(f32t, &[-1]);
        let top = m.top();
        let (_func, entry) = build_func(
            &mut m,
            top,
            "maybe_aliased",
            &[memd.clone(), memd, c.index_type(), c.index_type()],
            &[],
        );
        let ptr = m.block_arg(entry, 0);
        let other = m.block_arg(entry, 1);
        let lb = m.block_arg(entry, 2);
        let ub = m.block_arg(entry, 3);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let one = constant_index(&mut b, 1);
            let zero = constant_index(&mut b, 0);
            build_affine_for(&mut b, lb, ub, one, &[], |inner, iv, _| {
                let val = load(inner, ptr, &[zero]);
                let o = load(inner, other, &[iv]);
                let res = arith::addf(inner, val, o);
                store(inner, res, ptr, &[zero]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let mut pass = DetectReductionPass::default();
        let changed = pass.run(&mut m).unwrap();
        assert!(!changed);
        assert_eq!(pass.rewritten, 0);
    }

    /// Multiple reductions in one loop are all rewritten (Correlation has
    /// five, §VIII).
    #[test]
    fn multiple_reductions_in_one_loop() {
        let c = ctx();
        let mut m = Module::new(&c);
        let f32t = c.f32_type();
        let mem2 = c.memref_type(f32t.clone(), &[2]);
        let memd = c.memref_type(f32t, &[-1]);
        let top = m.top();
        let (func, entry) = build_func(
            &mut m,
            top,
            "two_reductions",
            &[mem2, memd, c.index_type(), c.index_type()],
            &[],
        );
        sycl_mlir_sycl::facts::BUFFER_IDS.set(&mut m, func, vec![0, 1, -1, -1]);
        let acc = m.block_arg(entry, 0);
        let other = m.block_arg(entry, 1);
        let lb = m.block_arg(entry, 2);
        let ub = m.block_arg(entry, 3);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let one = constant_index(&mut b, 1);
            let zero = constant_index(&mut b, 0);
            let one_i = constant_index(&mut b, 1);
            build_affine_for(&mut b, lb, ub, one, &[], |inner, iv, _| {
                let v0 = load(inner, acc, &[zero]);
                let o = load(inner, other, &[iv]);
                let s0 = arith::addf(inner, v0, o);
                store(inner, s0, acc, &[zero]);
                let v1 = load(inner, acc, &[one_i]);
                let s1 = arith::mulf(inner, v1, o);
                store(inner, s1, acc, &[one_i]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let mut pass = DetectReductionPass::default();
        pass.run(&mut m).unwrap();
        assert_eq!(pass.rewritten, 2);
        verify(&m).unwrap_or_else(|e| panic!("{e}\n{}", print_module(&m)));
        // The surviving loop carries two scalars and does only the `other`
        // load inside.
        let func_block = m.op_region_block(func, 0);
        let loop_op = m
            .block_ops(func_block)
            .iter()
            .copied()
            .find(|&o| m.op_is(o, "affine.for"))
            .unwrap();
        assert_eq!(m.op_results(loop_op).len(), 2);
    }
}
