//! Uniformity analysis (§V-C of the paper, Listing 2).
//!
//! A value is *uniform* when every work-item in a work-group computes the
//! same value, *non-uniform* when they provably may differ, and *unknown*
//! otherwise. Non-uniformity enters through operations carrying the
//! `NON_UNIFORM_SOURCE` trait (the SYCL id queries) and propagates through
//! data flow, memory (via the reaching-definition analysis and the branch
//! conditions dominating each reaching store — "data divergence"), and
//! function calls (via the call graph).
//!
//! Loop internalization (§VI-C) queries [`UniformityAnalysis::is_divergent_at`]
//! before injecting group barriers, which would deadlock in divergent
//! control flow.

use crate::callgraph::CallGraph;
use crate::reaching::{read_target, ReachingDefinitions};
use crate::structure::enclosing_branch_conditions;
use std::collections::HashMap;
use sycl_mlir_ir::dialect::{memory_effects, traits, EffectKind};
use sycl_mlir_ir::{Module, OpId, ValueId, WalkControl};

/// The three-point uniformity lattice.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Uniformity {
    /// All work-items in a work-group hold the same value.
    Uniform,
    /// Not provable either way.
    Unknown,
    /// Work-items may hold different values.
    NonUniform,
}

impl Uniformity {
    /// Lattice join: `NonUniform` absorbs, then `Unknown`, then `Uniform`.
    pub fn join(self, other: Uniformity) -> Uniformity {
        self.max(other)
    }
}

/// Computed uniformity for every SSA value in scope.
pub struct UniformityAnalysis {
    map: HashMap<ValueId, Uniformity>,
}

const MAX_ROUNDS: usize = 8;

impl UniformityAnalysis {
    /// Analyze a single function. Kernel entry points get uniform
    /// parameters ("uniform by definition", §V-C); other functions get
    /// unknown parameters.
    pub fn compute(m: &Module, func: OpId) -> UniformityAnalysis {
        let params = default_params(m, func);
        Self::compute_with_params(m, func, &params)
    }

    /// Analyze a function with explicit parameter uniformities.
    pub fn compute_with_params(
        m: &Module,
        func: OpId,
        params: &[Uniformity],
    ) -> UniformityAnalysis {
        let mut a = UniformityAnalysis {
            map: HashMap::new(),
        };
        a.run_function(m, func, params);
        a
    }

    /// Inter-procedural analysis over every function under `scope`:
    /// parameter uniformity is the join of actual arguments across all call
    /// sites (kernels stay uniform-by-definition), iterated to a fixpoint.
    pub fn compute_module(m: &Module, scope: OpId) -> UniformityAnalysis {
        let cg = CallGraph::build(m, scope);
        let mut a = UniformityAnalysis {
            map: HashMap::new(),
        };
        let mut params: HashMap<OpId, Vec<Uniformity>> = HashMap::new();
        for &f in &cg.funcs {
            params.insert(f, default_params(m, f));
        }
        for _ in 0..4 {
            let mut changed = false;
            for &f in &cg.funcs {
                a.run_function(m, f, &params[&f]);
            }
            // Propagate actual-argument uniformity to callee parameters.
            for (&callee, callers) in &cg.callers_of {
                let num = params.get(&callee).map(|p| p.len()).unwrap_or(0);
                let mut new_params = vec![Uniformity::Uniform; num];
                for &(_caller, call) in callers {
                    for (i, &arg) in m.op_operands(call).iter().enumerate() {
                        if i < num {
                            new_params[i] = new_params[i].join(a.value(arg));
                        }
                    }
                }
                if sycl_mlir_sycl::device::is_kernel(m, callee) {
                    continue; // kernels stay uniform-by-definition
                }
                if params.get(&callee) != Some(&new_params) {
                    params.insert(callee, new_params);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        a
    }

    fn run_function(&mut self, m: &Module, func: OpId, params: &[Uniformity]) {
        let entry = m.op_region_block(func, 0);
        for (i, &arg) in m.block_args(entry).iter().enumerate() {
            let u = params.get(i).copied().unwrap_or(Uniformity::Unknown);
            self.map.insert(arg, u);
        }
        let rd = ReachingDefinitions::compute(m, func);
        for _ in 0..MAX_ROUNDS {
            let mut changed = false;
            m.walk(func, &mut |op| {
                if op != func {
                    changed |= self.transfer(m, func, &rd, op);
                }
                WalkControl::Advance
            });
            if !changed {
                break;
            }
        }
    }

    fn get(&self, v: ValueId) -> Uniformity {
        self.map.get(&v).copied().unwrap_or(Uniformity::Uniform)
    }

    /// The uniformity of a value (defaults to `Unknown` for values never
    /// visited).
    pub fn value(&self, v: ValueId) -> Uniformity {
        self.map.get(&v).copied().unwrap_or(Uniformity::Unknown)
    }

    fn set(&mut self, v: ValueId, u: Uniformity) -> bool {
        let joined = self.get(v).join(u);
        let old = self.map.insert(v, joined);
        old != Some(joined)
    }

    fn join_operands(&self, m: &Module, op: OpId) -> Uniformity {
        m.op_operands(op)
            .iter()
            .fold(Uniformity::Uniform, |acc, &v| acc.join(self.get(v)))
    }

    fn transfer(&mut self, m: &Module, func: OpId, rd: &ReachingDefinitions, op: OpId) -> bool {
        let op_traits = m.op_traits(op);
        let mut changed = false;

        if op_traits & traits::NON_UNIFORM_SOURCE != 0 {
            for &r in m.op_results(op) {
                changed |= self.set(r, Uniformity::NonUniform);
            }
            return changed;
        }
        if op_traits & traits::CONSTANT_LIKE != 0 {
            for &r in m.op_results(op) {
                changed |= self.set(r, Uniformity::Uniform);
            }
            return changed;
        }
        if op_traits & traits::LOOP_LIKE != 0 && m.op_regions(op).len() == 1 {
            let block = m.op_region_block(op, 0);
            let bounds = m.op_operands(op)[..3]
                .iter()
                .fold(Uniformity::Uniform, |acc, &v| acc.join(self.get(v)));
            changed |= self.set(m.block_arg(block, 0), bounds);
            let yields: Vec<ValueId> = m
                .block_terminator(block)
                .map(|t| m.op_operands(t).to_vec())
                .unwrap_or_default();
            let inits = &m.op_operands(op)[3..];
            for (i, &init) in inits.iter().enumerate().take(m.op_results(op).len()) {
                let mut u = self.get(init);
                if let Some(&y) = yields.get(i) {
                    u = u.join(self.get(y));
                }
                changed |= self.set(m.block_arg(block, 1 + i), u);
                changed |= self.set(m.op_result(op, i), u);
            }
            return changed;
        }
        if op_traits & traits::BRANCH_LIKE != 0 && m.op_regions(op).len() == 2 {
            let cond = self.get(m.op_operand(op, 0));
            for i in 0..m.op_results(op).len() {
                let mut u = cond;
                for ri in 0..2 {
                    if let Some(t) = m.block_terminator(m.op_region_block(op, ri)) {
                        if let Some(&y) = m.op_operands(t).get(i) {
                            u = u.join(self.get(y));
                        }
                    }
                }
                changed |= self.set(m.op_result(op, i), u);
            }
            return changed;
        }
        if m.op_is(op, "func.call") {
            // Handled structurally by compute_module; standalone: unknown
            // blended with argument uniformity.
            let u = self.join_operands(m, op).join(Uniformity::Unknown);
            for &r in m.op_results(op) {
                changed |= self.set(r, u);
            }
            return changed;
        }

        match memory_effects(m, op) {
            Some(effects) if effects.is_empty() => {
                // Pure: join of operands.
                let u = self.join_operands(m, op);
                for &r in m.op_results(op) {
                    changed |= self.set(r, u);
                }
            }
            Some(effects) => {
                let has_read = effects.iter().any(|e| e.kind == EffectKind::Read);
                if has_read && m.op_results(op).len() == 1 {
                    let u = self.load_uniformity(m, func, rd, op);
                    changed |= self.set(m.op_result(op, 0), u);
                } else {
                    for &r in m.op_results(op) {
                        changed |= self.set(r, self.join_operands(m, op));
                    }
                }
            }
            None => {
                for &r in m.op_results(op) {
                    changed |= self.set(r, Uniformity::Unknown);
                }
            }
        }
        changed
    }

    /// §V-C: for a read, propagate unknown/non-uniform from the (potential)
    /// modifiers *and their dominating branch conditions*. Memory never
    /// stored to in this kernel holds host-initialized data, identical for
    /// every work-item, hence uniform.
    fn load_uniformity(
        &self,
        m: &Module,
        func: OpId,
        rd: &ReachingDefinitions,
        load: OpId,
    ) -> Uniformity {
        let Some((mem, indices)) = read_target(m, load) else {
            return Uniformity::Unknown;
        };
        // A load at a non-uniform address yields per-work-item data even
        // from uniform (host-initialized) memory: join address uniformity.
        let mut u = self.get(mem);
        for &i in &indices {
            u = u.join(self.get(i));
        }
        let defs = rd.defs_for_read(m, load, mem, &indices);
        if defs.unknown {
            u = u.join(Uniformity::Unknown);
        }
        for (w, _) in &defs.defs {
            if let Some(stored) = stored_value(m, *w) {
                u = u.join(self.get(stored));
            } else {
                u = u.join(Uniformity::Unknown);
            }
            for cond in enclosing_branch_conditions(m, *w, func) {
                u = u.join(self.get(cond));
            }
        }
        u
    }

    /// `true` if `op` sits in divergent control flow within `func`: some
    /// enclosing branch condition or loop bound is not provably uniform.
    /// This is the legality gate for injecting group barriers (§V-C/§VI-C).
    pub fn is_divergent_at(&self, m: &Module, op: OpId, func: OpId) -> bool {
        for cond in enclosing_branch_conditions(m, op, func) {
            if self.get(cond) != Uniformity::Uniform {
                return true;
            }
        }
        for l in crate::structure::enclosing_loops(m, op, func) {
            for &bound in &m.op_operands(l)[..3.min(m.op_operands(l).len())] {
                if self.get(bound) != Uniformity::Uniform {
                    return true;
                }
            }
        }
        false
    }
}

fn default_params(m: &Module, func: OpId) -> Vec<Uniformity> {
    let entry = m.op_region_block(func, 0);
    let n = m.block_args(entry).len();
    if sycl_mlir_sycl::device::is_kernel(m, func) {
        vec![Uniformity::Uniform; n]
    } else {
        vec![Uniformity::Unknown; n]
    }
}

/// The value written by a store-like op, if identifiable.
fn stored_value(m: &Module, op: OpId) -> Option<ValueId> {
    let name = m.op_name_str(op);
    match &*name {
        "memref.store" | "affine.store" | "llvm.store" => Some(m.op_operand(op, 0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::arith::{self, constant_index};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::memref;
    use sycl_mlir_dialects::scf::build_if;
    use sycl_mlir_ir::{Builder, Context, Module};
    use sycl_mlir_sycl::device::{global_id, mark_kernel};
    use sycl_mlir_sycl::types::nd_item_type;

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    /// The paper's Listing 2: the global-id query is non-uniform, the first
    /// branch condition uses it (non-uniform), the stores under the
    /// divergent branch make the following load data-divergent, and the
    /// second condition is therefore non-uniform too.
    #[test]
    fn paper_listing2_divergent_branch() {
        let c = ctx();
        let mut m = Module::new(&c);
        let nd2 = nd_item_type(&c, 2);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "non_uniform", &[nd2, c.index_type()], &[]);
        mark_kernel(&mut m, func);
        let item = m.block_arg(entry, 0);
        let idx = m.block_arg(entry, 1);
        let (cond, load, cond1) = {
            let mut b = Builder::at_end(&mut m, entry);
            let i64t = b.ctx().i64_type();
            let alloca = memref::alloca(&mut b, i64t.clone(), &[10]);
            let gid = global_id(&mut b, item, 0);
            let zero = constant_index(&mut b, 0);
            let cond = arith::cmpi(&mut b, "sgt", gid, zero);
            let c1 = arith::constant_int(&mut b, 1, i64t.clone());
            let c2 = arith::constant_int(&mut b, 2, i64t.clone());
            build_if(
                &mut b,
                cond,
                &[],
                |inner| {
                    memref::store(inner, c1, alloca, &[idx]);
                    vec![]
                },
                |inner| {
                    memref::store(inner, c2, alloca, &[idx]);
                    vec![]
                },
            );
            let load = memref::load(&mut b, alloca, &[idx]);
            let zero64 = arith::constant_int(&mut b, 0, i64t);
            let cond1 = arith::cmpi(&mut b, "sgt", load, zero64);
            build_return(&mut b, &[]);
            (cond, load, cond1)
        };
        let ua = UniformityAnalysis::compute(&m, func);
        assert_eq!(ua.value(cond), Uniformity::NonUniform);
        assert_eq!(ua.value(load), Uniformity::NonUniform);
        assert_eq!(ua.value(cond1), Uniformity::NonUniform);
        // The kernel parameter itself is uniform by definition.
        assert_eq!(ua.value(idx), Uniformity::Uniform);
    }

    #[test]
    fn uniform_data_flow_stays_uniform() {
        let c = ctx();
        let mut m = Module::new(&c);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[nd1], &[]);
        mark_kernel(&mut m, func);
        let (sum, stored_load) = {
            let mut b = Builder::at_end(&mut m, entry);
            let i64t = b.ctx().i64_type();
            let a = arith::constant_int(&mut b, 1, i64t.clone());
            let b2 = arith::constant_int(&mut b, 2, i64t.clone());
            let sum = arith::addi(&mut b, a, b2);
            // Store a uniform value, load it back: still uniform.
            let mem = memref::alloca(&mut b, i64t, &[1]);
            let zero = constant_index(&mut b, 0);
            memref::store(&mut b, sum, mem, &[zero]);
            let l = memref::load(&mut b, mem, &[zero]);
            build_return(&mut b, &[]);
            (sum, l)
        };
        let ua = UniformityAnalysis::compute(&m, func);
        assert_eq!(ua.value(sum), Uniformity::Uniform);
        assert_eq!(ua.value(stored_load), Uniformity::Uniform);
    }

    #[test]
    fn divergent_region_detection() {
        let c = ctx();
        let mut m = Module::new(&c);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[nd1], &[]);
        mark_kernel(&mut m, func);
        let item = m.block_arg(entry, 0);
        let (in_div, in_unif) = {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = global_id(&mut b, item, 0);
            let zero = constant_index(&mut b, 0);
            let div_cond = arith::cmpi(&mut b, "sgt", gid, zero);
            let mut in_div = None;
            build_if(
                &mut b,
                div_cond,
                &[],
                |inner| {
                    in_div = Some(constant_index(inner, 7));
                    vec![]
                },
                |_| vec![],
            );
            let i1t = b.ctx().i1_type();
            let t = arith::constant_int(&mut b, 1, i1t);
            let mut in_unif = None;
            build_if(
                &mut b,
                t,
                &[],
                |inner| {
                    in_unif = Some(constant_index(inner, 8));
                    vec![]
                },
                |_| vec![],
            );
            build_return(&mut b, &[]);
            (in_div.unwrap(), in_unif.unwrap())
        };
        let ua = UniformityAnalysis::compute(&m, func);
        let div_op = m.def_op(in_div).unwrap();
        let unif_op = m.def_op(in_unif).unwrap();
        assert!(ua.is_divergent_at(&m, div_op, func));
        assert!(!ua.is_divergent_at(&m, unif_op, func));
    }

    #[test]
    fn interprocedural_param_join() {
        let c = ctx();
        let mut m = Module::new(&c);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        // helper(x) returns x.
        let (helper, helper_entry) =
            build_func(&mut m, top, "helper", &[c.index_type()], &[c.index_type()]);
        let hx = m.block_arg(helper_entry, 0);
        {
            let mut b = Builder::at_end(&mut m, helper_entry);
            build_return(&mut b, &[hx]);
        }
        // kernel calls helper with a non-uniform argument.
        let (kernel, entry) = build_func(&mut m, top, "k", &[nd1], &[]);
        mark_kernel(&mut m, kernel);
        let item = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = global_id(&mut b, item, 0);
            let index_ty = b.ctx().index_type();
            sycl_mlir_dialects::func::build_call(&mut b, "helper", &[gid], &[index_ty]);
            build_return(&mut b, &[]);
        }
        let _ = helper;
        let ua = UniformityAnalysis::compute_module(&m, m.top());
        // The helper's parameter joined non-uniform from its one call site.
        assert_eq!(ua.value(hx), Uniformity::NonUniform);
    }
}
