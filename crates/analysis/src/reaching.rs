//! Reaching-definition analysis (§V-B of the paper).
//!
//! For every program point the analysis tracks the set of *write* operations
//! that may have modified memory. A query for a specific read access
//! classifies each reaching write as
//!
//! * **MODS** — definitely modifies the read location (must-alias), or
//! * **PMODS** — possibly modifies it (may-alias),
//!
//! exactly the split of Listing 1: the store tagged `a` writing `%ptr1`
//! directly is a MOD, the store tagged `b` through the maybe-aliased
//! `%ptr2` is a PMOD.
//!
//! The analysis consumes the memory-effect interface, so operations from any
//! dialect (including `sycl.host.*`) participate; ops with *unknown* effects
//! (e.g. un-raised `llvm.call`s) poison the state with an `unknown` marker.

use crate::alias::{AliasAnalysis, AliasResult};
use std::collections::HashMap;
use sycl_mlir_ir::dialect::{memory_effects, traits, EffectKind};
use sycl_mlir_ir::{Module, OpId, ValueId};

/// Classification of a reaching definition relative to a specific read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DefClass {
    /// Definitely modifies the read location.
    Mods,
    /// Possibly modifies the read location.
    Pmods,
}

/// The set of writes reaching a program point.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct ReachState {
    /// Write ops that may reach this point, in program order of discovery.
    pub writes: Vec<OpId>,
    /// Some op with unknown memory effects executed before this point.
    pub unknown: bool,
}

impl ReachState {
    fn join(&mut self, other: &ReachState) -> bool {
        let mut changed = false;
        for &w in &other.writes {
            if !self.writes.contains(&w) {
                self.writes.push(w);
                changed = true;
            }
        }
        if other.unknown && !self.unknown {
            self.unknown = true;
            changed = true;
        }
        changed
    }
}

/// Result of a reaching-definition query for one read access.
#[derive(Clone, Debug, Default)]
pub struct ReachingDefs {
    /// `(write op, classification)` for every reaching write that may touch
    /// the location.
    pub defs: Vec<(OpId, DefClass)>,
    /// An unknown-effect operation may also have modified the location.
    pub unknown: bool,
}

impl ReachingDefs {
    pub fn mods(&self) -> Vec<OpId> {
        self.defs
            .iter()
            .filter(|(_, c)| *c == DefClass::Mods)
            .map(|(o, _)| *o)
            .collect()
    }

    pub fn pmods(&self) -> Vec<OpId> {
        self.defs
            .iter()
            .filter(|(_, c)| *c == DefClass::Pmods)
            .map(|(o, _)| *o)
            .collect()
    }
}

/// Reaching definitions for one function body.
pub struct ReachingDefinitions {
    before: HashMap<OpId, ReachState>,
    aa: AliasAnalysis,
}

impl ReachingDefinitions {
    /// Run the analysis over a function (or any single-region op).
    pub fn compute(m: &Module, func: OpId) -> ReachingDefinitions {
        let mut analysis = ReachingDefinitions {
            before: HashMap::new(),
            aa: AliasAnalysis::new(),
        };
        let mut state = ReachState::default();
        let block = m.op_region_block(func, 0);
        analysis.exec_block(m, block, &mut state);
        analysis
    }

    fn exec_block(&mut self, m: &Module, block: sycl_mlir_ir::BlockId, state: &mut ReachState) {
        for &op in m.block_ops(block) {
            self.before.insert(op, state.clone());
            self.exec_op(m, op, state);
        }
    }

    fn exec_op(&mut self, m: &Module, op: OpId, state: &mut ReachState) {
        let op_traits = m.op_traits(op);
        if op_traits & traits::BRANCH_LIKE != 0 && m.op_regions(op).len() == 2 {
            let mut then_state = state.clone();
            self.exec_block(m, m.op_region_block(op, 0), &mut then_state);
            let mut else_state = state.clone();
            self.exec_block(m, m.op_region_block(op, 1), &mut else_state);
            *state = then_state;
            state.join(&else_state);
            return;
        }
        if op_traits & traits::LOOP_LIKE != 0 && m.op_regions(op).len() == 1 {
            // Fixpoint over the loop body; the loop may execute zero times,
            // so the result joins the entry state.
            let entry = state.clone();
            for _ in 0..8 {
                let mut body_state = state.clone();
                self.exec_block(m, m.op_region_block(op, 0), &mut body_state);
                if !state.join(&body_state) {
                    break;
                }
            }
            state.join(&entry);
            return;
        }
        match memory_effects(m, op) {
            Some(effects) => {
                for e in effects {
                    if e.kind == EffectKind::Write {
                        match e.value {
                            Some(_) => self.record_write(m, op, state),
                            None => state.unknown = true,
                        }
                    }
                }
                // Recursive-effect ops other than loops/ifs (none today)
                // would need region walks; the traits above cover scf/affine.
            }
            None => {
                // Unknown effects (e.g. an un-raised llvm.call).
                state.unknown = true;
            }
        }
    }

    fn record_write(&self, m: &Module, op: OpId, state: &mut ReachState) {
        // A new write kills every previous write to provably the same
        // location (must-alias with identical indices).
        if let Some(target) = access_target(m, op) {
            state.writes.retain(|&w| match access_target(m, w) {
                Some(prev) => {
                    self.aa
                        .access_alias(m, (target.0, &target.1), (prev.0, &prev.1))
                        != AliasResult::MustAlias
                }
                None => true,
            });
        }
        if !state.writes.contains(&op) {
            state.writes.push(op);
        }
    }

    /// The raw state before `op`.
    pub fn state_before(&self, op: OpId) -> Option<&ReachState> {
        self.before.get(&op)
    }

    /// Classify the reaching definitions for a read of `(memref, indices)`
    /// performed by `at`.
    pub fn defs_for_read(
        &self,
        m: &Module,
        at: OpId,
        memref: ValueId,
        indices: &[ValueId],
    ) -> ReachingDefs {
        let Some(state) = self.before.get(&at) else {
            return ReachingDefs {
                defs: Vec::new(),
                unknown: true,
            };
        };
        let mut out = ReachingDefs {
            defs: Vec::new(),
            unknown: state.unknown,
        };
        for &w in &state.writes {
            let Some((wmem, widx)) = access_target(m, w) else {
                out.defs.push((w, DefClass::Pmods));
                continue;
            };
            match self.aa.access_alias(m, (memref, indices), (wmem, &widx)) {
                AliasResult::MustAlias => out.defs.push((w, DefClass::Mods)),
                AliasResult::MayAlias => out.defs.push((w, DefClass::Pmods)),
                AliasResult::NoAlias => {}
            }
        }
        out
    }

    /// Convenience: classify the reaching definitions for a load op
    /// (`memref.load` / `affine.load`).
    pub fn defs_for_load(&self, m: &Module, load: OpId) -> ReachingDefs {
        match read_target(m, load) {
            Some((mem, idx)) => self.defs_for_read(m, load, mem, &idx),
            None => ReachingDefs {
                defs: Vec::new(),
                unknown: true,
            },
        }
    }
}

/// `(memref, indices)` written by a store-like op.
pub fn access_target(m: &Module, op: OpId) -> Option<(ValueId, Vec<ValueId>)> {
    let name = m.op_name_str(op);
    match &*name {
        "memref.store" | "affine.store" => {
            let ops = m.op_operands(op);
            Some((ops[1], ops[2..].to_vec()))
        }
        "llvm.store" => Some((m.op_operand(op, 1), vec![])),
        "sycl.host.constructor" => Some((m.op_operand(op, 0), vec![])),
        _ => None,
    }
}

/// `(memref, indices)` read by a load-like op.
pub fn read_target(m: &Module, op: OpId) -> Option<(ValueId, Vec<ValueId>)> {
    let name = m.op_name_str(op);
    match &*name {
        "memref.load" | "affine.load" => {
            let ops = m.op_operands(op);
            Some((ops[0], ops[1..].to_vec()))
        }
        "llvm.load" => Some((m.op_operand(op, 0), vec![])),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::arith::constant_index;
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::memref;
    use sycl_mlir_dialects::scf::{build_for, build_if};
    use sycl_mlir_ir::{Attribute, Builder, Context, Module};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    /// The paper's Listing 1: `scf.if` storing to `%ptr1` (tag "a") in one
    /// branch and to the maybe-aliased `%ptr2` (tag "b") in the other; a
    /// following load of `%ptr1` must see `{MODS: a, PMODS: b}`.
    #[test]
    fn paper_listing1_mods_pmods() {
        let c = ctx();
        let mut m = Module::new(&c);
        let memt = c.memref_type(c.i32_type(), &[]);
        let top = m.top();
        let (func, entry) = build_func(
            &mut m,
            top,
            "foo",
            &[c.i1_type(), c.i32_type(), c.i32_type(), memt.clone(), memt],
            &[],
        );
        let cond = m.block_arg(entry, 0);
        let v1 = m.block_arg(entry, 1);
        let v2 = m.block_arg(entry, 2);
        let ptr1 = m.block_arg(entry, 3);
        let ptr2 = m.block_arg(entry, 4);
        let load = {
            let mut b = Builder::at_end(&mut m, entry);
            build_if(
                &mut b,
                cond,
                &[],
                |inner| {
                    let s = memref::store(inner, v1, ptr1, &[]);
                    inner
                        .module()
                        .set_attr(s, "tag", Attribute::Str("a".into()));
                    vec![]
                },
                |inner| {
                    let s = memref::store(inner, v2, ptr2, &[]);
                    inner
                        .module()
                        .set_attr(s, "tag", Attribute::Str("b".into()));
                    vec![]
                },
            );
            let loaded = memref::load(&mut b, ptr1, &[]);
            build_return(&mut b, &[]);
            b.module().def_op(loaded).unwrap()
        };
        let rd = ReachingDefinitions::compute(&m, func);
        let defs = rd.defs_for_load(&m, load);
        assert!(!defs.unknown);
        let tag = |op: OpId| {
            m.attr(op, "tag")
                .and_then(|a| a.as_str())
                .unwrap()
                .to_string()
        };
        let mods: Vec<String> = defs.mods().into_iter().map(tag).collect();
        let pmods: Vec<String> = defs.pmods().into_iter().map(tag).collect();
        assert_eq!(mods, vec!["a"]);
        assert_eq!(pmods, vec!["b"]);
    }

    #[test]
    fn later_store_kills_earlier_same_location() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "f", &[c.f32_type(), c.f32_type()], &[]);
        let x = m.block_arg(entry, 0);
        let y = m.block_arg(entry, 1);
        let load = {
            let mut b = Builder::at_end(&mut m, entry);
            let f32t = b.ctx().f32_type();
            let mem = memref::alloca(&mut b, f32t, &[1]);
            let zero = constant_index(&mut b, 0);
            memref::store(&mut b, x, mem, &[zero]);
            memref::store(&mut b, y, mem, &[zero]); // kills the first
            let l = memref::load(&mut b, mem, &[zero]);
            build_return(&mut b, &[]);
            b.module().def_op(l).unwrap()
        };
        let rd = ReachingDefinitions::compute(&m, func);
        let defs = rd.defs_for_load(&m, load);
        assert_eq!(defs.defs.len(), 1);
        assert_eq!(defs.defs[0].1, DefClass::Mods);
    }

    #[test]
    fn loop_writes_reach_after_loop() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "f", &[c.f32_type()], &[]);
        let x = m.block_arg(entry, 0);
        let (load, store_in_loop) = {
            let mut b = Builder::at_end(&mut m, entry);
            let f32t = b.ctx().f32_type();
            let mem = memref::alloca(&mut b, f32t, &[8]);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 8);
            let one = constant_index(&mut b, 1);
            let mut store_op = None;
            build_for(&mut b, zero, n, one, &[], |inner, iv, _| {
                store_op = Some(memref::store(inner, x, mem, &[iv]));
                vec![]
            });
            let z2 = constant_index(&mut b, 0);
            let l = memref::load(&mut b, mem, &[z2]);
            build_return(&mut b, &[]);
            (b.module().def_op(l).unwrap(), store_op.unwrap())
        };
        let rd = ReachingDefinitions::compute(&m, func);
        let defs = rd.defs_for_load(&m, load);
        // The store's index is the loop iv: may equal 0 -> PMOD.
        assert_eq!(defs.pmods(), vec![store_in_loop]);
        assert!(!defs.unknown);
    }

    #[test]
    fn unknown_call_poisons_state() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "f", &[], &[]);
        let load = {
            let mut b = Builder::at_end(&mut m, entry);
            let f32t = b.ctx().f32_type();
            let mem = memref::alloca(&mut b, f32t, &[1]);
            let zero = constant_index(&mut b, 0);
            sycl_mlir_dialects::llvm::call(&mut b, "opaque", &[], &[]);
            let l = memref::load(&mut b, mem, &[zero]);
            build_return(&mut b, &[]);
            b.module().def_op(l).unwrap()
        };
        let rd = ReachingDefinitions::compute(&m, func);
        let defs = rd.defs_for_load(&m, load);
        assert!(defs.unknown);
    }
}
