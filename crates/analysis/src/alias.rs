//! SYCL-aware alias analysis (§V-A of the paper).
//!
//! The base analysis reasons about allocation roots (`memref.alloca`,
//! `sycl.local.alloca`) and function arguments; the SYCL extension encodes
//! dialect semantics:
//!
//! * two `sycl.accessor.subscript` views of the *same* accessor alias iff
//!   their ids may be equal (structural equivalence / constant separation);
//! * views of *different* accessors may alias by default — the SYCL spec
//!   allows two accessors over the same or overlapping buffers (§VII-B) —
//!   unless host analysis has annotated the kernel with distinct buffer
//!   identities ([`facts::BUFFER_IDS`]), the joint host/device refinement
//!   the paper describes;
//! * private allocations never alias accessor memory.

use crate::equivalence::{values_equivalent, values_provably_different};
use sycl_mlir_ir::{Module, OpId, ValueDef, ValueId};
use sycl_mlir_sycl::facts;

/// Three-valued alias verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasResult {
    NoAlias,
    MayAlias,
    MustAlias,
}

impl AliasResult {
    pub fn may(self) -> bool {
        !matches!(self, AliasResult::NoAlias)
    }
}

/// The memory root of a memref-like value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Root {
    /// A private allocation (op id of the alloca).
    Alloca(OpId),
    /// Work-group local memory.
    LocalAlloca(OpId),
    /// A view into an accessor: `(accessor value, id value)`.
    Subscript(ValueId, ValueId),
    /// A function argument (accessor or raw memref).
    Arg(ValueId),
    /// Untraceable.
    Unknown(ValueId),
}

/// SYCL-aware alias analysis. Stateless; all queries read the module.
#[derive(Default, Clone, Copy, Debug)]
pub struct AliasAnalysis;

impl AliasAnalysis {
    pub fn new() -> AliasAnalysis {
        AliasAnalysis
    }

    /// Alias relation between two memref-like values.
    pub fn alias(&self, m: &Module, a: ValueId, b: ValueId) -> AliasResult {
        if a == b {
            return AliasResult::MustAlias;
        }
        let ra = root(m, a);
        let rb = root(m, b);
        use AliasResult::*;
        use Root::*;
        match (ra, rb) {
            (Alloca(x), Alloca(y)) | (LocalAlloca(x), LocalAlloca(y)) => {
                if x == y {
                    MustAlias
                } else {
                    NoAlias
                }
            }
            // Private/local allocations are fresh memory: disjoint from
            // accessors, arguments, and each other's class.
            (Alloca(_), _) | (_, Alloca(_)) => NoAlias,
            (LocalAlloca(_), _) | (_, LocalAlloca(_)) => NoAlias,
            (Subscript(acc_a, id_a), Subscript(acc_b, id_b)) => {
                match self.accessor_alias(m, acc_a, acc_b) {
                    MustAlias => {
                        if values_equivalent(m, id_a, id_b) {
                            MustAlias
                        } else if ids_provably_different(m, id_a, id_b) {
                            NoAlias
                        } else {
                            MayAlias
                        }
                    }
                    NoAlias => NoAlias,
                    MayAlias => MayAlias,
                }
            }
            (Subscript(acc, _), Arg(other)) | (Arg(other), Subscript(acc, _)) => {
                self.accessor_alias(m, acc, other)
            }
            (Arg(x), Arg(y)) => self.accessor_alias(m, x, y),
            (Unknown(_), _) | (_, Unknown(_)) => MayAlias,
        }
    }

    /// Alias relation between two whole accessors / memref arguments.
    ///
    /// Uses the host-propagated [`facts::BUFFER_IDS`] when both values are
    /// kernel arguments: distinct buffers cannot alias; without host
    /// information two accessors must be assumed to possibly overlap
    /// (§VII-B's motivating example).
    pub fn accessor_alias(&self, m: &Module, a: ValueId, b: ValueId) -> AliasResult {
        if a == b || values_equivalent(m, a, b) {
            return AliasResult::MustAlias;
        }
        if let (Some((fa, ia)), Some((fb, ib))) = (arg_position(m, a), arg_position(m, b)) {
            if fa == fb {
                if let Some(ids) = facts::BUFFER_IDS.get(m, fa) {
                    let ba = ids.get(ia).copied().unwrap_or(-1);
                    let bb = ids.get(ib).copied().unwrap_or(-1);
                    if ba >= 0 && bb >= 0 && ba != bb {
                        return AliasResult::NoAlias;
                    }
                }
            }
        }
        AliasResult::MayAlias
    }

    /// Convenience: alias relation between two *accesses*
    /// `(memref, indices)`; refines a must-aliased base by comparing the
    /// index vectors.
    pub fn access_alias(
        &self,
        m: &Module,
        a: (ValueId, &[ValueId]),
        b: (ValueId, &[ValueId]),
    ) -> AliasResult {
        match self.alias(m, a.0, b.0) {
            AliasResult::NoAlias => AliasResult::NoAlias,
            AliasResult::MayAlias => AliasResult::MayAlias,
            AliasResult::MustAlias => {
                if a.1.len() != b.1.len() {
                    return AliasResult::MayAlias;
                }
                if a.1
                    .iter()
                    .zip(b.1)
                    .all(|(&x, &y)| values_equivalent(m, x, y))
                {
                    AliasResult::MustAlias
                } else if a
                    .1
                    .iter()
                    .zip(b.1)
                    .any(|(&x, &y)| values_provably_different(m, x, y))
                {
                    AliasResult::NoAlias
                } else {
                    AliasResult::MayAlias
                }
            }
        }
    }
}

/// Two `!sycl.id` values provably address different points: some component
/// pair is provably different.
fn ids_provably_different(m: &Module, a: ValueId, b: ValueId) -> bool {
    let (Some(oa), Some(ob)) = (m.def_op(a), m.def_op(b)) else {
        return false;
    };
    if !m.op_is(oa, "sycl.id.constructor") || !m.op_is(ob, "sycl.id.constructor") {
        return false;
    }
    let ca = m.op_operands(oa);
    let cb = m.op_operands(ob);
    ca.len() == cb.len()
        && ca
            .iter()
            .zip(cb.iter())
            .any(|(&x, &y)| values_provably_different(m, x, y))
}

/// If `v` is a function entry argument, return `(func op, arg index)`.
fn arg_position(m: &Module, v: ValueId) -> Option<(OpId, usize)> {
    match m.value_def(v) {
        ValueDef::BlockArg { block, index } => {
            let owner = m.region_parent_op(m.block_region(block));
            if m.op_is(owner, "func.func") {
                Some((owner, index as usize))
            } else {
                None
            }
        }
        ValueDef::OpResult { .. } => None,
    }
}

fn root(m: &Module, v: ValueId) -> Root {
    let mut cur = v;
    for _ in 0..32 {
        match m.value_def(cur) {
            ValueDef::BlockArg { .. } => {
                return if arg_position(m, cur).is_some() {
                    Root::Arg(cur)
                } else {
                    Root::Unknown(cur)
                };
            }
            ValueDef::OpResult { op, .. } => {
                if m.op_is(op, "memref.alloca") {
                    return Root::Alloca(op);
                }
                if m.op_is(op, "sycl.local.alloca") {
                    return Root::LocalAlloca(op);
                }
                if m.op_is(op, "memref.cast") {
                    cur = m.op_operand(op, 0);
                    continue;
                }
                if m.op_is(op, "sycl.accessor.subscript") {
                    return Root::Subscript(m.op_operand(op, 0), m.op_operand(op, 1));
                }
                return Root::Unknown(cur);
            }
        }
    }
    Root::Unknown(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::arith::constant_index;
    use sycl_mlir_dialects::func::build_func;
    use sycl_mlir_dialects::memref;
    use sycl_mlir_ir::{Builder, Context, Module};
    use sycl_mlir_sycl::device::{make_id, subscript};
    use sycl_mlir_sycl::types::{accessor_type, AccessMode, Target};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let c = ctx();
        let mut m = Module::new(&c);
        let block = m.top_block();
        let (a, b_) = {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let a = memref::alloca(&mut b, f32t.clone(), &[4]);
            let b2 = memref::alloca(&mut b, f32t, &[4]);
            (a, b2)
        };
        let aa = AliasAnalysis::new();
        assert_eq!(aa.alias(&m, a, b_), AliasResult::NoAlias);
        assert_eq!(aa.alias(&m, a, a), AliasResult::MustAlias);
    }

    #[test]
    fn subscript_views_of_one_accessor() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc_ty = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "k", &[acc_ty], &[]);
        let acc = m.block_arg(entry, 0);
        let (v_same1, v_same2, v_zero, v_one, v_dyn) = {
            let mut b = Builder::at_end(&mut m, entry);
            let zero1 = constant_index(&mut b, 0);
            let zero2 = constant_index(&mut b, 0);
            let one = constant_index(&mut b, 1);
            let dynv = b.build_value("llvm.undef", &[], b.ctx().index_type(), vec![]);
            let id_a = make_id(&mut b, &[zero1]);
            let id_b = make_id(&mut b, &[zero2]);
            let id_c = make_id(&mut b, &[one]);
            let id_d = make_id(&mut b, &[dynv]);
            (
                subscript(&mut b, acc, id_a),
                subscript(&mut b, acc, id_b),
                subscript(&mut b, acc, id_a),
                subscript(&mut b, acc, id_c),
                subscript(&mut b, acc, id_d),
            )
        };
        let aa = AliasAnalysis::new();
        // Same accessor, structurally equal ids -> must alias.
        assert_eq!(aa.alias(&m, v_same1, v_same2), AliasResult::MustAlias);
        assert_eq!(aa.alias(&m, v_same1, v_zero), AliasResult::MustAlias);
        // Constant 0 vs constant 1 -> provably disjoint.
        assert_eq!(aa.alias(&m, v_same1, v_one), AliasResult::NoAlias);
        // Unknown dynamic id -> may alias.
        assert_eq!(aa.alias(&m, v_same1, v_dyn), AliasResult::MayAlias);
    }

    #[test]
    fn two_accessors_may_alias_without_host_info() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc_ty = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[acc_ty.clone(), acc_ty], &[]);
        let a = m.block_arg(entry, 0);
        let b_ = m.block_arg(entry, 1);
        let aa = AliasAnalysis::new();
        assert_eq!(aa.alias(&m, a, b_), AliasResult::MayAlias);

        // With host-propagated distinct buffer identities: no alias.
        facts::BUFFER_IDS.set(&mut m, func, vec![0, 1]);
        assert_eq!(aa.alias(&m, a, b_), AliasResult::NoAlias);

        // Same buffer id: still may alias (ranged accessors could overlap).
        facts::BUFFER_IDS.set(&mut m, func, vec![3, 3]);
        assert_eq!(aa.alias(&m, a, b_), AliasResult::MayAlias);
    }

    #[test]
    fn alloca_never_aliases_accessor_memory() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc_ty = accessor_type(&c, c.f32_type(), 1, AccessMode::Read, Target::Global);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "k", &[acc_ty], &[]);
        let acc = m.block_arg(entry, 0);
        let (priv_mem, view) = {
            let mut b = Builder::at_end(&mut m, entry);
            let f32t = b.ctx().f32_type();
            let priv_mem = memref::alloca(&mut b, f32t, &[8]);
            let zero = constant_index(&mut b, 0);
            let id = make_id(&mut b, &[zero]);
            let view = subscript(&mut b, acc, id);
            (priv_mem, view)
        };
        let aa = AliasAnalysis::new();
        assert_eq!(aa.alias(&m, priv_mem, view), AliasResult::NoAlias);
        assert_eq!(aa.alias(&m, priv_mem, acc), AliasResult::NoAlias);
    }

    #[test]
    fn access_alias_refines_by_indices() {
        let c = ctx();
        let mut m = Module::new(&c);
        let block = m.top_block();
        let (mem, i0, i1, unk) = {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let mem = memref::alloca(&mut b, f32t, &[8]);
            let i0 = constant_index(&mut b, 0);
            let i1 = constant_index(&mut b, 1);
            let unk = b.build_value("llvm.undef", &[], b.ctx().index_type(), vec![]);
            (mem, i0, i1, unk)
        };
        let aa = AliasAnalysis::new();
        assert_eq!(
            aa.access_alias(&m, (mem, &[i0]), (mem, &[i0])),
            AliasResult::MustAlias
        );
        assert_eq!(
            aa.access_alias(&m, (mem, &[i0]), (mem, &[i1])),
            AliasResult::NoAlias
        );
        assert_eq!(
            aa.access_alias(&m, (mem, &[i0]), (mem, &[unk])),
            AliasResult::MayAlias
        );
    }
}
