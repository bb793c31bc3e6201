//! Dialect registry: operation metadata, traits and interfaces.
//!
//! Every operation name is registered with an [`OpInfo`] carrying:
//!
//! * **traits** — bit flags such as [`traits::PURE`] or
//!   [`traits::NON_UNIFORM_SOURCE`]; the uniformity analysis of §V-C consults
//!   the latter exactly as the paper describes ("a custom trait informs the
//!   analysis about SYCL operations that are known sources of
//!   non-uniformity");
//! * a **memory-effect interface** ([`OpInfo::effects`]) — the generic
//!   interface §V-B uses so the reaching-definition analysis can reason about
//!   operations from any dialect;
//! * a declared **signature** ([`OpInfo::signature`]) — what each operand
//!   and result must be, as MLIR's declarative op definitions state it; the
//!   verifier checks every op against its row
//!   ([`crate::verifier::check_signature`]);
//! * an optional **verifier** hook for what a row cannot say, and a
//!   **folder**.

use crate::attrs::Attribute;
use crate::module::{Module, OpId, ValueId};
use crate::types::Type;
use std::sync::Arc;

/// Interned operation name; index into the context's registry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OpName(pub u32);

/// Operation trait flags.
///
/// Traits let analyses reason about unknown dialects generically — the
/// re-usability argument of §V-C.
pub mod traits {
    /// No memory effects; freely speculatable.
    pub const PURE: u32 = 1 << 0;
    /// Terminates its block (e.g. `scf.yield`, `func.return`).
    pub const TERMINATOR: u32 = 1 << 1;
    /// Produces work-item-dependent values (e.g.
    /// `sycl.nd_item.get_global_id`). Consulted by the uniformity analysis.
    pub const NON_UNIFORM_SOURCE: u32 = 1 << 2;
    /// Materializes a compile-time constant (e.g. `arith.constant`).
    pub const CONSTANT_LIKE: u32 = 1 << 3;
    /// The op's regions may not reference values defined above
    /// (e.g. `func.func`, `builtin.module`).
    pub const ISOLATED_FROM_ABOVE: u32 = 1 << 4;
    /// Memory effects are the union of the effects of nested ops
    /// (e.g. `scf.for`, `scf.if`).
    pub const RECURSIVE_EFFECTS: u32 = 1 << 5;
    /// A loop with a single induction variable region
    /// (`scf.for`, `affine.for`).
    pub const LOOP_LIKE: u32 = 1 << 6;
    /// Two-armed conditional (`scf.if`).
    pub const BRANCH_LIKE: u32 = 1 << 7;
    /// Work-group barrier semantics (`sycl.group.barrier`); executing this in
    /// divergent control flow deadlocks (§V-C).
    pub const BARRIER: u32 = 1 << 8;
    /// Declares a symbol via a `sym_name` attribute (func.func, modules).
    pub const SYMBOL: u32 = 1 << 9;
}

/// Kind of a memory effect an operation has on a value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EffectKind {
    Read,
    Write,
    Alloc,
    Free,
}

/// One memory effect. `value` identifies the affected memory (a memref-like
/// SSA value) when known; `None` means "some unknown memory".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Effect {
    pub kind: EffectKind,
    pub value: Option<ValueId>,
}

impl Effect {
    pub fn read(value: ValueId) -> Effect {
        Effect {
            kind: EffectKind::Read,
            value: Some(value),
        }
    }

    pub fn write(value: ValueId) -> Effect {
        Effect {
            kind: EffectKind::Write,
            value: Some(value),
        }
    }

    pub fn alloc(value: ValueId) -> Effect {
        Effect {
            kind: EffectKind::Alloc,
            value: Some(value),
        }
    }

    pub fn read_unknown() -> Effect {
        Effect {
            kind: EffectKind::Read,
            value: None,
        }
    }

    pub fn write_unknown() -> Effect {
        Effect {
            kind: EffectKind::Write,
            value: None,
        }
    }
}

/// Result of folding one op result: either an existing value or a constant
/// attribute to materialize.
#[derive(Clone, Debug)]
pub enum FoldOut {
    Value(ValueId),
    Attr(Attribute),
}

/// What one operand or result of an op must be.
#[derive(Clone, Copy)]
pub enum Constraint {
    Any,
    /// An integer of any width, or `index`.
    IntOrIndex,
    Index,
    I1,
    /// `f32` or `f64`.
    Float,
    MemRef,
    /// The `llvm` dialect's opaque pointer.
    Ptr,
    /// The type of operand *i*.
    Same(usize),
    /// The element type of memref operand *i*.
    ElemOf(usize),
    /// As many `index` operands as the rank of memref operand *i*; only
    /// ever a variadic tail.
    IndicesOf(usize),
    /// A type the predicate accepts, described by the text (`"a
    /// !sycl.accessor"`): how a dialect names its own types.
    Is(fn(&Type) -> bool, &'static str),
}

/// An op's declared operands and results: a fixed row of constraints for
/// each, and optionally one constraint that every further operand (or
/// result) meets — without one, the op has exactly the row.
#[derive(Clone, Copy)]
pub struct Signature {
    pub operands: &'static [Constraint],
    pub variadic: Option<Constraint>,
    pub results: &'static [Constraint],
    pub variadic_results: Option<Constraint>,
}

impl Signature {
    /// Exactly `operands` and exactly `results`.
    pub const fn new(operands: &'static [Constraint], results: &'static [Constraint]) -> Signature {
        Signature {
            operands,
            variadic: None,
            results,
            variadic_results: None,
        }
    }

    /// Any number of further operands, each meeting `tail`.
    pub const fn variadic(mut self, tail: Constraint) -> Signature {
        self.variadic = Some(tail);
        self
    }

    /// Any number of further results, each meeting `tail`.
    pub const fn variadic_results(mut self, tail: Constraint) -> Signature {
        self.variadic_results = Some(tail);
        self
    }
}

/// Per-op verifier callback.
pub type VerifyFn = fn(&Module, OpId) -> Result<(), String>;
/// Memory-effect interface callback.
pub type EffectsFn = fn(&Module, OpId) -> Vec<Effect>;
/// Folding callback; returns one [`FoldOut`] per op result when folding
/// succeeds.
pub type FoldFn = fn(&Module, OpId) -> Option<Vec<FoldOut>>;

/// Metadata registered for an operation name.
#[derive(Clone)]
pub struct OpInfo {
    pub name: Arc<str>,
    pub dialect: Arc<str>,
    pub traits: u32,
    pub signature: Option<Signature>,
    pub verify: Option<VerifyFn>,
    pub effects: Option<EffectsFn>,
    pub fold: Option<FoldFn>,
}

impl OpInfo {
    /// Create an [`OpInfo`] with no traits and no callbacks. The dialect
    /// namespace is everything before the first `.` of `name`.
    pub fn new(name: &str) -> OpInfo {
        let dialect = name.split('.').next().unwrap_or(name);
        OpInfo {
            name: Arc::from(name),
            dialect: Arc::from(dialect),
            traits: 0,
            signature: None,
            verify: None,
            effects: None,
            fold: None,
        }
    }

    pub fn with_traits(mut self, t: u32) -> OpInfo {
        self.traits |= t;
        self
    }

    pub fn with_signature(mut self, sig: Signature) -> OpInfo {
        self.signature = Some(sig);
        self
    }

    pub fn with_verify(mut self, f: VerifyFn) -> OpInfo {
        self.verify = Some(f);
        self
    }

    pub fn with_effects(mut self, f: EffectsFn) -> OpInfo {
        self.effects = Some(f);
        self
    }

    pub fn with_fold(mut self, f: FoldFn) -> OpInfo {
        self.fold = Some(f);
        self
    }

    pub fn has_trait(&self, t: u32) -> bool {
        self.traits & t != 0
    }
}

/// A dialect bundles op registrations (and type parsers) for a namespace.
pub trait Dialect {
    /// Namespace, e.g. `"arith"`.
    fn name(&self) -> &'static str;
    /// Register all ops/types of this dialect into the context.
    fn register(&self, ctx: &crate::Context);
}

/// Compute the memory effects of `op`, using traits and the effect interface:
/// `Some(vec![])` for pure ops, `Some(effects)` when the op (or, for
/// recursive ops, all nested ops) declare effects, `None` when unknown.
///
/// This is the project-wide entry point mirroring MLIR's
/// `getEffects`/`isMemoryEffectFree` queries used throughout §V–§VI.
pub fn memory_effects(m: &Module, op: OpId) -> Option<Vec<Effect>> {
    let (op_traits, effects) = m
        .ctx()
        .with_op_info(m.op_name(op), |info| (info.traits, info.effects));
    if op_traits & (traits::PURE | traits::CONSTANT_LIKE) != 0 {
        return Some(Vec::new());
    }
    if let Some(f) = effects {
        return Some(f(m, op));
    }
    if op_traits & traits::RECURSIVE_EFFECTS != 0 {
        let mut all = Vec::new();
        for &region in m.op_regions(op) {
            for block in m.region_blocks(region) {
                for &inner in m.block_ops(*block) {
                    let nested = memory_effects(m, inner)?;
                    all.extend(nested);
                }
            }
        }
        return Some(all);
    }
    // Terminators that just forward values are effect-free.
    if op_traits & traits::TERMINATOR != 0 {
        return Some(Vec::new());
    }
    None
}

/// `true` if the op is known to have no memory effects at all.
pub fn is_memory_effect_free(m: &Module, op: OpId) -> bool {
    matches!(memory_effects(m, op), Some(effects) if effects.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opinfo_builder() {
        let info = OpInfo::new("arith.addi").with_traits(traits::PURE);
        assert_eq!(&*info.name, "arith.addi");
        assert_eq!(&*info.dialect, "arith");
        assert!(info.has_trait(traits::PURE));
        assert!(!info.has_trait(traits::TERMINATOR));
    }

    #[test]
    fn effect_constructors() {
        let e = Effect::read_unknown();
        assert_eq!(e.kind, EffectKind::Read);
        assert!(e.value.is_none());
    }
}
