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
//! * an optional **verifier** and **folder**.

use crate::attrs::Attribute;
use crate::module::{Module, OpId, ValueId};
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
            verify: None,
            effects: None,
            fold: None,
        }
    }

    pub fn with_traits(mut self, t: u32) -> OpInfo {
        self.traits |= t;
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
