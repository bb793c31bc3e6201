//! The [`Context`]: interner for types and the registry for dialects,
//! operations, type parsers and the constant materializer hook.

use crate::attrs::{AttrKey, Attribute};
use crate::dialect::{Dialect, OpInfo, OpName};
use crate::fxhash::FxHashMap;
use crate::module::{BlockId, Module, ValueId};
use crate::types::{DialectType, DialectTypeImpl, Type, TypeKind};
use std::cell::RefCell;
use std::sync::Arc;

/// Parses the `<body>` of a dialect type like `!sycl.id<2>`; receives the
/// type name (`"id"`) and the body text (`"2"`).
pub type TypeParserFn = fn(&Context, name: &str, body: &str) -> Option<Type>;

/// Materializes a constant op producing `attr` of the given type, inserting
/// it into `block` at `index`; returns the produced value. Registered by the
/// `arith` dialect and used by the folding driver.
pub type ConstantMaterializerFn =
    fn(&mut Module, block: BlockId, index: usize, attr: &Attribute, ty: &Type) -> Option<ValueId>;

struct ContextInner {
    types: RefCell<FxHashMap<TypeKind, Type>>,
    op_infos: RefCell<Vec<OpInfo>>,
    op_names: RefCell<FxHashMap<String, OpName>>,
    attr_keys: RefCell<FxHashMap<String, AttrKey>>,
    attr_key_names: RefCell<Vec<Arc<str>>>,
    dialects: RefCell<Vec<&'static str>>,
    type_parsers: RefCell<FxHashMap<String, TypeParserFn>>,
    materializer: RefCell<Option<ConstantMaterializerFn>>,
}

/// The names behind [`CommonKeys`], in the order [`Context::new`] interns
/// them.
const COMMON_KEY_NAMES: [&str; 4] = ["value", "predicate", "callee", "sym_name"];

/// Pre-interned keys for the attributes every hot path touches. Obtained
/// from [`Context::common_keys`]; stable for the lifetime of the context.
#[derive(Clone, Copy, Debug)]
pub struct CommonKeys {
    /// `"value"` — constant payloads (`arith.constant`).
    pub value: AttrKey,
    /// `"predicate"` — `arith.cmpi`/`arith.cmpf` comparison kind.
    pub predicate: AttrKey,
    /// `"callee"` — `func.call` targets.
    pub callee: AttrKey,
    /// `"sym_name"` — symbol declarations.
    pub sym_name: AttrKey,
}

/// Shared, cheaply clonable compilation context.
///
/// All modules created against a context share its interned types and op
/// registry. Registering a dialect twice is idempotent.
///
/// The spine is an `Arc` so handles derived from the context (interned
/// [`Type`]s, op-name and attr-key strings) are `Send + Sync`; the context
/// itself stays single-threaded (`RefCell` registries) — IR construction
/// and transformation are not parallel, only decoded kernel plans are.
///
/// ```
/// use sycl_mlir_ir::Context;
/// let ctx = Context::new();
/// let t = ctx.memref_type(ctx.f32_type(), &[-1]);
/// assert_eq!(t.to_string(), "memref<?xf32>");
/// ```
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

impl Default for Context {
    fn default() -> Context {
        Context::new()
    }
}

impl Context {
    /// Create a context with the `builtin` dialect pre-registered.
    pub fn new() -> Context {
        // The registries inside are `RefCell` (IR construction and
        // transformation are single-threaded by design), so the `Arc`
        // shares the context among the modules of one thread — every
        // module built from `sycl_mlir_frontend::full_context()` holds a
        // clone of that thread's one registered context — and never across
        // threads. It keeps the spine uniform with the `Send + Sync`
        // handles (interned types, name strings) derived from it.
        #[allow(clippy::arc_with_non_send_sync)]
        let ctx = Context {
            inner: Arc::new(ContextInner {
                types: RefCell::default(),
                op_infos: RefCell::default(),
                op_names: RefCell::default(),
                attr_keys: RefCell::default(),
                attr_key_names: RefCell::default(),
                dialects: RefCell::default(),
                type_parsers: RefCell::default(),
                materializer: RefCell::new(None),
            }),
        };
        // The hot attribute keys are interned first, so `common_keys` ids
        // are the same in every context.
        for key in COMMON_KEY_NAMES {
            ctx.attr_key(key);
        }
        crate::module::register_builtin(&ctx);
        ctx
    }

    /// Intern an attribute key, returning its stable id.
    pub fn attr_key(&self, name: &str) -> AttrKey {
        if let Some(&k) = self.inner.attr_keys.borrow().get(name) {
            return k;
        }
        let mut names = self.inner.attr_key_names.borrow_mut();
        let k = AttrKey(names.len() as u32);
        names.push(Arc::from(name));
        self.inner
            .attr_keys
            .borrow_mut()
            .insert(name.to_string(), k);
        k
    }

    /// The textual name of an interned attribute key.
    pub fn attr_key_str(&self, key: AttrKey) -> Arc<str> {
        self.inner.attr_key_names.borrow()[key.0 as usize].clone()
    }

    /// Read the key-name table in place, indexed by [`AttrKey`]: lets a
    /// lookup by name compare against the few keys an op carries instead of
    /// hashing the name. `f` must not intern keys.
    pub(crate) fn with_attr_key_names<R>(&self, f: impl FnOnce(&[Arc<str>]) -> R) -> R {
        f(&self.inner.attr_key_names.borrow())
    }

    /// Pre-interned ids of the most frequently accessed attribute keys:
    /// constants, because every context interns these four before anything
    /// else.
    pub fn common_keys(&self) -> CommonKeys {
        CommonKeys {
            value: AttrKey(0),
            predicate: AttrKey(1),
            callee: AttrKey(2),
            sym_name: AttrKey(3),
        }
    }

    /// Intern a type; structurally equal kinds yield pointer-equal types.
    pub fn intern_type(&self, kind: TypeKind) -> Type {
        if let Some(t) = self.inner.types.borrow().get(&kind) {
            return t.clone();
        }
        let t = Type::from_kind(kind.clone());
        self.inner.types.borrow_mut().insert(kind, t.clone());
        t
    }

    pub fn i1_type(&self) -> Type {
        self.intern_type(TypeKind::Int(1))
    }

    pub fn i32_type(&self) -> Type {
        self.intern_type(TypeKind::Int(32))
    }

    pub fn i64_type(&self) -> Type {
        self.intern_type(TypeKind::Int(64))
    }

    pub fn int_type(&self, width: u32) -> Type {
        self.intern_type(TypeKind::Int(width))
    }

    pub fn index_type(&self) -> Type {
        self.intern_type(TypeKind::Index)
    }

    pub fn f32_type(&self) -> Type {
        self.intern_type(TypeKind::F32)
    }

    pub fn f64_type(&self) -> Type {
        self.intern_type(TypeKind::F64)
    }

    pub fn none_type(&self) -> Type {
        self.intern_type(TypeKind::None)
    }

    pub fn ptr_type(&self) -> Type {
        self.intern_type(TypeKind::Ptr)
    }

    /// `memref<shape x elem>`; `-1` in `shape` is a dynamic dimension.
    pub fn memref_type(&self, elem: Type, shape: &[i64]) -> Type {
        self.intern_type(TypeKind::MemRef {
            elem,
            shape: shape.to_vec(),
        })
    }

    pub fn function_type(&self, inputs: &[Type], results: &[Type]) -> Type {
        self.intern_type(TypeKind::Function {
            inputs: inputs.to_vec(),
            results: results.to_vec(),
        })
    }

    /// Intern a dialect-defined type.
    pub fn dialect_type<T: DialectTypeImpl>(&self, imp: T) -> Type {
        self.intern_type(TypeKind::Dialect(DialectType::new(imp)))
    }

    /// Register an operation. Re-registering the same name returns the
    /// existing [`OpName`] (the new info is ignored), making dialect
    /// registration idempotent.
    pub fn register_op(&self, info: OpInfo) -> OpName {
        let key = info.name.to_string();
        if let Some(existing) = self.inner.op_names.borrow().get(&key) {
            return *existing;
        }
        let mut infos = self.inner.op_infos.borrow_mut();
        let name = OpName(infos.len() as u32);
        infos.push(info);
        self.inner.op_names.borrow_mut().insert(key, name);
        name
    }

    /// Look up a registered operation by full name (e.g. `"arith.addi"`).
    pub fn lookup_op(&self, full_name: &str) -> Option<OpName> {
        self.inner.op_names.borrow().get(full_name).copied()
    }

    /// Like [`Context::lookup_op`] but panics with a helpful message; use
    /// when the dialect is known to be registered.
    ///
    /// # Panics
    ///
    /// Panics if the op was never registered.
    pub fn op(&self, full_name: &str) -> OpName {
        self.lookup_op(full_name).unwrap_or_else(|| {
            panic!("operation `{full_name}` is not registered; did you register its dialect?")
        })
    }

    /// Registered metadata for an op name.
    pub fn op_info(&self, name: OpName) -> OpInfo {
        self.with_op_info(name, OpInfo::clone)
    }

    /// Read an op's registered metadata in place, without cloning it — the
    /// accessor behind trait tests, name tests and the verifier's per-op
    /// hook lookup. `f` must not register operations.
    pub(crate) fn with_op_info<R>(&self, name: OpName, f: impl FnOnce(&OpInfo) -> R) -> R {
        f(&self.inner.op_infos.borrow()[name.0 as usize])
    }

    /// Full textual name for an op.
    pub fn op_name_str(&self, name: OpName) -> Arc<str> {
        self.with_op_info(name, |info| info.name.clone())
    }

    /// Register a dialect (idempotent).
    pub fn register_dialect(&self, dialect: &dyn Dialect) {
        if self.inner.dialects.borrow().contains(&dialect.name()) {
            return;
        }
        self.inner.dialects.borrow_mut().push(dialect.name());
        dialect.register(self);
    }

    /// Names of all registered dialects.
    pub fn registered_dialects(&self) -> Vec<&'static str> {
        self.inner.dialects.borrow().clone()
    }

    /// Register the parser hook for `!<dialect>.<name><body?>` types.
    pub fn register_type_parser(&self, dialect: &str, parser: TypeParserFn) {
        self.inner
            .type_parsers
            .borrow_mut()
            .insert(dialect.to_string(), parser);
    }

    pub(crate) fn type_parser(&self, dialect: &str) -> Option<TypeParserFn> {
        self.inner.type_parsers.borrow().get(dialect).copied()
    }

    /// Register the constant materializer (normally done by the `arith`
    /// dialect).
    pub fn register_constant_materializer(&self, f: ConstantMaterializerFn) {
        *self.inner.materializer.borrow_mut() = Some(f);
    }

    pub fn constant_materializer(&self) -> Option<ConstantMaterializerFn> {
        *self.inner.materializer.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::traits;

    #[test]
    fn op_registration_is_idempotent() {
        let ctx = Context::new();
        let a = ctx.register_op(OpInfo::new("test.op").with_traits(traits::PURE));
        let b = ctx.register_op(OpInfo::new("test.op"));
        assert_eq!(a, b);
        assert!(ctx.op_info(a).has_trait(traits::PURE));
        assert_eq!(&*ctx.op_name_str(a), "test.op");
    }

    #[test]
    fn common_keys_are_the_first_interned() {
        let ctx = Context::new();
        let keys = ctx.common_keys();
        let ids = [keys.value, keys.predicate, keys.callee, keys.sym_name];
        for (id, name) in ids.into_iter().zip(COMMON_KEY_NAMES) {
            assert_eq!(ctx.attr_key(name), id);
            assert_eq!(&*ctx.attr_key_str(id), name);
        }
    }

    #[test]
    fn lookup_missing_op() {
        let ctx = Context::new();
        assert!(ctx.lookup_op("nope.nope").is_none());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn op_panics_on_missing() {
        let ctx = Context::new();
        let _ = ctx.op("ghost.op");
    }
}
