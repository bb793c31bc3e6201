//! The [`Context`]: interner for types, attribute keys, strings and
//! symbols, and the registry for dialects, operations, type parsers and the
//! constant materializer hook.

use crate::attrs::{AttrKey, Attribute};
use crate::dialect::{Dialect, OpInfo, OpName};
use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::module::{BlockId, Module, ValueId};
use crate::types::{DialectType, DialectTypeImpl, Type, TypeKind};
use std::cell::{Cell, RefCell};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Parses the `<body>` of a dialect type like `!sycl.id<2>`; receives the
/// type name (`"id"`) and the body text (`"2"`).
pub type TypeParserFn = fn(&Context, name: &str, body: &str) -> Option<Type>;

/// Materializes a constant op producing `attr` of the given type, inserting
/// it into `block` at `index`; returns the produced value. Registered by the
/// `arith` dialect and used by the folding driver.
pub type ConstantMaterializerFn =
    fn(&mut Module, block: BlockId, index: usize, attr: &Attribute, ty: &Type) -> Option<ValueId>;

/// An interned symbol path, as [`Attribute::SymbolRef`] holds it.
type Symbol = Arc<[Arc<str>]>;

struct ContextInner {
    /// Interned types, bucketed by [`kind_hash`]: a lookup by borrowed
    /// parts ([`Context::memref_type`] and friends) builds no key.
    types: Buckets<Type>,
    op_infos: RefCell<Vec<OpInfo>>,
    op_names: RefCell<FxHashMap<String, OpName>>,
    op_name_cache: NameCache,
    attr_keys: RefCell<FxHashMap<String, AttrKey>>,
    attr_key_names: RefCell<Vec<Arc<str>>>,
    attr_key_cache: NameCache,
    /// Payloads of [`Attribute::Str`] and the segments of symbols.
    strings: RefCell<FxHashSet<Arc<str>>>,
    /// Payloads of [`Attribute::SymbolRef`], bucketed by the hash of their
    /// segments' text.
    symbols: Buckets<Symbol>,
    dialects: RefCell<Vec<&'static str>>,
    type_parsers: RefCell<FxHashMap<String, TypeParserFn>>,
    materializer: RefCell<Option<ConstantMaterializerFn>>,
}

/// Interned values bucketed by a hash their interner computes, so that a
/// lookup compares candidates against borrowed parts instead of building an
/// owned key to probe with.
struct Buckets<T>(RefCell<FxHashMap<u64, Vec<T>>>);

impl<T> Default for Buckets<T> {
    fn default() -> Buckets<T> {
        Buckets(RefCell::default())
    }
}

impl<T: Clone> Buckets<T> {
    /// The value under `hash` that `is` accepts.
    fn find(&self, hash: u64, is: impl Fn(&T) -> bool) -> Option<T> {
        self.0.borrow().get(&hash)?.iter().find(|v| is(v)).cloned()
    }

    /// Add a value [`Buckets::find`] did not find, and return it.
    fn insert(&self, hash: u64, value: T) -> T {
        self.0
            .borrow_mut()
            .entry(hash)
            .or_default()
            .push(value.clone());
        value
    }
}

/// Slots of a [`NameCache`]; a power of two.
const NAME_CACHE_SLOTS: usize = 256;

/// A direct-mapped cache in front of a name table, keyed by where the name
/// lives: its address and length. The op names and attribute keys that
/// builders and passes ask for are string literals, so a repeated question
/// arrives from the same address and is answered without hashing the name.
/// A slot only nominates an id; the caller compares the table's own name
/// for that id with the question before it trusts the hit, so a different
/// string at a reused address gets the table's answer, never a stale one.
struct NameCache {
    slots: [Cell<(usize, usize, u32)>; NAME_CACHE_SLOTS],
}

impl Default for NameCache {
    fn default() -> NameCache {
        NameCache {
            slots: std::array::from_fn(|_| Cell::new((0, 0, 0))),
        }
    }
}

impl NameCache {
    fn slot(&self, name: &str) -> &Cell<(usize, usize, u32)> {
        let addr = name.as_ptr() as usize;
        let mixed = ((addr ^ name.len()) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.slots[(mixed >> 56) as usize % NAME_CACHE_SLOTS]
    }

    /// The id last stored for a name at this address and length, if any.
    fn candidate(&self, name: &str) -> Option<u32> {
        let (addr, len, id) = self.slot(name).get();
        (addr == name.as_ptr() as usize && len == name.len()).then_some(id)
    }

    fn store(&self, name: &str, id: u32) {
        self.slot(name)
            .set((name.as_ptr() as usize, name.len(), id));
    }
}

/// The interning hash of a type kind. [`Context::memref_type`],
/// [`Context::function_type`] and [`Context::dialect_type`] compute the
/// same value from borrowed parts, so they find an existing type without
/// building its kind.
fn kind_hash(kind: &TypeKind) -> u64 {
    match kind {
        TypeKind::MemRef { elem, shape } => memref_hash(elem, shape),
        TypeKind::Function { inputs, results } => function_hash(inputs, results),
        TypeKind::Dialect(d) => dialect_hash(&*d.0),
        scalar => fx_hash(scalar),
    }
}

fn fx_hash(value: impl Hash) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

fn memref_hash(elem: &Type, shape: &[i64]) -> u64 {
    fx_hash(("memref", elem, shape))
}

fn function_hash(inputs: &[Type], results: &[Type]) -> u64 {
    fx_hash(("function", inputs, results))
}

fn dialect_hash(imp: &dyn DialectTypeImpl) -> u64 {
    fx_hash(("dialect", imp.hash_code()))
}

/// The names behind [`CommonKeys`], in the order [`Context::new`] interns
/// them.
const COMMON_KEY_NAMES: [&str; 8] = [
    "value",
    "predicate",
    "callee",
    "sym_name",
    "function_type",
    "type",
    "kernel",
    "form",
];

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
    /// `"function_type"` — a `func.func`'s signature.
    pub function_type: AttrKey,
    /// `"type"` — the object a `sycl.host.constructor` builds.
    pub ty: AttrKey,
    /// `"kernel"` — the kernel a `sycl.host.schedule_kernel` launches.
    pub kernel: AttrKey,
    /// `"form"` — a kernel launch's range or nd-range form.
    pub form: AttrKey,
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
                types: Buckets::default(),
                op_infos: RefCell::default(),
                op_names: RefCell::default(),
                op_name_cache: NameCache::default(),
                attr_keys: RefCell::default(),
                attr_key_names: RefCell::default(),
                attr_key_cache: NameCache::default(),
                strings: RefCell::default(),
                symbols: Buckets::default(),
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

    /// Intern an attribute key, returning its stable id. A key asked for
    /// again from the same string is found without hashing it.
    pub fn attr_key(&self, name: &str) -> AttrKey {
        let cache = &self.inner.attr_key_cache;
        if let Some(id) = cache.candidate(name) {
            if &*self.inner.attr_key_names.borrow()[id as usize] == name {
                return AttrKey(id);
            }
        }
        let found = self.inner.attr_keys.borrow().get(name).copied();
        let k = found.unwrap_or_else(|| {
            let mut names = self.inner.attr_key_names.borrow_mut();
            let k = AttrKey(names.len() as u32);
            names.push(Arc::from(name));
            self.inner
                .attr_keys
                .borrow_mut()
                .insert(name.to_string(), k);
            k
        });
        cache.store(name, k.0);
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
    /// constants, because every context interns these before anything
    /// else.
    pub fn common_keys(&self) -> CommonKeys {
        CommonKeys {
            value: AttrKey(0),
            predicate: AttrKey(1),
            callee: AttrKey(2),
            sym_name: AttrKey(3),
            function_type: AttrKey(4),
            ty: AttrKey(5),
            kernel: AttrKey(6),
            form: AttrKey(7),
        }
    }

    /// Intern a type; structurally equal kinds yield pointer-equal types.
    fn intern_type(&self, kind: TypeKind) -> Type {
        let hash = kind_hash(&kind);
        self.find_type(hash, |k| *k == kind)
            .unwrap_or_else(|| self.insert_type(hash, kind))
    }

    /// The interned type whose kind hashes to `hash` and satisfies `is`.
    fn find_type(&self, hash: u64, is: impl Fn(&TypeKind) -> bool) -> Option<Type> {
        self.inner.types.find(hash, |t| is(t.kind()))
    }

    /// Intern a kind that [`Context::find_type`] did not find.
    fn insert_type(&self, hash: u64, kind: TypeKind) -> Type {
        self.inner.types.insert(hash, Type::from_kind(kind))
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
    /// Builds the type's kind only the first time it is asked for.
    pub fn memref_type(&self, elem: Type, shape: &[i64]) -> Type {
        let hash = memref_hash(&elem, shape);
        let is = |k: &TypeKind| matches!(k, TypeKind::MemRef { elem: e, shape: s } if *e == elem && s == shape);
        self.find_type(hash, is).unwrap_or_else(|| {
            let shape = shape.to_vec();
            self.insert_type(hash, TypeKind::MemRef { elem, shape })
        })
    }

    /// Builds the type's kind only the first time it is asked for.
    pub fn function_type(&self, inputs: &[Type], results: &[Type]) -> Type {
        let hash = function_hash(inputs, results);
        let is = |k: &TypeKind| matches!(k, TypeKind::Function { inputs: i, results: r } if i == inputs && r == results);
        self.find_type(hash, is).unwrap_or_else(|| {
            let (inputs, results) = (inputs.to_vec(), results.to_vec());
            self.insert_type(hash, TypeKind::Function { inputs, results })
        })
    }

    /// Intern a dialect-defined type; boxes `imp` only the first time an
    /// equal type is asked for.
    pub fn dialect_type<T: DialectTypeImpl>(&self, imp: T) -> Type {
        let hash = dialect_hash(&imp);
        let is = |k: &TypeKind| matches!(k, TypeKind::Dialect(d) if d.0.eq_dyn(&imp));
        self.find_type(hash, is)
            .unwrap_or_else(|| self.insert_type(hash, TypeKind::Dialect(DialectType::new(imp))))
    }

    /// Intern a string: every call with the same text returns the same
    /// `Arc`, and a call for text already in the table allocates nothing.
    fn intern_str(&self, text: &str) -> Arc<str> {
        if let Some(s) = self.inner.strings.borrow().get(text) {
            return s.clone();
        }
        let s: Arc<str> = Arc::from(text);
        self.inner.strings.borrow_mut().insert(s.clone());
        s
    }

    /// An [`Attribute::Str`] whose payload is interned.
    pub fn str_attr(&self, text: &str) -> Attribute {
        Attribute::Str(self.intern_str(text))
    }

    /// An [`Attribute::SymbolRef`] to `path` (`["device", "k"]` is
    /// `@device::@k`) whose payload is interned: the same path always
    /// yields the same `Arc`, and a path already in the table allocates
    /// nothing.
    pub fn symbol_attr(&self, path: &[&str]) -> Attribute {
        let hash = fx_hash(path);
        let same =
            |s: &Symbol| s.len() == path.len() && s.iter().zip(path).all(|(a, b)| **a == **b);
        let symbol = self.inner.symbols.find(hash, same).unwrap_or_else(|| {
            let symbol = path.iter().map(|p| self.intern_str(p)).collect();
            self.inner.symbols.insert(hash, symbol)
        });
        Attribute::SymbolRef(symbol)
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
    /// A name asked for again from the same string is found without hashing
    /// it.
    pub fn lookup_op(&self, full_name: &str) -> Option<OpName> {
        let cache = &self.inner.op_name_cache;
        if let Some(id) = cache.candidate(full_name) {
            if self.with_op_info(OpName(id), |info| &*info.name == full_name) {
                return Some(OpName(id));
            }
        }
        let name = self.inner.op_names.borrow().get(full_name).copied()?;
        cache.store(full_name, name.0);
        Some(name)
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

    /// Every registered operation, in registration order.
    pub fn registered_ops(&self) -> Vec<OpName> {
        (0..self.inner.op_infos.borrow().len() as u32)
            .map(OpName)
            .collect()
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
        let ids = [
            keys.value,
            keys.predicate,
            keys.callee,
            keys.sym_name,
            keys.function_type,
            keys.ty,
            keys.kernel,
            keys.form,
        ];
        for (id, name) in ids.into_iter().zip(COMMON_KEY_NAMES) {
            assert_eq!(ctx.attr_key(name), id);
            assert_eq!(&*ctx.attr_key_str(id), name);
        }
    }

    /// Names interned through the context share one payload: the same
    /// string or symbol built twice, from literals or from a heap string
    /// with the same text, and a symbol's segments with the strings.
    #[test]
    fn the_same_string_or_symbol_interns_to_one_payload() {
        let ctx = Context::new();
        let heap = String::from("sycl::range");
        let (Attribute::Str(a), Attribute::Str(b)) =
            (ctx.str_attr("sycl::range"), ctx.str_attr(&heap))
        else {
            panic!("str_attr builds a string")
        };
        assert!(Arc::ptr_eq(&a, &b));
        let path = ["device", "k"];
        let (Attribute::SymbolRef(p), Attribute::SymbolRef(q)) =
            (ctx.symbol_attr(&path), ctx.symbol_attr(&path))
        else {
            panic!("symbol_attr builds a symbol")
        };
        assert!(Arc::ptr_eq(&p, &q));
        assert!(Arc::ptr_eq(&p[1], &ctx.intern_str("k")));
        // A prefix or a reordering of the path is another symbol.
        for other in [&["device"][..], &["k", "device"]] {
            let Attribute::SymbolRef(o) = ctx.symbol_attr(other) else {
                panic!("symbol_attr builds a symbol")
            };
            assert!(!Arc::ptr_eq(&p, &o) && *p != *o);
        }
    }

    /// Interning changes where a payload lives, not what it means: an
    /// interned attribute and one built without the context are the same
    /// constant, and `hash_constant` feeds the hasher exactly what the
    /// owned `String` / `Vec<String>` payloads fed it, so CSE merges what
    /// it merged.
    #[test]
    fn interned_names_are_the_same_constants_as_before() {
        use crate::fxhash::FxHasher;
        use std::hash::{Hash, Hasher};
        let ctx = Context::new();
        let hash = |a: &Attribute| {
            let mut h = FxHasher::default();
            a.hash_constant(&mut h);
            h.finish()
        };
        let owned_hash = |a: &Attribute, payload: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            std::mem::discriminant(a).hash(&mut h);
            payload(&mut h);
            h.finish()
        };
        let s = ctx.str_attr("slt");
        let plain = Attribute::Str("slt".into());
        assert!(s.same_constant(&plain) && plain.same_constant(&s));
        assert!(!s.same_constant(&ctx.str_attr("sle")));
        assert_eq!(hash(&s), hash(&plain));
        assert_eq!(hash(&s), owned_hash(&s, &|h| String::from("slt").hash(h)));
        let sym = ctx.symbol_attr(&["device", "k"]);
        let plain = Attribute::SymbolRef(vec!["device".into(), "k".into()].into());
        assert!(sym.same_constant(&plain) && plain.same_constant(&sym));
        assert!(!sym.same_constant(&ctx.symbol_attr(&["device"])));
        assert!(!sym.same_constant(&ctx.str_attr("device::k")));
        assert_eq!(hash(&sym), hash(&plain));
        let old = vec![String::from("device"), String::from("k")];
        assert_eq!(hash(&sym), owned_hash(&sym, &|h| old.hash(h)));
    }

    /// print → parse → print is a fixed point for both interned kinds, and
    /// the parser interns through the same table as the builders.
    #[test]
    fn interned_names_round_trip_through_text() {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("t.op"));
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let attrs = [
            ("s", ctx.str_attr("sycl::buffer")),
            ("e", ctx.str_attr("a \"quoted\" name")),
            ("f", ctx.symbol_attr(&["sycl_range_ctor"])),
            ("p", ctx.symbol_attr(&["device", "k"])),
        ];
        crate::Builder::at_end(&mut m, block).build("t.op", &[], &[], attrs.clone());
        let printed = crate::print_module(&m);
        let parsed = crate::parse_module(&ctx, &printed).expect("parses");
        assert_eq!(crate::print_module(&parsed), printed);
        let op = parsed.block_ops(parsed.top_block())[0];
        for (key, built) in &attrs {
            let read = parsed.attr(op, key).expect("attribute survives");
            match (built, read) {
                (Attribute::Str(a), Attribute::Str(b)) => assert!(Arc::ptr_eq(a, b)),
                (Attribute::SymbolRef(a), Attribute::SymbolRef(b)) => assert!(Arc::ptr_eq(a, b)),
                other => panic!("kind changed: {other:?}"),
            }
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
