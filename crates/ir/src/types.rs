//! The type system: interned built-in types plus extensible dialect types.
//!
//! [`Type`] is a cheap handle (an `Arc` to interned data); equality and
//! hashing are pointer-based, which is sound because all types are interned
//! in a [`crate::Context`]. The handle is `Send + Sync`, so decoded
//! artifacts that carry types (the simulator's `KernelPlan`) can be shared
//! across worker threads. Dialect types (e.g. the SYCL dialect's
//! `!sycl.id<2>`) plug in through [`DialectTypeImpl`] without this crate
//! knowing about them — this mirrors MLIR's extensible type system that the
//! paper's SYCL dialect relies on (§III).

use std::any::Any;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A handle to an interned type. Cheap to clone; equality is pointer equality.
///
/// ```
/// use sycl_mlir_ir::Context;
/// let ctx = Context::new();
/// assert_eq!(ctx.i32_type(), ctx.i32_type());
/// assert_ne!(ctx.i32_type(), ctx.i64_type());
/// ```
#[derive(Clone)]
pub struct Type(Arc<TypeKind>);

impl Type {
    pub(crate) fn from_kind(kind: TypeKind) -> Type {
        Type(Arc::new(kind))
    }

    /// The structural description of this type.
    pub fn kind(&self) -> &TypeKind {
        &self.0
    }

    /// Returns `true` for any integer type (including `i1`).
    pub fn is_integer(&self) -> bool {
        matches!(*self.0, TypeKind::Int(_))
    }

    /// Bit width for integer types.
    pub fn int_width(&self) -> Option<u32> {
        match *self.0 {
            TypeKind::Int(w) => Some(w),
            _ => None,
        }
    }

    /// Returns `true` for `f32` and `f64`.
    pub fn is_float(&self) -> bool {
        matches!(*self.0, TypeKind::F32 | TypeKind::F64)
    }

    /// Returns `true` for the platform-width `index` type.
    pub fn is_index(&self) -> bool {
        matches!(*self.0, TypeKind::Index)
    }

    /// Returns `true` for `index` or any integer type.
    pub fn is_int_or_index(&self) -> bool {
        self.is_integer() || self.is_index()
    }

    /// Returns `true` for memref types.
    pub fn is_memref(&self) -> bool {
        matches!(*self.0, TypeKind::MemRef { .. })
    }

    /// Element type of a memref.
    pub fn memref_elem(&self) -> Option<Type> {
        match &*self.0 {
            TypeKind::MemRef { elem, .. } => Some(elem.clone()),
            _ => None,
        }
    }

    /// Shape of a memref (`-1` encodes a dynamic dimension, printed `?`).
    pub fn memref_shape(&self) -> Option<&[i64]> {
        match &*self.0 {
            TypeKind::MemRef { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Inputs and results of a function type.
    pub fn function_signature(&self) -> Option<(&[Type], &[Type])> {
        match &*self.0 {
            TypeKind::Function { inputs, results } => Some((inputs, results)),
            _ => None,
        }
    }

    /// Downcast a dialect type to its concrete implementation.
    ///
    /// ```ignore
    /// let id_ty = ty.dialect_type::<IdType>().expect("not a !sycl.id");
    /// ```
    pub fn dialect_type<T: DialectTypeImpl>(&self) -> Option<&T> {
        match &*self.0 {
            TypeKind::Dialect(d) => d.0.as_any().downcast_ref::<T>(),
            _ => None,
        }
    }
}

impl PartialEq for Type {
    fn eq(&self, other: &Type) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Type {}

impl Hash for Type {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(Arc::as_ptr(&self.0) as usize);
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.0 {
            TypeKind::Int(w) => write!(f, "i{w}"),
            TypeKind::Index => write!(f, "index"),
            TypeKind::F32 => write!(f, "f32"),
            TypeKind::F64 => write!(f, "f64"),
            TypeKind::None => write!(f, "none"),
            TypeKind::Ptr => write!(f, "ptr"),
            TypeKind::MemRef { elem, shape } => {
                write!(f, "memref<")?;
                for d in shape {
                    if *d < 0 {
                        write!(f, "?x")?;
                    } else {
                        write!(f, "{d}x")?;
                    }
                }
                write!(f, "{elem}>")
            }
            TypeKind::Function { inputs, results } => {
                write!(f, "(")?;
                for (i, t) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ") -> (")?;
                for (i, t) in results.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            TypeKind::Dialect(d) => write!(f, "{}", d.0.print()),
        }
    }
}

/// Structural description of a type; used as the interning key.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TypeKind {
    /// Signless integer of the given bit width (`i1`, `i8`, …, `i64`).
    Int(u32),
    /// Platform-width index type used for loop induction variables and
    /// memref subscripts.
    Index,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// The unit type.
    None,
    /// Opaque pointer, used by the `llvm` dialect for host code.
    Ptr,
    /// Multi-dimensional buffer view; `-1` in the shape is a dynamic extent.
    MemRef { elem: Type, shape: Vec<i64> },
    /// Function type.
    Function {
        inputs: Vec<Type>,
        results: Vec<Type>,
    },
    /// A type defined by a dialect outside this crate.
    Dialect(DialectType),
}

/// Type-erased wrapper around a dialect-defined type.
#[derive(Clone)]
pub struct DialectType(pub Arc<dyn DialectTypeImpl>);

impl DialectType {
    pub fn new<T: DialectTypeImpl>(imp: T) -> DialectType {
        DialectType(Arc::new(imp))
    }
}

impl PartialEq for DialectType {
    fn eq(&self, other: &DialectType) -> bool {
        self.0.eq_dyn(&*other.0)
    }
}

impl Eq for DialectType {}

impl Hash for DialectType {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash_code());
    }
}

impl fmt::Debug for DialectType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.print())
    }
}

/// Implemented by concrete dialect types (e.g. the SYCL dialect's `id`,
/// `range`, `accessor` types). Instances must be immutable value objects:
/// `eq_dyn`/`hash_code` define structural identity used for interning. The
/// `Send + Sync` bound keeps [`Type`] handles shareable across the
/// simulator's worker threads.
pub trait DialectTypeImpl: fmt::Debug + Send + Sync + 'static {
    /// The owning dialect's namespace, e.g. `"sycl"`.
    fn dialect(&self) -> &'static str;
    /// The type's name within the dialect, e.g. `"id"`.
    fn type_name(&self) -> &'static str;
    /// Structural equality against another dialect type.
    fn eq_dyn(&self, other: &dyn DialectTypeImpl) -> bool;
    /// Structural hash, consistent with [`DialectTypeImpl::eq_dyn`].
    fn hash_code(&self) -> u64;
    /// Full textual form, e.g. `"!sycl.id<2>"`.
    fn print(&self) -> String;
    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;
}

#[cfg(test)]
mod tests {
    use crate::Context;

    #[test]
    fn interning_gives_pointer_equality() {
        let ctx = Context::new();
        let a = ctx.memref_type(ctx.f32_type(), &[-1, 4]);
        let b = ctx.memref_type(ctx.f32_type(), &[-1, 4]);
        let c = ctx.memref_type(ctx.f64_type(), &[-1, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_forms() {
        let ctx = Context::new();
        assert_eq!(ctx.i1_type().to_string(), "i1");
        assert_eq!(ctx.index_type().to_string(), "index");
        let m = ctx.memref_type(ctx.f32_type(), &[-1]);
        assert_eq!(m.to_string(), "memref<?xf32>");
        let m2 = ctx.memref_type(ctx.i64_type(), &[10]);
        assert_eq!(m2.to_string(), "memref<10xi64>");
        let f = ctx.function_type(&[ctx.i32_type()], &[ctx.f32_type()]);
        assert_eq!(f.to_string(), "(i32) -> (f32)");
    }

    #[test]
    fn accessors() {
        let ctx = Context::new();
        let m = ctx.memref_type(ctx.f32_type(), &[2, 3]);
        assert!(m.is_memref());
        assert_eq!(m.memref_elem().unwrap(), ctx.f32_type());
        assert_eq!(m.memref_shape().unwrap(), &[2, 3]);
        assert!(ctx.i32_type().is_int_or_index());
        assert!(ctx.index_type().is_int_or_index());
        assert!(!ctx.f32_type().is_int_or_index());
        assert_eq!(ctx.i32_type().int_width(), Some(32));
    }
}
