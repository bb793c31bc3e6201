//! SYCL dialect types (§III of the paper): the classes `id`, `range`,
//! `item`, `nd_item`, `nd_range`, `group`, `accessor` and `buffer` modelled
//! as MLIR types.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use sycl_mlir_ir::parser::parse_type as parse_type_str;
use sycl_mlir_ir::{Context, DialectTypeImpl, Type};

/// Accessor access mode (encoded in the C++ type via template parameters,
/// §II-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessMode {
    Read,
    Write,
    ReadWrite,
}

impl AccessMode {
    pub fn as_str(self) -> &'static str {
        match self {
            AccessMode::Read => "read",
            AccessMode::Write => "write",
            AccessMode::ReadWrite => "read_write",
        }
    }

    pub fn parse(s: &str) -> Option<AccessMode> {
        match s {
            "read" => Some(AccessMode::Read),
            "write" => Some(AccessMode::Write),
            "read_write" => Some(AccessMode::ReadWrite),
            _ => None,
        }
    }

    /// `true` if the mode permits reading.
    pub fn can_read(self) -> bool {
        !matches!(self, AccessMode::Write)
    }

    /// `true` if the mode permits writing.
    pub fn can_write(self) -> bool {
        !matches!(self, AccessMode::Read)
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Accessor target memory: global device memory or work-group local memory
/// (the memory hierarchy of §II-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    Global,
    Local,
}

impl Target {
    pub fn as_str(self) -> &'static str {
        match self {
            Target::Global => "global",
            Target::Local => "local",
        }
    }

    pub fn parse(s: &str) -> Option<Target> {
        match s {
            "global" => Some(Target::Global),
            "local" => Some(Target::Local),
            _ => None,
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

macro_rules! impl_dialect_type {
    ($ty:ty, $name:literal) => {
        impl DialectTypeImpl for $ty {
            fn dialect(&self) -> &'static str {
                "sycl"
            }

            fn type_name(&self) -> &'static str {
                $name
            }

            fn eq_dyn(&self, other: &dyn DialectTypeImpl) -> bool {
                other.as_any().downcast_ref::<$ty>() == Some(self)
            }

            fn hash_code(&self) -> u64 {
                let mut h = DefaultHasher::new();
                $name.hash(&mut h);
                self.hash(&mut h);
                h.finish()
            }

            fn print(&self) -> String {
                self.print_impl()
            }

            fn as_any(&self) -> &dyn Any {
                self
            }
        }
    };
}

macro_rules! dim_only_type {
    ($(#[$doc:meta])* $ty:ident, $name:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub struct $ty {
            pub dim: u32,
        }

        impl $ty {
            fn print_impl(&self) -> String {
                format!(concat!("!sycl.", $name, "<{}>"), self.dim)
            }
        }

        impl_dialect_type!($ty, $name);
    };
}

dim_only_type!(
    /// `!sycl.id<n>` — a point in an n-dimensional index space.
    IdType, "id");
dim_only_type!(
    /// `!sycl.range<n>` — extents of an n-dimensional index space.
    RangeType, "range");
dim_only_type!(
    /// `!sycl.item<n>` — work-item handle for `parallel_for(range)`.
    ItemType, "item");
dim_only_type!(
    /// `!sycl.nd_item<n>` — work-item handle for `parallel_for(nd_range)`.
    NdItemType, "nd_item");
dim_only_type!(
    /// `!sycl.nd_range<n>` — global range subdivided into work-groups.
    NdRangeType, "nd_range");
dim_only_type!(
    /// `!sycl.group<n>` — the work-group of a work-item.
    GroupType, "group");

/// `!sycl.accessor<elem, n, mode, target>` — the paper's central device-side
/// memory abstraction (§II-A, §III).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AccessorType {
    pub elem: Type,
    pub dim: u32,
    pub mode: AccessMode,
    pub target: Target,
}

impl AccessorType {
    fn print_impl(&self) -> String {
        format!(
            "!sycl.accessor<{}, {}, {}, {}>",
            self.elem, self.dim, self.mode, self.target
        )
    }
}

impl_dialect_type!(AccessorType, "accessor");

/// `!sycl.buffer<elem, n>` — host-side buffer handle (used as the `type`
/// attribute of `sycl.host.constructor`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BufferType {
    pub elem: Type,
    pub dim: u32,
}

impl BufferType {
    fn print_impl(&self) -> String {
        format!("!sycl.buffer<{}, {}>", self.elem, self.dim)
    }
}

impl_dialect_type!(BufferType, "buffer");

// ----------------------------------------------------------------------
// Constructors
// ----------------------------------------------------------------------

pub fn id_type(ctx: &Context, dim: u32) -> Type {
    ctx.dialect_type(IdType { dim })
}

pub fn range_type(ctx: &Context, dim: u32) -> Type {
    ctx.dialect_type(RangeType { dim })
}

pub fn item_type(ctx: &Context, dim: u32) -> Type {
    ctx.dialect_type(ItemType { dim })
}

pub fn nd_item_type(ctx: &Context, dim: u32) -> Type {
    ctx.dialect_type(NdItemType { dim })
}

pub fn nd_range_type(ctx: &Context, dim: u32) -> Type {
    ctx.dialect_type(NdRangeType { dim })
}

pub fn group_type(ctx: &Context, dim: u32) -> Type {
    ctx.dialect_type(GroupType { dim })
}

pub fn accessor_type(
    ctx: &Context,
    elem: Type,
    dim: u32,
    mode: AccessMode,
    target: Target,
) -> Type {
    ctx.dialect_type(AccessorType {
        elem,
        dim,
        mode,
        target,
    })
}

pub fn buffer_type(ctx: &Context, elem: Type, dim: u32) -> Type {
    ctx.dialect_type(BufferType { elem, dim })
}

// ----------------------------------------------------------------------
// Inspection
// ----------------------------------------------------------------------

/// Accessor description, if `ty` is an accessor type.
pub fn accessor_info(ty: &Type) -> Option<&AccessorType> {
    ty.dialect_type::<AccessorType>()
}

/// Dimensionality of any dim-parameterised SYCL type (`id`, `range`, `item`,
/// `nd_item`, `nd_range`, `group`, `accessor`, `buffer`).
pub fn sycl_dim(ty: &Type) -> Option<u32> {
    fn dim<T: DialectTypeImpl>(ty: &Type, of: fn(&T) -> u32) -> Option<u32> {
        ty.dialect_type::<T>().map(of)
    }
    dim(ty, |t: &IdType| t.dim)
        .or_else(|| dim(ty, |t: &RangeType| t.dim))
        .or_else(|| dim(ty, |t: &ItemType| t.dim))
        .or_else(|| dim(ty, |t: &NdItemType| t.dim))
        .or_else(|| dim(ty, |t: &NdRangeType| t.dim))
        .or_else(|| dim(ty, |t: &GroupType| t.dim))
        .or_else(|| dim(ty, |t: &AccessorType| t.dim))
        .or_else(|| dim(ty, |t: &BufferType| t.dim))
}

/// `true` if the type is `!sycl.item<n>` or `!sycl.nd_item<n>` — the types a
/// kernel's trailing index parameter may have (§II-A).
pub fn is_item_like(ty: &Type) -> bool {
    ty.dialect_type::<ItemType>().is_some() || ty.dialect_type::<NdItemType>().is_some()
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

/// Register the `!sycl.*` type parser with the context.
pub fn register_type_parser(ctx: &Context) {
    ctx.register_type_parser("sycl", parse_sycl_type);
}

fn parse_sycl_type(ctx: &Context, name: &str, body: &str) -> Option<Type> {
    let parts: Vec<&str> = split_top_level(body);
    match name {
        "id" | "range" | "item" | "nd_item" | "nd_range" | "group" => {
            let dim: u32 = body.trim().parse().ok()?;
            Some(match name {
                "id" => id_type(ctx, dim),
                "range" => range_type(ctx, dim),
                "item" => item_type(ctx, dim),
                "nd_item" => nd_item_type(ctx, dim),
                "nd_range" => nd_range_type(ctx, dim),
                _ => group_type(ctx, dim),
            })
        }
        "accessor" => {
            if parts.len() != 4 {
                return None;
            }
            let elem = parse_type_str(ctx, parts[0].trim()).ok()?;
            let dim: u32 = parts[1].trim().parse().ok()?;
            let mode = AccessMode::parse(parts[2].trim())?;
            let target = Target::parse(parts[3].trim())?;
            Some(accessor_type(ctx, elem, dim, mode, target))
        }
        "buffer" => {
            if parts.len() != 2 {
                return None;
            }
            let elem = parse_type_str(ctx, parts[0].trim()).ok()?;
            let dim: u32 = parts[1].trim().parse().ok()?;
            Some(buffer_type(ctx, elem, dim))
        }
        _ => None,
    }
}

/// Split `body` on commas that are not nested inside `<...>`.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() || !body.is_empty() {
        parts.push(&body[start..]);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        crate::register(&c);
        c
    }

    #[test]
    fn interning_and_display() {
        let c = ctx();
        let a = nd_item_type(&c, 2);
        let b = nd_item_type(&c, 2);
        assert_eq!(a, b);
        assert_ne!(a, nd_item_type(&c, 3));
        assert_eq!(a.to_string(), "!sycl.nd_item<2>");
        let acc = accessor_type(&c, c.f32_type(), 3, AccessMode::ReadWrite, Target::Global);
        assert_eq!(
            acc.to_string(),
            "!sycl.accessor<f32, 3, read_write, global>"
        );
        assert_eq!(sycl_dim(&acc), Some(3));
        assert_eq!(accessor_info(&acc).unwrap().mode, AccessMode::ReadWrite);
    }

    #[test]
    fn textual_roundtrip() {
        let c = ctx();
        for text in [
            "!sycl.id<1>",
            "!sycl.range<3>",
            "!sycl.item<2>",
            "!sycl.nd_item<2>",
            "!sycl.nd_range<2>",
            "!sycl.group<2>",
            "!sycl.accessor<f64, 2, read, global>",
            "!sycl.accessor<i32, 1, write, local>",
            "!sycl.buffer<f32, 2>",
        ] {
            let ty = parse_type_str(&c, text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(ty.to_string(), text);
        }
    }

    #[test]
    fn modes_and_targets() {
        assert!(AccessMode::Read.can_read());
        assert!(!AccessMode::Read.can_write());
        assert!(AccessMode::Write.can_write());
        assert!(!AccessMode::Write.can_read());
        assert!(AccessMode::ReadWrite.can_read() && AccessMode::ReadWrite.can_write());
        assert_eq!(Target::parse("local"), Some(Target::Local));
        assert_eq!(AccessMode::parse("nope"), None);
    }

    #[test]
    fn distinct_sycl_types_do_not_collide() {
        let c = ctx();
        // Same dim, different class: must be distinct types.
        assert_ne!(id_type(&c, 2), range_type(&c, 2));
        assert_ne!(item_type(&c, 2), nd_item_type(&c, 2));
        let acc_r = accessor_type(&c, c.f32_type(), 1, AccessMode::Read, Target::Global);
        let acc_w = accessor_type(&c, c.f32_type(), 1, AccessMode::Write, Target::Global);
        assert_ne!(acc_r, acc_w);
    }
}
