//! Runtime values flowing through the interpreter.

use crate::memory::MemId;
use crate::plan::Class;

/// Memory space of a memref view; drives the cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Space {
    /// Device global memory (accessor-backed).
    Global,
    /// Work-group local memory.
    Local,
    /// Per-work-item private memory.
    Private,
    /// Constant memory (host-propagated constant arrays, §VII-B).
    Constant,
}

/// A memref view: a base allocation plus an element offset and a static
/// shape (rank ≤ 3; `-1` extents only for rank-1 dynamic views).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MemRefVal {
    /// Backing allocation.
    pub mem: MemId,
    /// Element offset of the view's origin inside the allocation.
    pub offset: i64,
    /// Static extents, padded with 1s to rank 3.
    pub shape: [i64; 3],
    /// Number of meaningful dimensions.
    pub rank: u32,
    /// Memory space, for the cost model.
    pub space: Space,
}

impl MemRefVal {
    /// Row-major linearized element index for `indices`.
    #[inline]
    pub fn linearize(&self, indices: &[i64]) -> i64 {
        assert!(indices.len() <= 3, "a memref view has at most 3 extents");
        let mut addr = 0;
        // Constant subscripts, so that a caller's `[i64; 3]` needs no
        // memory: this runs once per simulated access.
        for d in 0..3 {
            if d < indices.len() {
                let extent = self.shape[d];
                if extent >= 0 {
                    addr = addr * extent + indices[d];
                } else {
                    // dynamic rank-1 view
                    addr += indices[d];
                }
            }
        }
        self.offset + addr
    }
}

/// An accessor at run time: a window into a global allocation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AccessorVal {
    /// Backing allocation.
    pub mem: MemId,
    /// Full range of the accessor (the buffer range for non-ranged
    /// accessors).
    pub range: [i64; 3],
    /// Access offset (ranged accessors).
    pub offset: [i64; 3],
    /// Number of meaningful dimensions.
    pub rank: u32,
    /// Loads served from the constant cache (host-propagated data).
    pub constant: bool,
}

impl AccessorVal {
    /// Element offset of an id within this accessor.
    #[inline]
    #[allow(clippy::needless_range_loop)]
    pub fn linearize(&self, id: &[i64]) -> i64 {
        let n = id.len().min(self.rank as usize);
        assert!(n <= 3, "an accessor has at most 3 dimensions");
        let mut addr = 0;
        // Constant subscripts, as in [`MemRefVal::linearize`].
        for d in 0..3 {
            if d < n {
                addr = addr * self.range[d] + (id[d] + self.offset[d]);
            }
        }
        addr
    }
}

/// A small fixed-size vector value (`!sycl.id<n>` / `!sycl.range<n>`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct VecVal {
    /// Components, padded with 0s to rank 3.
    pub data: [i64; 3],
    /// Number of meaningful components.
    pub rank: u32,
}

/// Any value the interpreter can hold. `Copy` keeps the environment cheap.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RtValue {
    /// Integers of any width, `index`, and `i1`.
    Int(i64),
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
    /// `!sycl.id<n>` or `!sycl.range<n>`.
    Vec(VecVal),
    /// `!sycl.nd_range<n>`: global + local ranges.
    NdRange(VecVal, VecVal),
    /// A memref view.
    MemRef(MemRefVal),
    /// A runtime accessor.
    Accessor(AccessorVal),
    /// `!sycl.item<n>` / `!sycl.nd_item<n>` / `!sycl.group<n>`: an opaque
    /// handle. A kernel sees one item, its own, and its queries are
    /// answered from the launch geometry ([`crate::NdRangeSpec::item_query`]).
    Item,
    /// The value of ops with no results.
    Unit,
}

impl RtValue {
    /// The variant's name, for diagnostics.
    pub fn kind(self) -> &'static str {
        match self {
            RtValue::Int(_) => "int",
            RtValue::F32(_) => "f32",
            RtValue::F64(_) => "f64",
            RtValue::Vec(_) => "vec",
            RtValue::NdRange(..) => "nd_range",
            RtValue::MemRef(_) => "memref",
            RtValue::Accessor(_) => "accessor",
            RtValue::Item => "item",
            RtValue::Unit => "unit",
        }
    }

    /// The value's class, if it has one (the unit value has none).
    pub(crate) fn class(self) -> Option<Class> {
        Some(match self {
            RtValue::Int(_) => Class::Int,
            RtValue::F32(_) | RtValue::F64(_) => Class::Float,
            RtValue::Vec(_) => Class::Vec,
            RtValue::NdRange(..) => Class::Nd,
            RtValue::MemRef(_) => Class::Mem,
            RtValue::Accessor(_) => Class::Acc,
            RtValue::Item => Class::Item,
            RtValue::Unit => return None,
        })
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            RtValue::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The float payload widened to `f64`, if this is a float.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            RtValue::F32(v) => Some(v as f64),
            RtValue::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The integer payload as a truthiness test, if this is an `Int`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            RtValue::Int(v) => Some(v != 0),
            _ => None,
        }
    }

    /// The memref payload, if this is a `MemRef`.
    pub fn as_memref(self) -> Option<MemRefVal> {
        match self {
            RtValue::MemRef(v) => Some(v),
            _ => None,
        }
    }

    /// The accessor payload, if this is an `Accessor`.
    pub fn as_accessor(self) -> Option<AccessorVal> {
        match self {
            RtValue::Accessor(v) => Some(v),
            _ => None,
        }
    }

    /// The vector payload, if this is a `Vec`.
    pub fn as_vec(self) -> Option<VecVal> {
        match self {
            RtValue::Vec(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_linearization() {
        let m = MemRefVal {
            mem: MemId(0),
            offset: 10,
            shape: [4, 8, 1],
            rank: 2,
            space: Space::Private,
        };
        assert_eq!(m.linearize(&[0, 0]), 10);
        assert_eq!(m.linearize(&[1, 2]), 10 + 8 + 2);
        let dynv = MemRefVal {
            mem: MemId(0),
            offset: 5,
            shape: [-1, 1, 1],
            rank: 1,
            space: Space::Global,
        };
        assert_eq!(dynv.linearize(&[7]), 12);
    }

    #[test]
    fn accessor_linearization_with_offset() {
        let a = AccessorVal {
            mem: MemId(1),
            range: [8, 8, 1],
            offset: [1, 2, 0],
            rank: 2,
            constant: false,
        };
        assert_eq!(a.linearize(&[0, 0]), 8 + 2);
        assert_eq!(a.linearize(&[3, 4]), (3 + 1) * 8 + 6);
    }
}
