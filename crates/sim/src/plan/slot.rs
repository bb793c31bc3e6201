//! Registers: the 16-byte tagged [`Slot`] and the bank helper behind its
//! out-of-line payloads.

#[cfg(doc)]
use super::Instr;
use crate::memory::Elem;
#[cfg(doc)]
use crate::value::RtValue;

/// Dense register slot within one function frame.
pub type Reg = u32;

/// One register of the plan engine: a 16-byte tagged slot. Scalars live
/// inline; an aggregate's payload lives where the work-item keeps it —
/// vectors, views and nd-ranges in banks at the register's absolute
/// index, an accessor in the launch's arguments; an item has none — so a
/// slot means something only in the register file it
/// was written to, and code outside this crate can build the scalar
/// variants only (what an [`Instr::Const`] may hold). The tag stays
/// although the verifier proves every register's class: rejected plans
/// still run, and every type error keeps its text and position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Slot {
    /// Integers of any width, `index`, and `i1`.
    Int(i64),
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
    /// Opaque host pointer.
    Ptr(u64),
    /// Not written yet, or the value of an op with no results.
    Unit,
    /// `!sycl.id<n>` / `!sycl.range<n>`; payload in the vector bank.
    #[non_exhaustive]
    Vec,
    /// A memref view; payload in the memref bank.
    #[non_exhaustive]
    MemRef,
    /// `!sycl.nd_range<n>`; payload in the nd-range bank.
    #[non_exhaustive]
    NdRange,
    /// The accessor at this index of the launch's arguments.
    #[non_exhaustive]
    Accessor(u32),
    /// The work-item's own item: its position is the lane's, computed
    /// from the launch geometry.
    #[non_exhaustive]
    Item,
}

/// Two machine words; the 72 bytes of an [`RtValue`] move by `memmove`.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);
/// An item is a handle without a payload, so the widest [`RtValue`] is an
/// accessor or an nd-range.
const _: () = assert!(std::mem::size_of::<crate::value::RtValue>() == 72);

impl Slot {
    #[inline(always)]
    pub(super) fn as_int(self) -> Option<i64> {
        match self {
            Slot::Int(v) => Some(v),
            _ => None,
        }
    }

    #[inline(always)]
    pub(super) fn as_f64(self) -> Option<f64> {
        match self {
            Slot::F32(v) => Some(v as f64),
            Slot::F64(v) => Some(v),
            _ => None,
        }
    }
}

/// A loaded element lands in a register as it is.
impl From<Elem> for Slot {
    #[inline(always)]
    fn from(e: Elem) -> Slot {
        match e {
            Elem::F32(x) => Slot::F32(x),
            Elem::F64(x) => Slot::F64(x),
            Elem::Int(x) => Slot::Int(x),
        }
    }
}

/// Store `v` at `bank[abs]`, growing the bank to reach it.
#[inline(always)]
pub(super) fn put<T: Copy>(bank: &mut Vec<T>, abs: usize, v: T) {
    if bank.len() <= abs {
        bank.resize(abs + 1, v);
    }
    bank[abs] = v;
}
