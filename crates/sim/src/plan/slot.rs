//! Registers: the 16-byte tagged [`Slot`] and the bank helper behind its
//! out-of-line payloads.

#[cfg(doc)]
use super::Instr;
use crate::memory::Elem;
#[cfg(doc)]
use crate::value::RtValue;

/// Dense register slot of a plan's register file.
pub type Reg = u32;

/// One register of the plan engine: a 16-byte tagged slot. Scalars live
/// inline; an aggregate's payload lives where the work-item keeps it —
/// vectors, views and nd-ranges in banks at the register's absolute
/// index, an accessor in the launch's arguments; an item has none — so a
/// slot means something only in the register file it
/// was written to, and code outside this crate can build the scalar
/// variants only (what a [`KernelPlan::consts`](super::KernelPlan::consts)
/// entry may hold). The tag is no type check: the verifier proves the
/// class of every register an instruction reads, and the launch checks
/// its arguments against the parameters' classes, so a register of
/// another class is an engine bug (`Slot::mistyped`). It stays to say
/// what the class leaves open — a float's width, which bank holds a
/// payload, which argument an accessor is — and so that a move copies a
/// register without knowing its class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Slot {
    /// Integers of any width, `index`, and `i1`.
    Int(i64),
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
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
    /// The integer of a register an instruction reads as one.
    #[inline(always)]
    pub(super) fn int(self) -> i64 {
        match self {
            Slot::Int(v) => v,
            _ => Slot::mistyped(),
        }
    }

    /// The float, widened, of a register an instruction reads as one.
    #[inline(always)]
    pub(super) fn float(self) -> f64 {
        match self {
            Slot::F32(v) => v as f64,
            Slot::F64(v) => v,
            _ => Slot::mistyped(),
        }
    }

    /// A register read as a class it does not hold. The verifier proves
    /// the class of every register an instruction reads, and the launch
    /// checks the arguments against the parameters' classes, so this is
    /// an engine bug, not the kernel's: it panics, and the scheduler's
    /// backstop carries the panic to the launching thread. It takes no
    /// argument: passing the slot kept all of it live across each check,
    /// and `exec_dense` ran 28% slower (interleaved pairs, 2-core x86-64).
    #[cold]
    #[inline(never)]
    pub(super) fn mistyped() -> ! {
        panic!("engine bug: a verified plan read a register as another class")
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
