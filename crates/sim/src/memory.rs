//! Device memory: typed buffers addressed by [`MemId`], and [`Buf`], the
//! one place a kernel or host-task access is bounds-checked, read or
//! written.

use crate::interp::{ArgFault, SimError};
use crate::plan::{Class, Ty};
use crate::value::{AccessorVal, MemRefVal, RtValue};
use std::ops::Deref;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU32, AtomicU64};

/// Handle to one allocation in a [`MemoryPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MemId(pub u32);

/// Storage class of a device buffer's elements — the one place element
/// size and the `"f32"`… names come from, and the single authoritative
/// mapping from MLIR element types ([`Dtype::of`]), so both engines always
/// allocate the same [`DataVec`] variant for a given element type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dtype {
    /// 32-bit floats.
    F32,
    /// 64-bit floats.
    F64,
    /// 32-bit integers (and narrower).
    I32,
    /// 64-bit integers (plus `index` and wider).
    I64,
}

impl Dtype {
    /// The storage class of the MLIR type `elem` (f32/f64/i32/i64/index/i1).
    pub fn of(elem: &sycl_mlir_ir::Type) -> Dtype {
        match elem.kind() {
            sycl_mlir_ir::TypeKind::F32 => Dtype::F32,
            sycl_mlir_ir::TypeKind::F64 => Dtype::F64,
            sycl_mlir_ir::TypeKind::Int(w) if *w <= 32 => Dtype::I32,
            _ => Dtype::I64,
        }
    }

    /// Element size in bytes (drives transaction coalescing).
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Dtype::F32 | Dtype::I32 => 4,
            Dtype::F64 | Dtype::I64 => 8,
        }
    }

    /// `"f32"`, `"f64"`, `"i32"` or `"i64"`.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
            Dtype::I32 => "i32",
            Dtype::I64 => "i64",
        }
    }
}

/// A faulting device-memory access, reported as a value by every access
/// path of both engines. `buffer` is `None` for a kernel-private (alloca)
/// buffer, which has no pool-wide id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// `index` lies outside the buffer's `len` elements.
    OutOfBounds {
        /// The buffer accessed.
        buffer: Option<MemId>,
        /// The linearized element index of the access.
        index: i64,
        /// The buffer's element count.
        len: usize,
    },
    /// A store of a value no coercion maps onto the buffer's elements.
    TypeMismatch {
        /// The buffer stored to.
        buffer: Option<MemId>,
        /// The buffer's storage class.
        dtype: Dtype,
        /// [`RtValue::kind`] of the value stored.
        value: &'static str,
    },
    /// An access (or a launch argument) naming a buffer the pool does not
    /// hold.
    UnknownBuffer {
        /// The id that resolves to nothing.
        id: MemId,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let named = |buffer: &Option<MemId>| match buffer {
            Some(id) => format!("buffer {}", id.0),
            None => "a kernel-private buffer".to_string(),
        };
        match self {
            MemFault::OutOfBounds { buffer, index, len } => write!(
                f,
                "device memory access out of bounds: index {index} of {} (len {len})",
                named(buffer)
            ),
            MemFault::TypeMismatch {
                buffer,
                dtype,
                value,
            } => write!(
                f,
                "type-mismatched store of {value} into {} ({})",
                named(buffer),
                dtype.name()
            ),
            MemFault::UnknownBuffer { id } => write!(f, "unknown device buffer {}", id.0),
        }
    }
}

impl From<MemFault> for SimError {
    // Faults are rare: keep them out of the executors' loops.
    #[cold]
    fn from(fault: MemFault) -> SimError {
        SimError::Fault { fault, at: None }
    }
}

/// The bounds check of every device-memory access: `index` as an element
/// position of a buffer of `len` elements.
#[inline]
pub(crate) fn check_index(
    buffer: Option<MemId>,
    index: i64,
    len: usize,
) -> Result<usize, MemFault> {
    if index < 0 || index as usize >= len {
        return Err(MemFault::OutOfBounds { buffer, index, len });
    }
    Ok(index as usize)
}

/// Typed elements of one allocation on the host side: what a device
/// buffer is copied in from ([`MemoryPool::alloc`]) and read back as
/// ([`MemoryPool::read`]).
#[derive(Clone, Debug, PartialEq)]
pub enum DataVec {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit integers (and narrower).
    I32(Vec<i32>),
    /// 64-bit integers (plus `index` and wider).
    I64(Vec<i64>),
}

impl DataVec {
    /// The elements of dense constant `attr` stored as `elem`s — the
    /// storage class [`Dtype::of`] gives `elem`, so both engines
    /// materialize the variant they would allocate for it. `None` when
    /// the attribute is not dense or its kind (float or integer) is not
    /// the element type's.
    pub fn of_dense(attr: &sycl_mlir_ir::Attribute, elem: &sycl_mlir_ir::Type) -> Option<DataVec> {
        use sycl_mlir_ir::Attribute::{DenseF64, DenseI64};
        Some(match (attr, Dtype::of(elem)) {
            (DenseF64(v), Dtype::F32) => DataVec::F32(v.iter().map(|&x| x as f32).collect()),
            (DenseF64(v), Dtype::F64) => DataVec::F64(v.clone()),
            (DenseI64(v), Dtype::I32) => DataVec::I32(v.iter().map(|&x| x as i32).collect()),
            (DenseI64(v), Dtype::I64) => DataVec::I64(v.clone()),
            _ => return None,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DataVec::F32(v) => v.len(),
            DataVec::F64(v) => v.len(),
            DataVec::I32(v) => v.len(),
            DataVec::I64(v) => v.len(),
        }
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage class of the elements.
    #[inline]
    pub fn dtype(&self) -> Dtype {
        match self {
            DataVec::F32(_) => Dtype::F32,
            DataVec::F64(_) => Dtype::F64,
            DataVec::I32(_) => Dtype::I32,
            DataVec::I64(_) => Dtype::I64,
        }
    }

    /// Element size in bytes (drives transaction coalescing).
    #[inline]
    pub fn elem_bytes(&self) -> usize {
        self.dtype().bytes()
    }
}

/// The device storage of one allocation: the bits of each element in a
/// relaxed atomic of its width, so that every access — the tree walk's,
/// a plan worker's, a host task's — goes through a shared reference. A
/// simulated kernel that races with itself across work-groups reads
/// torn-by-element but well-defined values, like on the GPU. The atomics
/// are this module's alone: other code holds a `Storage` and reaches its
/// elements through a [`Buf`].
#[derive(Debug)]
pub(crate) struct Storage(Words<Box<[AtomicU32]>, Box<[AtomicU64]>>);

/// The elements of a [`Storage`], borrowed.
type Elems<'a> = Words<&'a [AtomicU32], &'a [AtomicU64]>;

/// A buffer's elements by storage class: 32-bit words `W` for f32 and
/// i32, 64-bit words `D` for f64 and i64.
#[derive(Clone, Copy, Debug)]
enum Words<W, D> {
    F32(W),
    F64(D),
    I32(W),
    I64(D),
}

impl<W: Deref<Target = [AtomicU32]>, D: Deref<Target = [AtomicU64]>> Words<W, D> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Words::F32(s) | Words::I32(s) => s.len(),
            Words::F64(s) | Words::I64(s) => s.len(),
        }
    }

    #[inline]
    fn dtype(&self) -> Dtype {
        match self {
            Words::F32(_) => Dtype::F32,
            Words::F64(_) => Dtype::F64,
            Words::I32(_) => Dtype::I32,
            Words::I64(_) => Dtype::I64,
        }
    }
}

impl From<DataVec> for Storage {
    /// The elements of `data`, converted in place (each word keeps its
    /// width, so the allocation is reused).
    fn from(data: DataVec) -> Storage {
        Storage(match data {
            DataVec::F32(v) => Words::F32(v.into_iter().map(|x| x.to_bits().into()).collect()),
            DataVec::F64(v) => Words::F64(v.into_iter().map(|x| x.to_bits().into()).collect()),
            DataVec::I32(v) => Words::I32(v.into_iter().map(|x| (x as u32).into()).collect()),
            DataVec::I64(v) => Words::I64(v.into_iter().map(|x| (x as u64).into()).collect()),
        })
    }
}

impl Storage {
    /// `len` zero elements of class `dtype`.
    pub(crate) fn zeroed(dtype: Dtype, len: usize) -> Storage {
        let w32 = || (0..len).map(|_| AtomicU32::new(0)).collect();
        let w64 = || (0..len).map(|_| AtomicU64::new(0)).collect();
        Storage(match dtype {
            Dtype::F32 => Words::F32(w32()),
            Dtype::F64 => Words::F64(w64()),
            Dtype::I32 => Words::I32(w32()),
            Dtype::I64 => Words::I64(w64()),
        })
    }

    /// Set every element to zero, in place.
    pub(crate) fn zero(&mut self) {
        match &mut self.0 {
            Words::F32(v) | Words::I32(v) => v.iter_mut().for_each(|a| *a.get_mut() = 0),
            Words::F64(v) | Words::I64(v) => v.iter_mut().for_each(|a| *a.get_mut() = 0),
        }
    }

    #[inline]
    fn elems(&self) -> Elems<'_> {
        match &self.0 {
            Words::F32(v) => Words::F32(v),
            Words::F64(v) => Words::F64(v),
            Words::I32(v) => Words::I32(v),
            Words::I64(v) => Words::I64(v),
        }
    }

    /// The storage class and number of the elements.
    pub(crate) fn shape(&self) -> (Dtype, usize) {
        (self.0.dtype(), self.0.len())
    }
}

/// All device allocations of one simulation.
#[derive(Default, Debug)]
pub struct MemoryPool {
    buffers: Vec<Storage>,
}

impl MemoryPool {
    /// An empty pool.
    pub fn new() -> MemoryPool {
        MemoryPool::default()
    }

    /// Allocate device storage holding the elements of `data`.
    pub fn alloc(&mut self, data: DataVec) -> MemId {
        self.push(Storage::from(data))
    }

    /// Allocate zero-filled storage for `len` elements of class `dtype`
    /// ([`Dtype::of`] names the class of an MLIR element type).
    pub fn alloc_zeroed(&mut self, dtype: Dtype, len: usize) -> MemId {
        self.push(Storage::zeroed(dtype, len))
    }

    fn push(&mut self, storage: Storage) -> MemId {
        let id = MemId(self.buffers.len() as u32);
        self.buffers.push(storage);
        id
    }

    /// A copy of allocation `id`'s elements.
    pub fn read(&self, id: MemId) -> DataVec {
        match self.buffers[id.0 as usize].elems() {
            Words::F32(s) => {
                DataVec::F32(s.iter().map(|a| f32::from_bits(a.load(Relaxed))).collect())
            }
            Words::F64(s) => {
                DataVec::F64(s.iter().map(|a| f64::from_bits(a.load(Relaxed))).collect())
            }
            Words::I32(s) => DataVec::I32(s.iter().map(|a| a.load(Relaxed) as i32).collect()),
            Words::I64(s) => DataVec::I64(s.iter().map(|a| a.load(Relaxed) as i64).collect()),
        }
    }

    /// Allocation `id` as a launch-shared [`Buf`].
    pub(crate) fn buf(&self, id: MemId) -> Buf<'_> {
        Buf::of(&self.buffers[id.0 as usize], Some(id), true)
    }

    /// Load the element at `index` of allocation `id`.
    pub fn load(&self, id: MemId, index: i64) -> Result<RtValue, MemFault> {
        let buf = self.buffers.get(id.0 as usize);
        let elems = buf.ok_or(MemFault::UnknownBuffer { id })?.elems();
        let i = check_index(Some(id), index, elems.len())?;
        Ok(match elems {
            Words::F32(s) => RtValue::F32(f32::from_bits(s[i].load(Relaxed))),
            Words::F64(s) => RtValue::F64(f64::from_bits(s[i].load(Relaxed))),
            Words::I32(s) => RtValue::Int(s[i].load(Relaxed) as i32 as i64),
            Words::I64(s) => RtValue::Int(s[i].load(Relaxed) as i64),
        })
    }

    /// Store `value` at `index` of allocation `id`, coercing between float
    /// widths and truncating integers; an int/float mismatch is a
    /// [`MemFault::TypeMismatch`] (bounds are checked first).
    pub fn store(&mut self, id: MemId, index: i64, value: RtValue) -> Result<(), MemFault> {
        let buf = self.buffers.get_mut(id.0 as usize);
        let storage = buf.ok_or(MemFault::UnknownBuffer { id })?;
        let (dtype, len) = storage.shape();
        let i = check_index(Some(id), index, len)?;
        match (&mut storage.0, value) {
            (Words::F32(v), RtValue::F32(x)) => *v[i].get_mut() = x.to_bits(),
            (Words::F32(v), RtValue::F64(x)) => *v[i].get_mut() = (x as f32).to_bits(),
            (Words::F64(v), RtValue::F64(x)) => *v[i].get_mut() = x.to_bits(),
            (Words::F64(v), RtValue::F32(x)) => *v[i].get_mut() = (x as f64).to_bits(),
            (Words::I32(v), RtValue::Int(x)) => *v[i].get_mut() = x as i32 as u32,
            (Words::I64(v), RtValue::Int(x)) => *v[i].get_mut() = x as u64,
            (_, v) => {
                return Err(MemFault::TypeMismatch {
                    buffer: Some(id),
                    dtype,
                    value: v.kind(),
                })
            }
        }
        Ok(())
    }

    /// Check the launch arguments `args` against the classes of the
    /// parameters they fill, `params` ([`crate::plan::signature`]): one
    /// argument per parameter, each of its parameter's class, and an
    /// accessor's or memref's buffer one of this pool whose elements are
    /// of the parameter's element class. The one place outside values
    /// enter a launch, so inside it every register holds the class the
    /// verifier proved and every access resolves its buffer.
    pub(crate) fn check_args(
        &self,
        params: impl ExactSizeIterator<Item = Option<Ty>>,
        args: &[RtValue],
    ) -> Result<(), SimError> {
        let (expected, given) = (params.len(), args.len());
        if expected != given {
            return Err(ArgFault::Count { expected, given }.into());
        }
        for (index, (param, arg)) in params.zip(args).enumerate() {
            let elem = match *arg {
                RtValue::Accessor(AccessorVal { mem: id, .. })
                | RtValue::MemRef(MemRefVal { mem: id, .. }) => {
                    let buf = self.buffers.get(id.0 as usize);
                    Some(Class::of_dtype(
                        buf.ok_or(MemFault::UnknownBuffer { id })?.shape().0,
                    ))
                }
                _ => None,
            };
            let given = arg.class().map(|class| Ty { class, elem });
            if let Some(expected) = param.filter(|_| given != param) {
                return Err(ArgFault::Class {
                    index,
                    expected,
                    given,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Number of allocations made so far.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether no allocation has been made.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }
}

/// What one element of device memory reads as: 16 bytes, so a load reaches
/// a plan register without passing through the 72-byte [`RtValue`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Elem {
    /// An element of an `f32` buffer.
    F32(f32),
    /// An element of an `f64` buffer.
    F64(f64),
    /// An element of an `i32` (sign-extended) or `i64` buffer.
    Int(i64),
}

impl From<Elem> for RtValue {
    fn from(e: Elem) -> RtValue {
        match e {
            Elem::F32(x) => RtValue::F32(x),
            Elem::F64(x) => RtValue::F64(x),
            Elem::Int(x) => RtValue::Int(x),
        }
    }
}

/// One device buffer as an access sees it: its elements, storage class
/// and the name its faults carry. The pools of [`crate::pool`] only
/// *resolve* a [`MemId`] to one of these, once per access; the bounds
/// check, the typed read and the typed write of a kernel or host-task
/// access are here and nowhere else. (The tree walk's
/// [`MemoryPool::load`] / `store` share no code with it: they are its
/// independent reference.)
#[derive(Clone, Copy, Debug)]
pub struct Buf<'a> {
    elems: Elems<'a>,
    /// A launch-shared buffer — the only kind a site proof speaks about.
    shared: bool,
    name: Option<MemId>,
}

impl<'a> Buf<'a> {
    /// The access view of `storage`, named `name` in faults (`None` = a
    /// kernel-private buffer); `shared` unless it is a worker's arena.
    pub(crate) fn of(storage: &'a Storage, name: Option<MemId>, shared: bool) -> Buf<'a> {
        Buf {
            elems: storage.elems(),
            shared,
            name,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the buffer has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage class of the elements.
    #[inline]
    pub fn dtype(&self) -> Dtype {
        self.elems.dtype()
    }

    /// Load the element at `index`.
    #[inline]
    pub fn load(self, index: i64) -> Result<Elem, MemFault> {
        self.load_at(false, index)
    }

    /// Store `value` at `index`, coerced like [`MemoryPool::store`]
    /// (bounds before type).
    #[inline]
    pub fn store(self, index: i64, value: RtValue) -> Result<(), MemFault> {
        self.store_at(false, index, value)
    }

    /// [`Self::load`] at an access site whose bounds check may be elided:
    /// `proven` is set only where [`crate::verify::PlanFacts::instantiate`]
    /// found the site's symbolic address bounds in range for this launch's
    /// geometry, arguments and buffer lengths. It changes what an
    /// out-of-range index does on a launch-shared buffer — a panic in place
    /// of the typed [`MemFault`], so a wrong proof cannot go unnoticed —
    /// and nothing else. Arena buffers are never accessor-backed, so no
    /// proof covers them and they always fault.
    #[inline]
    pub(crate) fn load_at(self, proven: bool, index: i64) -> Result<Elem, MemFault> {
        let i = self.position(proven, index)?;
        Ok(match self.elems {
            Words::F32(s) => Elem::F32(f32::from_bits(s[i].load(Relaxed))),
            Words::F64(s) => Elem::F64(f64::from_bits(s[i].load(Relaxed))),
            Words::I32(s) => Elem::Int(s[i].load(Relaxed) as i32 as i64),
            Words::I64(s) => Elem::Int(s[i].load(Relaxed) as i64),
        })
    }

    /// [`Self::store`] at an access site whose bounds check may be elided,
    /// as for [`Self::load_at`] (the type check never is: the verifier
    /// does not prove element types).
    #[inline]
    pub(crate) fn store_at(self, proven: bool, index: i64, value: RtValue) -> Result<(), MemFault> {
        let i = self.position(proven, index)?;
        match (self.elems, value) {
            (Words::F32(s), RtValue::F32(x)) => s[i].store(x.to_bits(), Relaxed),
            (Words::F32(s), RtValue::F64(x)) => s[i].store((x as f32).to_bits(), Relaxed),
            (Words::F64(s), RtValue::F64(x)) => s[i].store(x.to_bits(), Relaxed),
            (Words::F64(s), RtValue::F32(x)) => s[i].store((x as f64).to_bits(), Relaxed),
            (Words::I32(s), RtValue::Int(x)) => s[i].store(x as i32 as u32, Relaxed),
            (Words::I64(s), RtValue::Int(x)) => s[i].store(x as u64, Relaxed),
            (elems, v) => {
                return Err(MemFault::TypeMismatch {
                    buffer: self.name,
                    dtype: elems.dtype(),
                    value: v.kind(),
                })
            }
        }
        Ok(())
    }

    /// `index` as an element position: the bounds check of every access,
    /// left to the slice index only for a launch-shared buffer at a
    /// `proven` site.
    #[inline]
    fn position(&self, proven: bool, index: i64) -> Result<usize, MemFault> {
        if proven && self.shared {
            return Ok(index as usize);
        }
        check_index(self.name, index, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PlanPool, SharedPool};

    #[test]
    fn roundtrip_all_dtypes() {
        let mut pool = MemoryPool::new();
        let f = pool.alloc(DataVec::F32(vec![0.0; 4]));
        let d = pool.alloc(DataVec::F64(vec![0.0; 4]));
        let i = pool.alloc(DataVec::I32(vec![0; 4]));
        let l = pool.alloc(DataVec::I64(vec![0; 4]));
        pool.store(f, 1, RtValue::F32(1.5)).unwrap();
        pool.store(d, 2, RtValue::F64(2.5)).unwrap();
        pool.store(i, 3, RtValue::Int(-7)).unwrap();
        pool.store(l, 0, RtValue::Int(1 << 40)).unwrap();
        assert_eq!(pool.load(f, 1), Ok(RtValue::F32(1.5)));
        assert_eq!(pool.load(d, 2), Ok(RtValue::F64(2.5)));
        assert_eq!(pool.load(i, 3), Ok(RtValue::Int(-7)));
        assert_eq!(pool.load(l, 0), Ok(RtValue::Int(1 << 40)));
        assert_eq!(pool.read(f).elem_bytes(), 4);
        assert_eq!(pool.read(l).elem_bytes(), 8);
    }

    #[test]
    fn mismatched_store_is_a_fault() {
        let mut pool = MemoryPool::new();
        let f = pool.alloc(DataVec::F32(vec![0.0; 1]));
        let (buffer, dtype, value) = (Some(f), Dtype::F32, "int");
        let mismatch = MemFault::TypeMismatch {
            buffer,
            dtype,
            value,
        };
        assert_eq!(pool.store(f, 0, RtValue::Int(1)), Err(mismatch));
        assert_eq!(pool.load(f, 0), Ok(RtValue::F32(0.0)), "nothing stored");
        let id = MemId(7);
        assert_eq!(pool.load(id, 0), Err(MemFault::UnknownBuffer { id }));
    }

    /// The tree walk's `MemoryPool::load` / `store` and the three kinds of
    /// `Buf` — a launch-shared
    /// buffer, a worker's dense constant and its scratch alloca — report
    /// every access alike: equal values in range, equal faults — and
    /// fault text — at `len`, `-1` and `i64::MAX`, for every storage
    /// class. Only the name differs: an alloca has none.
    #[test]
    fn vec_and_pointer_storage_fault_alike() {
        let ctx = sycl_mlir_ir::Context::new();
        // Three equal elements, what they read as, their MLIR type, and a
        // value a store coerces and one it refuses.
        let (float, int) = (RtValue::F32(2.5), RtValue::Int(9));
        let (f, d, i) = (RtValue::F32(1.5), RtValue::F64(1.5), RtValue::Int(7));
        let (f32t, f64t) = (ctx.f32_type(), ctx.f64_type());
        let (i32t, i64t) = (ctx.i32_type(), ctx.i64_type());
        let protos = [
            (DataVec::F32(vec![1.5; 3]), f, f32t, float, int),
            (DataVec::F64(vec![1.5; 3]), d, f64t, float, int),
            (DataVec::I32(vec![7; 3]), i, i32t, int, float),
            (DataVec::I64(vec![7; 3]), i, i64t, int, RtValue::F64(1.0)),
        ];
        let id = MemId(1);
        for (proto, element, elem, good, bad) in protos {
            let fresh = || {
                let mut pool = MemoryPool::new();
                pool.alloc(DataVec::I32(Vec::new()));
                assert_eq!(pool.alloc(proto.clone()), id);
                pool
            };
            for index in [1, 3, -1, i64::MAX] {
                let (mut reference, viewed) = (fresh(), fresh());
                let loaded = reference.load(id, index);
                let stored = reference.store(id, index, good);
                let refused = reference.store(id, index, bad);
                let after = reference.load(id, index);

                // The same four accesses through each kind of `Buf`, the
                // arenas filled like `proto` first.
                let shared = SharedPool::new(&viewed);
                let mut worker = PlanPool::new(&shared);
                worker.alloc(DataVec::I32(Vec::new())).unwrap();
                let constant = worker.alloc(proto.clone()).unwrap();
                let alloca = worker.alloc_zeroed(&elem, proto.len()).unwrap();
                for i in 0..proto.len() {
                    let buf = worker.resolve(alloca).unwrap();
                    buf.store(i as i64, element).unwrap();
                }
                for (mem, name) in [(id, Some(id)), (constant, Some(id)), (alloca, None)] {
                    // What the kind's faults call the buffer, and their text.
                    let renamed = |fault: MemFault| match fault {
                        MemFault::OutOfBounds { index, len, .. } => MemFault::OutOfBounds {
                            buffer: name,
                            index,
                            len,
                        },
                        MemFault::TypeMismatch { dtype, value, .. } => MemFault::TypeMismatch {
                            buffer: name,
                            dtype,
                            value,
                        },
                        unknown => unknown,
                    };
                    let what = format!("{mem:?} {proto:?}[{index}]");
                    let buf = worker.resolve(mem).unwrap();
                    let load = || buf.load(index).map(RtValue::from);
                    assert_eq!(load(), loaded.map_err(renamed), "{what}");
                    assert_eq!(buf.store(index, good), stored.map_err(renamed), "{what}");
                    assert_eq!(buf.store(index, bad), refused.map_err(renamed), "{what}");
                    assert_eq!(load(), after.map_err(renamed), "{what}");
                    let text = refused.unwrap_err().to_string();
                    let private = text.replace("buffer 1", "a kernel-private buffer");
                    let text = if name.is_some() { text } else { private };
                    assert_eq!(renamed(refused.unwrap_err()).to_string(), text, "{what}");
                }

                let (fault, text) = if index == 1 {
                    assert_eq!((loaded, stored), (Ok(element), Ok(())));
                    assert_ne!(after, loaded, "the store landed");
                    let (dtype, value) = (proto.dtype(), bad.kind());
                    let buffer = Some(id);
                    (
                        MemFault::TypeMismatch {
                            buffer,
                            dtype,
                            value,
                        },
                        format!(
                            "type-mismatched store of {value} into buffer 1 ({})",
                            dtype.name()
                        ),
                    )
                } else {
                    let buffer = Some(id);
                    let oob = MemFault::OutOfBounds {
                        buffer,
                        index,
                        len: 3,
                    };
                    assert_eq!((loaded, stored), (Err(oob), Err(oob)));
                    (
                        oob, // bounds are checked before the type
                        format!(
                            "device memory access out of bounds: index {index} of buffer 1 (len 3)"
                        ),
                    )
                };
                assert_eq!(refused, Err(fault));
                assert_eq!(fault.to_string(), text);
            }
        }
        // Kernel-private storage has no id to name.
        let (buffer, index, len) = (None, 2, 2);
        assert_eq!(
            MemFault::OutOfBounds { buffer, index, len }.to_string(),
            "device memory access out of bounds: index 2 of a kernel-private buffer (len 2)"
        );
    }
}
