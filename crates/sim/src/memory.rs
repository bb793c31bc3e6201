//! Device memory: typed buffers addressed by [`MemId`], and [`Buf`], the
//! one place an element is bounds-checked, read or written by pointer.

use crate::interp::SimError;
use crate::value::RtValue;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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

    /// Zero-filled storage for `len` elements of this class.
    pub(crate) fn zeroed(self, len: usize) -> DataVec {
        match self {
            Dtype::F32 => DataVec::F32(vec![0.0; len]),
            Dtype::F64 => DataVec::F64(vec![0.0; len]),
            Dtype::I32 => DataVec::I32(vec![0; len]),
            Dtype::I64 => DataVec::I64(vec![0; len]),
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

/// Typed storage of one allocation.
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

    /// The element at position `i < len` as a runtime value.
    #[inline]
    pub fn get(&self, i: usize) -> RtValue {
        match self {
            DataVec::F32(v) => RtValue::F32(v[i]),
            DataVec::F64(v) => RtValue::F64(v[i]),
            DataVec::I32(v) => RtValue::Int(v[i] as i64),
            DataVec::I64(v) => RtValue::Int(v[i]),
        }
    }

    /// Write `value` at position `i < len`, coercing between float widths
    /// and truncating integers; an int/float mismatch is a
    /// [`MemFault::TypeMismatch`] naming `buffer` (`None` = kernel-private).
    #[inline]
    pub fn set(&mut self, buffer: Option<MemId>, i: usize, value: RtValue) -> Result<(), MemFault> {
        match (&mut *self, value) {
            (DataVec::F32(v), RtValue::F32(x)) => v[i] = x,
            (DataVec::F32(v), RtValue::F64(x)) => v[i] = x as f32,
            (DataVec::F64(v), RtValue::F64(x)) => v[i] = x,
            (DataVec::F64(v), RtValue::F32(x)) => v[i] = x as f64,
            (DataVec::I32(v), RtValue::Int(x)) => v[i] = x as i32,
            (DataVec::I64(v), RtValue::Int(x)) => v[i] = x,
            (slot, v) => {
                return Err(MemFault::TypeMismatch {
                    buffer,
                    dtype: slot.dtype(),
                    value: v.kind(),
                })
            }
        }
        Ok(())
    }
}

/// All device allocations of one simulation.
#[derive(Default, Debug)]
pub struct MemoryPool {
    buffers: Vec<DataVec>,
}

impl MemoryPool {
    /// An empty pool.
    pub fn new() -> MemoryPool {
        MemoryPool::default()
    }

    /// Allocate and take ownership of `data`.
    pub fn alloc(&mut self, data: DataVec) -> MemId {
        let id = MemId(self.buffers.len() as u32);
        self.buffers.push(data);
        id
    }

    /// Allocate zero-filled storage for `len` elements of the MLIR type
    /// `elem` (f32/f64/i32/i64/index/i1).
    pub fn alloc_zeroed(&mut self, elem: &sycl_mlir_ir::Type, len: usize) -> MemId {
        self.alloc(Dtype::of(elem).zeroed(len))
    }

    /// Mutable access to every buffer, in [`MemId`] order. Used by the
    /// parallel launch path to build its shared buffer views.
    pub(crate) fn buffers_mut(&mut self) -> &mut [DataVec] {
        &mut self.buffers
    }

    /// Borrow one allocation's storage.
    pub fn data(&self, id: MemId) -> &DataVec {
        &self.buffers[id.0 as usize]
    }

    /// Mutably borrow one allocation's storage.
    pub fn data_mut(&mut self, id: MemId) -> &mut DataVec {
        &mut self.buffers[id.0 as usize]
    }

    /// Load the element at `index` of allocation `id`.
    pub fn load(&self, id: MemId, index: i64) -> Result<RtValue, MemFault> {
        let buf = self.buffers.get(id.0 as usize);
        let buf = buf.ok_or(MemFault::UnknownBuffer { id })?;
        Ok(buf.get(check_index(Some(id), index, buf.len())?))
    }

    /// Store `value` at `index` of allocation `id`.
    pub fn store(&mut self, id: MemId, index: i64, value: RtValue) -> Result<(), MemFault> {
        let buf = self.buffers.get_mut(id.0 as usize);
        let buf = buf.ok_or(MemFault::UnknownBuffer { id })?;
        buf.set(Some(id), check_index(Some(id), index, buf.len())?, value)
    }

    /// Check that every accessor and memref among the launch arguments
    /// `args` names a buffer of this pool — the one place outside ids
    /// enter a launch, so accesses inside it resolve their buffer
    /// unconditionally.
    pub(crate) fn check_args(&self, args: &[RtValue]) -> Result<(), MemFault> {
        for arg in args {
            let id = match arg {
                RtValue::Accessor(a) => a.mem,
                RtValue::MemRef(m) => m.mem,
                _ => continue,
            };
            if id.0 as usize >= self.buffers.len() {
                return Err(MemFault::UnknownBuffer { id });
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

/// One device buffer as an access sees it: base pointer, length, storage
/// class and the name its faults carry. The pools of [`crate::pool`] only
/// *resolve* a [`MemId`] to one of these, once per access; the bounds
/// check, the typed read and the typed write by pointer are here and
/// nowhere else. (The `Vec`-backed [`MemoryPool::load`] / `store` share
/// no code with it: they are the tree walk's independent reference.)
///
/// `'a` is the borrow of the storage the pointer was taken from, so no
/// safe `DataVec` API is reachable while a `Buf` exists. Elements are
/// accessed as **relaxed atomics** (free on mainstream targets): a
/// simulated kernel that races with itself across work-groups reads
/// torn-by-element but well-defined values, like on the GPU, instead of
/// being undefined behaviour in the host process.
#[derive(Clone, Copy, Debug)]
pub struct Buf<'a> {
    /// First element; the pointee type is `dtype`'s.
    ptr: *mut u8,
    len: usize,
    dtype: Dtype,
    /// A launch-shared buffer — the only kind a site proof speaks about.
    shared: bool,
    name: Option<MemId>,
    _storage: PhantomData<&'a mut DataVec>,
}

impl<'a> Buf<'a> {
    /// The access view of `data`, named `name` in faults (`None` = a
    /// kernel-private buffer); `shared` unless it is a worker's arena.
    pub(crate) fn of(data: &'a mut DataVec, name: Option<MemId>, shared: bool) -> Buf<'a> {
        Buf {
            len: data.len(),
            dtype: data.dtype(),
            ptr: match data {
                DataVec::F32(v) => v.as_mut_ptr().cast(),
                DataVec::F64(v) => v.as_mut_ptr().cast(),
                DataVec::I32(v) => v.as_mut_ptr().cast(),
                DataVec::I64(v) => v.as_mut_ptr().cast(),
            },
            shared,
            name,
            _storage: PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The storage class of the elements.
    #[inline]
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Load the element at `index` (typed like [`DataVec::get`]).
    #[inline]
    pub fn load(self, index: i64) -> Result<Elem, MemFault> {
        // SAFETY: not `proven` — the index is compared.
        unsafe { self.load_at(false, index) }
    }

    /// Store `value` at `index` (like [`DataVec::set`]; bounds before type).
    #[inline]
    pub fn store(self, index: i64, value: RtValue) -> Result<(), MemFault> {
        // SAFETY: not `proven` — the index is compared.
        unsafe { self.store_at(false, index, value) }
    }

    /// [`Self::load`] at an access site whose bounds check may be elided.
    ///
    /// # Safety
    ///
    /// The one statement of the proven-site argument: `proven` may be
    /// `true` only if [`crate::verify::PlanFacts::instantiate`] evaluated
    /// the access site's symbolic address bounds against this launch's
    /// geometry, arguments and buffer lengths and found them in range —
    /// then, for a launch-shared buffer, `index` is within `len` without
    /// comparing (debug builds compare anyway). Arena buffers are never
    /// accessor-backed, so no proof covers them and they are always
    /// compared.
    #[inline]
    pub(crate) unsafe fn load_at(self, proven: bool, index: i64) -> Result<Elem, MemFault> {
        let i = self.position(proven, index)?;
        // SAFETY: `i < self.len`: compared by `position`, or bounded by
        // the instantiated site proof (the caller's contract); `ptr`
        // points to `len` elements of `dtype`'s type that outlive `'a`,
        // and every access while a `Buf` exists is one of these atomics.
        Ok(unsafe {
            match self.dtype {
                Dtype::F32 => Elem::F32(f32::from_bits(load32(self.ptr.cast(), i))),
                Dtype::F64 => Elem::F64(f64::from_bits(load64(self.ptr.cast(), i))),
                Dtype::I32 => Elem::Int(load32(self.ptr.cast(), i) as i32 as i64),
                Dtype::I64 => Elem::Int(load64(self.ptr.cast(), i) as i64),
            }
        })
    }

    /// [`Self::store`] at an access site whose bounds check may be
    /// elided (the type check never is: the verifier does not prove
    /// element types).
    ///
    /// # Safety
    ///
    /// As for [`Self::load_at`].
    #[inline]
    pub(crate) unsafe fn store_at(
        self,
        proven: bool,
        index: i64,
        value: RtValue,
    ) -> Result<(), MemFault> {
        let (i, p) = (self.position(proven, index)?, self.ptr);
        // SAFETY: as in `load_at`.
        unsafe {
            match (self.dtype, value) {
                (Dtype::F32, RtValue::F32(x)) => store32(p.cast(), i, x.to_bits()),
                (Dtype::F32, RtValue::F64(x)) => store32(p.cast(), i, (x as f32).to_bits()),
                (Dtype::F64, RtValue::F64(x)) => store64(p.cast(), i, x.to_bits()),
                (Dtype::F64, RtValue::F32(x)) => store64(p.cast(), i, (x as f64).to_bits()),
                (Dtype::I32, RtValue::Int(x)) => store32(p.cast(), i, x as i32 as u32),
                (Dtype::I64, RtValue::Int(x)) => store64(p.cast(), i, x as u64),
                (dtype, v) => {
                    return Err(MemFault::TypeMismatch {
                        buffer: self.name,
                        dtype,
                        value: v.kind(),
                    })
                }
            }
        }
        Ok(())
    }

    /// `index` as an element position: the bounds check of every access,
    /// skipped only for a launch-shared buffer at a `proven` site.
    #[inline]
    fn position(&self, proven: bool, index: i64) -> Result<usize, MemFault> {
        if proven && self.shared {
            debug_assert!(
                check_index(self.name, index, self.len).is_ok(),
                "proven-safe access out of bounds: index {index} of {self:?}"
            );
            return Ok(index as usize);
        }
        check_index(self.name, index, self.len)
    }
}

/// Relaxed atomic element load through a raw pointer.
///
/// # Safety
///
/// `p.add(i)` must be in bounds of a live, properly aligned allocation
/// with no concurrent non-atomic access.
#[inline]
unsafe fn load32(p: *mut u32, i: usize) -> u32 {
    unsafe { AtomicU32::from_ptr(p.add(i)).load(Ordering::Relaxed) }
}

/// See [`load32`].
#[inline]
unsafe fn load64(p: *mut u64, i: usize) -> u64 {
    unsafe { AtomicU64::from_ptr(p.add(i)).load(Ordering::Relaxed) }
}

/// See [`load32`].
#[inline]
unsafe fn store32(p: *mut u32, i: usize, v: u32) {
    unsafe { AtomicU32::from_ptr(p.add(i)).store(v, Ordering::Relaxed) }
}

/// See [`load32`].
#[inline]
unsafe fn store64(p: *mut u64, i: usize, v: u64) {
    unsafe { AtomicU64::from_ptr(p.add(i)).store(v, Ordering::Relaxed) }
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
        assert_eq!(pool.data(f).elem_bytes(), 4);
        assert_eq!(pool.data(l).elem_bytes(), 8);
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

    /// The `Vec`-backed pool and the three kinds of `Buf` — a launch-shared
    /// buffer, a worker's dense constant and its scratch alloca — report
    /// every access alike: equal values in range, equal faults — and
    /// fault text — at `len`, `-1` and `i64::MAX`, for every storage
    /// class. Only the name differs: an alloca has none.
    #[test]
    fn vec_and_pointer_storage_fault_alike() {
        let ctx = sycl_mlir_ir::Context::new();
        let (float, int) = (RtValue::F32(2.5), RtValue::Int(9));
        let protos = [
            (DataVec::F32(vec![1.5; 3]), ctx.f32_type(), float, int),
            (DataVec::F64(vec![1.5; 3]), ctx.f64_type(), float, int),
            (DataVec::I32(vec![7; 3]), ctx.i32_type(), int, float),
            (
                DataVec::I64(vec![7; 3]),
                ctx.i64_type(),
                int,
                RtValue::F64(1.0),
            ),
        ];
        let id = MemId(1);
        for (proto, elem, good, bad) in protos {
            let fresh = || {
                let mut pool = MemoryPool::new();
                pool.alloc(DataVec::I32(Vec::new()));
                assert_eq!(pool.alloc(proto.clone()), id);
                pool
            };
            for index in [1, 3, -1, i64::MAX] {
                let (mut vec_backed, mut viewed) = (fresh(), fresh());
                let loaded = vec_backed.load(id, index);
                let stored = vec_backed.store(id, index, good);
                let refused = vec_backed.store(id, index, bad);
                let after = vec_backed.load(id, index);

                // The same four accesses through each kind of `Buf`, the
                // arenas filled like `proto` first.
                let shared = SharedPool::new(&mut viewed);
                let mut worker = PlanPool::new(&shared);
                worker.alloc(DataVec::I32(Vec::new())).unwrap();
                let constant = worker.alloc(proto.clone()).unwrap();
                let alloca = worker.alloc_zeroed(&elem, proto.len()).unwrap();
                for i in 0..proto.len() {
                    let buf = worker.resolve(alloca).unwrap();
                    buf.store(i as i64, proto.get(i)).unwrap();
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
                    assert_eq!((loaded, stored), (Ok(proto.get(1)), Ok(())));
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
