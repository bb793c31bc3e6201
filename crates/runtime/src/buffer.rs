//! Buffers, USM allocations and the runtime's host-side state.
//!
//! An allocation is given its elements, is a *seeded input* — a recipe, a
//! closure that generates the elements — or is *zero-filled*; the last two
//! carry just the element type and extent, which is all that host IR
//! generation reads. A recipe runs when a run uploads the allocation or
//! the host first reads it, and again for every `initial_*` call; a
//! zero-filled allocation is zeroed in device memory at upload and made on
//! the host only when the host reads it. So building or compiling an
//! application makes none of its data ([`SyclRuntime::bytes_generated`]
//! counts what the recipes made).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use sycl_mlir_sim::{DataVec, Dtype, MemId, MemoryPool};

/// Handle to a SYCL buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BufferId(pub usize);

/// Handle to a USM allocation (`malloc_device`-style, §II-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UsmId(pub usize);

/// A buffer or a USM allocation: what the host-side reads take.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Alloc {
    /// A SYCL buffer.
    Buffer(BufferId),
    /// A USM allocation.
    Usm(UsmId),
}

impl From<BufferId> for Alloc {
    fn from(id: BufferId) -> Alloc {
        Alloc::Buffer(id)
    }
}

impl From<UsmId> for Alloc {
    fn from(id: UsmId) -> Alloc {
        Alloc::Usm(id)
    }
}

/// What generates a seeded input's elements; the same ones on every call.
type Recipe = Box<dyn Fn() -> DataVec + Send + Sync>;

/// Where an allocation's initial elements come from.
enum Init {
    /// Given with the allocation.
    Given,
    /// A seeded input's recipe.
    Seeded(Recipe),
    /// All zeros.
    Zeroed,
}

/// The host side of one buffer or USM allocation.
struct HostData {
    /// The elements, once given, made for a host read, or read back from
    /// the device.
    elems: OnceLock<DataVec>,
    init: Init,
    dtype: Dtype,
    len: usize,
}

impl HostData {
    fn given(data: DataVec) -> HostData {
        HostData {
            dtype: data.dtype(),
            len: data.len(),
            elems: OnceLock::from(data),
            init: Init::Given,
        }
    }

    fn lazy(dtype: Dtype, len: usize, init: Init) -> HostData {
        HostData {
            elems: OnceLock::new(),
            init,
            dtype,
            len,
        }
    }

    fn bytes(&self) -> u64 {
        (self.len * self.dtype.bytes()) as u64
    }

    /// A fresh run of the recipe, its bytes added to `generated`; `None`
    /// for an allocation that is not a seeded input.
    fn generate(&self, generated: &AtomicU64) -> Option<DataVec> {
        let Init::Seeded(recipe) = &self.init else {
            return None;
        };
        let data = recipe();
        assert!(
            data.dtype() == self.dtype && data.len() == self.len,
            "a recipe for {} {} elements generated {} {}",
            self.len,
            self.dtype.name(),
            data.len(),
            data.dtype().name()
        );
        generated.fetch_add(self.bytes(), Relaxed);
        Some(data)
    }

    /// The initial elements of an allocation the host holds none of.
    fn fresh(&self, generated: &AtomicU64) -> DataVec {
        match self.init {
            Init::Zeroed => match self.dtype {
                Dtype::F32 => DataVec::F32(vec![0.0; self.len]),
                Dtype::F64 => DataVec::F64(vec![0.0; self.len]),
                Dtype::I32 => DataVec::I32(vec![0; self.len]),
                Dtype::I64 => DataVec::I64(vec![0; self.len]),
            },
            _ => (self.generate(generated)).expect("an allocation without elements has a recipe"),
        }
    }

    /// The elements, made on first need.
    fn get(&self, generated: &AtomicU64) -> &DataVec {
        self.elems.get_or_init(|| self.fresh(generated))
    }

    /// The allocation in device memory: a copy of the host's elements, or
    /// — when the host holds none — zeroed there, or generated for it
    /// alone.
    fn upload(&self, pool: &mut MemoryPool, generated: &AtomicU64) -> MemId {
        match (self.elems.get(), &self.init) {
            (Some(elems), _) => pool.alloc(elems.clone()),
            (None, Init::Zeroed) => pool.alloc_zeroed(self.dtype, self.len),
            (None, _) => pool.alloc(self.fresh(generated)),
        }
    }
}

/// One buffer: host data plus range metadata.
pub(crate) struct BufferData {
    host: HostData,
    /// Extents, padded with 1s to rank 3.
    pub(crate) range: [i64; 3],
    /// Number of meaningful dimensions.
    pub(crate) rank: u32,
    /// Host data is a compile-time constant (e.g. `const float filter[]`
    /// captured into the kernel — the Sobel case of §VIII).
    const_init: bool,
}

impl BufferData {
    /// The element type.
    pub(crate) fn dtype(&self) -> Dtype {
        self.host.dtype
    }

    /// The elements of a buffer over `const` host data, which host IR
    /// generation bakes into the IR; `None` for any other buffer.
    pub(crate) fn const_data(&self) -> Option<&DataVec> {
        self.const_init.then(|| self.host.elems.get()).flatten()
    }
}

/// The runtime's host-side state: buffers, USM allocations and transfer
/// counters.
///
/// An allocation is given its elements (`buffer_f32`, `usm_alloc_f32`, …),
/// is a seeded input (`buffer_seeded`, `usm_seeded`) whose recipe runs
/// when a run uploads it — moving the elements into device memory, with
/// no host copy kept — or when the host first reads it, or is zero-filled
/// (`buffer_zeroed`, `usm_zeroed`): zeroed in device memory at upload, its
/// zeros made on the host only for a host read. A run leaves its results
/// in every allocation's host copy; `initial_*` generates a seeded input's
/// initial elements again, whatever a run has written since.
#[derive(Default)]
pub struct SyclRuntime {
    /// All buffers, indexed by [`BufferId`].
    pub(crate) buffers: Vec<BufferData>,
    /// All USM allocations, indexed by [`UsmId`].
    usm: Vec<HostData>,
    /// Host→device and device→host bytes moved (the buffer/accessor model
    /// automates these transfers, §II-A).
    pub bytes_to_device: u64,
    /// Device→host bytes moved.
    pub bytes_to_host: u64,
    /// Bytes the recipes of seeded inputs generated.
    generated: AtomicU64,
}

fn range3(range: &[i64]) -> ([i64; 3], u32) {
    let mut r = [1_i64; 3];
    for (i, &x) in range.iter().enumerate() {
        r[i] = x;
    }
    (r, range.len() as u32)
}

impl SyclRuntime {
    /// A runtime with no buffers or allocations.
    pub fn new() -> SyclRuntime {
        SyclRuntime::default()
    }

    fn add_buffer(&mut self, host: HostData, range: &[i64], const_init: bool) -> BufferId {
        let len: i64 = range.iter().product();
        assert_eq!(
            len as usize, host.len,
            "buffer data does not match its range"
        );
        let (r, rank) = range3(range);
        let id = BufferId(self.buffers.len());
        self.buffers.push(BufferData {
            host,
            range: r,
            rank,
            const_init,
        });
        id
    }

    /// An `f32` buffer over `data` with the given range.
    pub fn buffer_f32(&mut self, data: Vec<f32>, range: &[i64]) -> BufferId {
        self.add_buffer(HostData::given(DataVec::F32(data)), range, false)
    }

    /// An `f64` buffer over `data` with the given range.
    pub fn buffer_f64(&mut self, data: Vec<f64>, range: &[i64]) -> BufferId {
        self.add_buffer(HostData::given(DataVec::F64(data)), range, false)
    }

    /// An `i32` buffer over `data` with the given range.
    pub fn buffer_i32(&mut self, data: Vec<i32>, range: &[i64]) -> BufferId {
        self.add_buffer(HostData::given(DataVec::I32(data)), range, false)
    }

    /// An `i64` buffer over `data` with the given range.
    pub fn buffer_i64(&mut self, data: Vec<i64>, range: &[i64]) -> BufferId {
        self.add_buffer(HostData::given(DataVec::I64(data)), range, false)
    }

    /// A buffer over data the host program declares `const` — candidate
    /// for host→device constant propagation (§VII-B, Sobel filter).
    pub fn buffer_const_f32(&mut self, data: Vec<f32>, range: &[i64]) -> BufferId {
        self.add_buffer(HostData::given(DataVec::F32(data)), range, true)
    }

    /// A buffer of `dtype` elements over a seeded input: `recipe` makes
    /// them when a run uploads the buffer or the host first reads it, and
    /// again for each `initial_*` call, so it must make the same elements
    /// every time.
    pub fn buffer_seeded(
        &mut self,
        dtype: Dtype,
        range: &[i64],
        recipe: impl Fn() -> DataVec + Send + Sync + 'static,
    ) -> BufferId {
        let len = range.iter().product::<i64>() as usize;
        let host = HostData::lazy(dtype, len, Init::Seeded(Box::new(recipe)));
        self.add_buffer(host, range, false)
    }

    /// A zero-filled buffer of `dtype` elements — an output, most often:
    /// zeroed in device memory when a run uploads it, its zeros made on
    /// the host only if the host reads it first.
    pub fn buffer_zeroed(&mut self, dtype: Dtype, range: &[i64]) -> BufferId {
        let len = range.iter().product::<i64>() as usize;
        self.add_buffer(HostData::lazy(dtype, len, Init::Zeroed), range, false)
    }

    /// USM device allocation: the user manages transfers manually (§II-A).
    pub fn usm_alloc_f32(&mut self, data: Vec<f32>) -> UsmId {
        self.add_usm(HostData::given(DataVec::F32(data)))
    }

    /// A USM allocation of `len` `dtype` elements over a seeded input, made
    /// by `recipe` as for [`SyclRuntime::buffer_seeded`].
    pub fn usm_seeded(
        &mut self,
        dtype: Dtype,
        len: usize,
        recipe: impl Fn() -> DataVec + Send + Sync + 'static,
    ) -> UsmId {
        self.add_usm(HostData::lazy(dtype, len, Init::Seeded(Box::new(recipe))))
    }

    /// A zero-filled USM allocation of `len` `dtype` elements, as for
    /// [`SyclRuntime::buffer_zeroed`].
    pub fn usm_zeroed(&mut self, dtype: Dtype, len: usize) -> UsmId {
        self.add_usm(HostData::lazy(dtype, len, Init::Zeroed))
    }

    fn add_usm(&mut self, host: HostData) -> UsmId {
        let id = UsmId(self.usm.len());
        self.usm.push(host);
        id
    }

    fn host(&self, id: Alloc) -> &HostData {
        match id {
            Alloc::Buffer(b) => &self.buffers[b.0].host,
            Alloc::Usm(u) => &self.usm[u.0],
        }
    }

    /// Every buffer, in id order, then every USM allocation.
    pub fn allocs(&self) -> impl Iterator<Item = Alloc> {
        let buffers = (0..self.buffers.len()).map(|i| Alloc::Buffer(BufferId(i)));
        buffers.chain((0..self.usm.len()).map(|i| Alloc::Usm(UsmId(i))))
    }

    /// The host copy of an allocation: what it was given, or what the
    /// last run left in it; a seeded input that no run has uploaded is
    /// generated on the first read.
    pub fn read(&self, id: impl Into<Alloc>) -> &DataVec {
        self.host(id.into()).get(&self.generated)
    }

    /// Read an `f32` allocation back (panics on a type mismatch).
    pub fn read_f32(&self, id: impl Into<Alloc>) -> &[f32] {
        let id = id.into();
        match self.read(id) {
            DataVec::F32(v) => v,
            other => panic!("{id:?} is not f32: {:?}", other.dtype()),
        }
    }

    /// Read an `f64` allocation back (panics on a type mismatch).
    pub fn read_f64(&self, id: impl Into<Alloc>) -> &[f64] {
        let id = id.into();
        match self.read(id) {
            DataVec::F64(v) => v,
            other => panic!("{id:?} is not f64: {:?}", other.dtype()),
        }
    }

    /// Read an `i32` allocation back (panics on a type mismatch).
    pub fn read_i32(&self, id: impl Into<Alloc>) -> &[i32] {
        let id = id.into();
        match self.read(id) {
            DataVec::I32(v) => v,
            other => panic!("{id:?} is not i32: {:?}", other.dtype()),
        }
    }

    /// Read an `i64` allocation back (panics on a type mismatch).
    pub fn read_i64(&self, id: impl Into<Alloc>) -> &[i64] {
        let id = id.into();
        match self.read(id) {
            DataVec::I64(v) => v,
            other => panic!("{id:?} is not i64: {:?}", other.dtype()),
        }
    }

    /// A seeded input's initial elements, generated afresh by its recipe —
    /// whatever a run has since written; `None` for an allocation given
    /// its elements or zero-filled.
    pub fn initial(&self, id: impl Into<Alloc>) -> Option<DataVec> {
        self.host(id.into()).generate(&self.generated)
    }

    fn seeded(&self, id: Alloc) -> DataVec {
        (self.initial(id)).unwrap_or_else(|| panic!("{id:?} is not a seeded input"))
    }

    /// An `f32` seeded input's initial elements (panics on a type mismatch
    /// or an allocation given its elements).
    pub fn initial_f32(&self, id: impl Into<Alloc>) -> Vec<f32> {
        match self.seeded(id.into()) {
            DataVec::F32(v) => v,
            other => panic!("not f32: {:?}", other.dtype()),
        }
    }

    /// An `f64` seeded input's initial elements (see [`Self::initial_f32`]).
    pub fn initial_f64(&self, id: impl Into<Alloc>) -> Vec<f64> {
        match self.seeded(id.into()) {
            DataVec::F64(v) => v,
            other => panic!("not f64: {:?}", other.dtype()),
        }
    }

    /// An `i32` seeded input's initial elements (see [`Self::initial_f32`]).
    pub fn initial_i32(&self, id: impl Into<Alloc>) -> Vec<i32> {
        match self.seeded(id.into()) {
            DataVec::I32(v) => v,
            other => panic!("not i32: {:?}", other.dtype()),
        }
    }

    /// An `i64` seeded input's initial elements (see [`Self::initial_f32`]).
    pub fn initial_i64(&self, id: impl Into<Alloc>) -> Vec<i64> {
        match self.seeded(id.into()) {
            DataVec::I64(v) => v,
            other => panic!("not i64: {:?}", other.dtype()),
        }
    }

    /// Bytes the recipes of seeded inputs have generated so far: for
    /// uploads, first host reads and `initial_*` calls. Building and
    /// compiling an application generate none.
    pub fn bytes_generated(&self) -> u64 {
        self.generated.load(Relaxed)
    }

    /// Upload all buffers/USM allocations into a fresh device pool;
    /// returns per-buffer and per-USM device memory ids.
    pub(crate) fn upload_to_device(&mut self, pool: &mut MemoryPool) -> (Vec<MemId>, Vec<MemId>) {
        let mut upload = |host: &HostData| {
            self.bytes_to_device += host.bytes();
            host.upload(pool, &self.generated)
        };
        let buf_ids = self.buffers.iter().map(|b| upload(&b.host)).collect();
        let usm_ids = self.usm.iter().map(&mut upload).collect();
        (buf_ids, usm_ids)
    }

    /// Write device memory back to the host copies.
    pub(crate) fn download_from_device(
        &mut self,
        pool: &MemoryPool,
        buf_ids: &[MemId],
        usm_ids: &[MemId],
    ) {
        let hosts = (self.buffers.iter_mut().map(|b| &mut b.host)).chain(&mut self.usm);
        for (host, &mem) in hosts.zip(buf_ids.iter().chain(usm_ids)) {
            self.bytes_to_host += host.bytes();
            host.elems = OnceLock::from(pool.read(mem));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_roundtrip() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(rt.read_f32(b), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(rt.buffers[b.0].rank, 2);
        assert_eq!(rt.buffers[b.0].range, [2, 2, 1]);
        assert!(rt.buffers[b.0].const_data().is_none());
        assert_eq!(rt.initial(b), None, "given, not seeded");
        let c = rt.buffer_const_f32(vec![0.5], &[1]);
        assert_eq!(rt.buffers[c.0].const_data(), Some(&DataVec::F32(vec![0.5])));
    }

    #[test]
    #[should_panic(expected = "does not match its range")]
    fn mismatched_range_panics() {
        let mut rt = SyclRuntime::new();
        rt.buffer_f32(vec![1.0; 3], &[2, 2]);
    }

    #[test]
    fn device_roundtrip_moves_bytes() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_f64(vec![1.0; 8], &[8]);
        let mut pool = MemoryPool::new();
        let (bufs, _) = rt.upload_to_device(&mut pool);
        assert_eq!(rt.bytes_to_device, 64);
        pool.store(bufs[b.0], 3, sycl_mlir_sim::RtValue::F64(9.0))
            .unwrap();
        rt.download_from_device(&pool, &bufs, &[]);
        assert_eq!(rt.read_f64(b)[3], 9.0);
        assert_eq!(rt.bytes_to_host, 64);
    }

    /// A seeded input is generated when a run uploads it — not before, and
    /// not kept on the host — and each `initial_*` call generates it again,
    /// whatever the run wrote.
    #[test]
    fn a_recipe_runs_when_its_elements_are_needed() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_seeded(Dtype::I32, &[2, 2], || DataVec::I32(vec![1, 2, 3, 4]));
        let u = rt.usm_seeded(Dtype::F32, 2, || DataVec::F32(vec![0.5, 1.5]));
        assert_eq!(rt.buffers[b.0].dtype(), Dtype::I32);
        assert_eq!(
            rt.bytes_generated(),
            0,
            "adding a seeded input generates nothing"
        );
        let mut pool = MemoryPool::new();
        let (bufs, usms) = rt.upload_to_device(&mut pool);
        assert_eq!((rt.bytes_generated(), rt.bytes_to_device), (24, 24));
        assert!(
            rt.buffers[b.0].host.elems.get().is_none(),
            "moved, not kept"
        );
        pool.store(bufs[b.0], 0, sycl_mlir_sim::RtValue::Int(7))
            .unwrap();
        rt.download_from_device(&pool, &bufs, &usms);
        assert_eq!(rt.read_i32(b), &[7, 2, 3, 4]);
        assert_eq!(rt.read_f32(u), &[0.5, 1.5]);
        assert_eq!(rt.initial_i32(b), [1, 2, 3, 4]);
        assert_eq!(rt.initial_f32(u), [0.5, 1.5]);
        assert_eq!(rt.bytes_generated(), 48);
    }

    #[test]
    fn a_host_read_generates_a_seeded_input_once() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_seeded(Dtype::F64, &[3], || DataVec::F64(vec![1.0, 2.0, 3.0]));
        assert_eq!(rt.read_f64(b), &[1.0, 2.0, 3.0]);
        assert_eq!(rt.read_f64(b), &[1.0, 2.0, 3.0]);
        assert_eq!(rt.bytes_generated(), 24);
        let mut pool = MemoryPool::new();
        rt.upload_to_device(&mut pool);
        assert_eq!(
            rt.bytes_generated(),
            24,
            "the upload copies what the read made"
        );
    }

    /// A zero-filled allocation is zeroed in device memory at upload and
    /// made on the host only when the host reads it; it generates nothing
    /// and is no seeded input.
    #[test]
    fn a_zeroed_allocation_makes_its_zeros_where_they_are_needed() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_zeroed(Dtype::F32, &[2, 2]);
        let u = rt.usm_zeroed(Dtype::I64, 3);
        assert_eq!(
            (rt.buffers[b.0].rank, rt.buffers[b.0].range),
            (2, [2, 2, 1])
        );
        let mut pool = MemoryPool::new();
        let (bufs, usms) = rt.upload_to_device(&mut pool);
        assert_eq!(rt.bytes_to_device, 16 + 24);
        assert!(rt.buffers[b.0].host.elems.get().is_none(), "no host zeros");
        assert_eq!(pool.read(bufs[b.0]), DataVec::F32(vec![0.0; 4]));
        assert_eq!(pool.read(usms[u.0]), DataVec::I64(vec![0; 3]));
        pool.store(bufs[b.0], 1, sycl_mlir_sim::RtValue::F32(2.5))
            .unwrap();
        rt.download_from_device(&pool, &bufs, &usms);
        assert_eq!(rt.read_f32(b), &[0.0, 2.5, 0.0, 0.0]);
        assert_eq!(rt.read_i64(u), &[0, 0, 0]);
        assert_eq!(rt.initial(b), None, "zero-filled, not seeded");
        assert_eq!(rt.bytes_generated(), 0);

        let mut rt = SyclRuntime::new();
        let b = rt.buffer_zeroed(Dtype::I32, &[2]);
        assert_eq!(rt.read_i32(b), &[0, 0], "made for a host read");
    }

    #[test]
    #[should_panic(expected = "a recipe for 4 f32 elements generated 3 f32")]
    fn a_recipe_of_the_wrong_length_panics() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_seeded(Dtype::F32, &[4], || DataVec::F32(vec![0.0; 3]));
        rt.read(b);
    }
}
