//! Global and local tensors.

use ascend_sim::chip::ScratchpadKind;
use ascend_sim::mem::{GlobalMemory, Region};
use ascend_sim::{EventTime, SimError, SimResult};
use dtypes::Element;
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed view of a buffer in simulated global memory (HBM).
///
/// Mirrors AscendC's `GlobalTensor`: kernel inputs and outputs live here.
/// Cloning is cheap (the underlying memory is shared); `slice` produces
/// sub-views without copying. Host-side `to_vec`/`write` accessors move
/// data in and out without counting as device traffic.
#[derive(Clone)]
pub struct GlobalTensor<T: Element> {
    gm: Arc<GlobalMemory>,
    region: Region,
    len: usize,
    _t: PhantomData<T>,
}

impl<T: Element> GlobalTensor<T> {
    /// Allocates a zero-initialized global tensor of `len` elements.
    pub fn new(gm: &Arc<GlobalMemory>, len: usize) -> SimResult<Self> {
        let region = gm.alloc_elems::<T>(len)?;
        Ok(GlobalTensor {
            gm: Arc::clone(gm),
            region,
            len,
            _t: PhantomData,
        })
    }

    /// Allocates a global tensor holding a copy of `data` (host upload).
    pub fn from_slice(gm: &Arc<GlobalMemory>, data: &[T]) -> SimResult<Self> {
        let t = Self::new(gm, data.len())?;
        t.write(data)?;
        Ok(t)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying global memory.
    pub fn memory(&self) -> &Arc<GlobalMemory> {
        &self.gm
    }

    /// The underlying byte region (for diagnostics).
    pub fn region(&self) -> Region {
        self.region
    }

    /// A sub-view of `len` elements starting at element `offset`.
    pub fn slice(&self, offset: usize, len: usize) -> SimResult<Self> {
        let region = self.region.slice(offset * T::SIZE, len * T::SIZE)?;
        Ok(GlobalTensor {
            gm: Arc::clone(&self.gm),
            region,
            len,
            _t: PhantomData,
        })
    }

    /// Host-side: reads the whole tensor.
    pub fn to_vec(&self) -> Vec<T> {
        self.gm
            .host_read_slice(self.region, 0, self.len)
            .expect("tensor region is always in bounds")
    }

    /// Host-side: reads `len` elements starting at `offset`.
    pub fn read_range(&self, offset: usize, len: usize) -> SimResult<Vec<T>> {
        self.gm.host_read_slice(self.region, offset, len)
    }

    /// Host-side: overwrites the tensor's prefix with `data`.
    pub fn write(&self, data: &[T]) -> SimResult<()> {
        if data.len() > self.len {
            return Err(SimError::OutOfBounds {
                what: "GlobalTensor::write",
                offset: 0,
                len: data.len() * T::SIZE,
                region: self.region.len,
            });
        }
        self.gm.host_write_slice(self.region, 0, data)
    }

    /// Device-side read used by MTE transfers (counted as HBM traffic).
    pub(crate) fn device_read(&self, elem_off: usize, out: &mut [T]) -> SimResult<()> {
        self.gm.device_read(self.region, elem_off * T::SIZE, out)
    }

    /// Charges strided-access padding traffic (line granularity waste).
    pub(crate) fn account_read_padding(&self, bytes: u64) {
        self.gm.account_read_padding(bytes);
    }

    /// Device-side write used by MTE transfers (counted as HBM traffic).
    pub(crate) fn device_write(&self, elem_off: usize, src: &[T]) -> SimResult<()> {
        self.gm.device_write(self.region, elem_off * T::SIZE, src)
    }

    /// [`Self::device_write`] of `src` converted element-wise by `f`, with
    /// no intermediate buffer (the FIXP pipe's cast on the way out).
    pub(crate) fn device_write_map<S: Copy>(
        &self,
        elem_off: usize,
        src: &[S],
        f: impl Fn(S) -> T,
    ) -> SimResult<()> {
        self.gm
            .device_write_map(self.region, elem_off * T::SIZE, src, f)
    }
}

/// A typed buffer in a core's local scratchpad (UB, L1, L0A/B/C).
///
/// Mirrors AscendC's `LocalTensor`. Besides its contents, a local tensor
/// carries the simulated [`EventTime`] at which those contents become
/// valid; intrinsics consume that time as a dependency and update it.
#[derive(Clone, Debug)]
pub struct LocalTensor<T: Element> {
    /// Functional contents.
    pub(crate) data: Vec<T>,
    /// Which scratchpad the tensor lives in.
    pub(crate) pos: ScratchpadKind,
    /// Simulated time when the current contents are valid.
    pub(crate) ready: EventTime,
    /// Simcheck lifetime id assigned by the allocating core's
    /// [`ScratchTracker`](ascend_sim::ScratchTracker); 0 = untracked.
    pub(crate) alloc_id: u64,
    /// Simcheck owner: uid of the core whose scratchpad holds the
    /// buffer; 0 = untracked. Scratchpads are private on real silicon —
    /// a sibling core touching this tensor is a cross-core aliasing bug.
    pub(crate) owner: u64,
}

impl<T: Element> LocalTensor<T> {
    pub(crate) fn new(pos: ScratchpadKind, len: usize, ready: EventTime) -> Self {
        LocalTensor {
            data: vec![T::zero(); len],
            pos,
            ready,
            alloc_id: 0,
            owner: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The scratchpad this tensor lives in.
    pub fn position(&self) -> ScratchpadKind {
        self.pos
    }

    /// The simulated time at which the contents are valid.
    pub fn ready(&self) -> EventTime {
        self.ready
    }

    /// Direct read access to the contents (host-side debugging; kernels
    /// should use intrinsics so timing is modelled).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Bounds-check helper for intrinsics.
    pub(crate) fn check_range(&self, what: &'static str, off: usize, len: usize) -> SimResult<()> {
        if off + len > self.data.len() {
            return Err(SimError::OutOfBounds {
                what,
                offset: off * T::SIZE,
                len: len * T::SIZE,
                region: self.data.len() * T::SIZE,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_sim::ChipSpec;
    use dtypes::F16;

    fn gm() -> Arc<GlobalMemory> {
        Arc::new(GlobalMemory::new(ChipSpec::tiny().hbm_capacity))
    }

    #[test]
    fn global_tensor_round_trip() {
        let gm = gm();
        let data: Vec<i32> = (0..257).collect();
        let t = GlobalTensor::from_slice(&gm, &data).unwrap();
        assert_eq!(t.len(), 257);
        assert_eq!(t.to_vec(), data);
    }

    #[test]
    fn global_tensor_slicing() {
        let gm = gm();
        let data: Vec<u16> = (0..100).collect();
        let t = GlobalTensor::from_slice(&gm, &data).unwrap();
        let s = t.slice(10, 20).unwrap();
        assert_eq!(s.to_vec(), &data[10..30]);
        assert!(t.slice(90, 20).is_err());
        // Writing through a slice is visible through the parent.
        s.write(&[9999u16; 20]).unwrap();
        assert_eq!(t.to_vec()[10..30], [9999u16; 20]);
    }

    #[test]
    fn write_oversized_fails() {
        let gm = gm();
        let t = GlobalTensor::<f32>::new(&gm, 4).unwrap();
        assert!(t.write(&[0.0; 5]).is_err());
        assert!(t.write(&[1.0; 4]).is_ok());
    }

    #[test]
    fn device_accessors_count_traffic() {
        let gm = gm();
        let t = GlobalTensor::from_slice(&gm, &[F16::ONE; 64]).unwrap();
        let mut buf = vec![F16::ZERO; 64];
        t.device_read(0, &mut buf).unwrap();
        assert_eq!(buf, vec![F16::ONE; 64]);
        assert_eq!(gm.bytes_read(), 128);
        t.device_write(0, &buf).unwrap();
        assert_eq!(gm.bytes_written(), 128);
    }

    #[test]
    fn local_tensor_basics() {
        let t = LocalTensor::<f32>::new(ScratchpadKind::Ub, 16, 42);
        assert_eq!(t.len(), 16);
        assert_eq!(t.ready(), 42);
        assert_eq!(t.position(), ScratchpadKind::Ub);
        assert_eq!(t.as_slice(), &[0.0; 16]);
        assert!(t.check_range("x", 0, 16).is_ok());
        assert!(t.check_range("x", 1, 16).is_err());
    }
}
