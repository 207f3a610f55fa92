//! # ascend-scan
//!
//! Parallel prefix-sum (scan) algorithms and scan-based operators for
//! (simulated) Ascend AI accelerators — a from-scratch Rust reproduction
//! of *"Parallel Scan on Ascend AI Accelerators"* (Wróblewski, Gottardo,
//! Zouzias; IPPS 2025).
//!
//! The crate is a facade over the workspace:
//!
//! * [`sim`] ([`ascend_sim`]) — a deterministic functional + timing
//!   simulator of the Ascend 910B "DaVinci" architecture (cube/vector
//!   engines, MTEs, scratchpads, HBM/L2 bandwidth model);
//! * [`ascendc`] — the AscendC programming model embedded in Rust
//!   (global/local tensors, queues, intrinsics, kernel launch);
//! * [`scan`] — the paper's scan algorithms: ScanU, ScanUL1, the
//!   multi-core MCScan, batched variants, and the vector-only baseline;
//!   plus the single-pass chained ScanC and the size-adaptive entry
//!   point [`scan::scan`] that runs whichever of ScanC and MCScan is
//!   faster at the input's size;
//! * [`ops`] — scan-based operators: split, compress, radix sort, top-k,
//!   top-p (nucleus) sampling, weighted sampling, plus the PyTorch-Ascend
//!   baselines — all scanning through [`scan::scan`];
//! * [`dtypes`] — software `f16` and the element/radix-key traits.
//!
//! ## Quickstart
//!
//! ```
//! use ascend_scan::Device;
//! use ascend_scan::dtypes::F16;
//!
//! // A simulated Ascend 910B4 (20 cube cores, 40 vector cores).
//! let dev = Device::ascend_910b4();
//!
//! // Scan a million-element fp16 array on all cores (the entry point
//! // picks ScanC or MCScan by size).
//! let xs: Vec<F16> = (0..1_000_000).map(|i| F16::from_f32((i % 2) as f32)).collect();
//! let x = dev.tensor(&xs).unwrap();
//! let run = dev.cumsum(&x).unwrap();
//!
//! // The prefix sums are non-decreasing and the report carries the
//! // simulated execution profile.
//! let y = run.y.to_vec();
//! assert!(y.windows(2).take(1000).all(|w| w[0].to_f32() <= w[1].to_f32()));
//! println!("simulated time: {:.1} us at {:.0} GB/s", run.report.time_us(), run.report.gbps());
//! assert!(run.report.gbps() > 100.0);
//! ```

pub use ascend_sim as sim;
pub use ascendc;
pub use dtypes;
pub use ops;
pub use scan;

pub use ascend_sim::{ChipSpec, KernelReport, SimError, SimResult};
pub use ascendc::GlobalTensor;
pub use dtypes::{Element, F16};
pub use scan::mcscan::{McScanConfig, ScanKind};
pub use scan::scanc::ScanCConfig;
pub use scan::ScanRun;

use ascend_sim::mem::GlobalMemory;
use dtypes::{CubeInput, Numeric, RadixKey};
use std::sync::Arc;

/// A simulated accelerator: a chip specification plus its global memory.
///
/// Thin convenience wrapper so applications don't thread `(&ChipSpec,
/// &Arc<GlobalMemory>)` everywhere; all operators remain available as
/// free functions in [`scan`] and [`ops`] for fine-grained control.
pub struct Device {
    spec: ChipSpec,
    gm: Arc<GlobalMemory>,
}

impl Device {
    /// A simulated Ascend 910B4 — the paper's evaluation platform.
    pub fn ascend_910b4() -> Self {
        Self::with_spec(ChipSpec::ascend_910b4())
    }

    /// A device with a custom chip specification.
    pub fn with_spec(spec: ChipSpec) -> Self {
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        Device { spec, gm }
    }

    /// The chip specification.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// The device's global memory.
    pub fn memory(&self) -> &Arc<GlobalMemory> {
        &self.gm
    }

    /// Uploads a host slice into a new global tensor.
    pub fn tensor<T: Element>(&self, data: &[T]) -> SimResult<GlobalTensor<T>> {
        GlobalTensor::from_slice(&self.gm, data)
    }

    /// Allocates a zeroed global tensor.
    pub fn zeros<T: Element>(&self, len: usize) -> SimResult<GlobalTensor<T>> {
        GlobalTensor::new(&self.gm, len)
    }

    /// Inclusive scan through the size-adaptive entry point
    /// [`scan::scan`]: the single-pass chained ScanC where it beats the
    /// paper's MCScan (short inputs and bandwidth-bound ones), MCScan
    /// in between. The scan-based operators take the same path, so a
    /// CDF computed here is bit-identical to the one `top_p` and
    /// `weighted_sample` draw from. fp16 rounding depends on the
    /// kernel's association order; call [`scan::mcscan()`] directly for
    /// the paper's kernel at every size.
    pub fn cumsum<T: CubeInput>(&self, x: &GlobalTensor<T>) -> SimResult<ScanRun<T>> {
        scan::scan::<T, T, T>(&self.spec, &self.gm, x, ScanKind::Inclusive)
    }

    /// Exclusive int8-mask scan (`u8 → i16 → i32`), the split/compress
    /// building block, through the same entry point as [`Device::cumsum`]
    /// (and the same kernel the split-based operators run).
    pub fn mask_exclusive_scan(&self, mask: &GlobalTensor<u8>) -> SimResult<ScanRun<i32>> {
        scan::scan::<u8, i16, i32>(&self.spec, &self.gm, mask, ScanKind::Exclusive)
    }

    /// Stable split by mask, with original indices.
    pub fn split<E: Element>(
        &self,
        x: &GlobalTensor<E>,
        mask: &GlobalTensor<u8>,
    ) -> SimResult<ops::SplitRun<E>> {
        ops::split_ind(&self.spec, &self.gm, x, mask, self.spec.ai_cores)
    }

    /// `masked_select`: compacts the mask-selected elements.
    pub fn compress<E: Element>(
        &self,
        x: &GlobalTensor<E>,
        mask: &GlobalTensor<u8>,
    ) -> SimResult<ops::compress::CompressRun<E>> {
        ops::compress(&self.spec, &self.gm, x, mask, self.spec.ai_cores)
    }

    /// Stable radix sort (values + argsort indices).
    pub fn sort<K>(&self, x: &GlobalTensor<K>, order: ops::SortOrder) -> SimResult<ops::SortRun<K>>
    where
        K: RadixKey + Element,
        K::Encoded: Element + ascendc::Bits + Numeric,
    {
        ops::radix_sort(&self.spec, &self.gm, x, order)
    }

    /// Top-k selection (unsorted top set + indices).
    pub fn topk<K>(&self, x: &GlobalTensor<K>, k: usize) -> SimResult<ops::topk::TopKRun<K>>
    where
        K: RadixKey + Element,
        K::Encoded: Element + ascendc::Bits + Numeric,
    {
        ops::topk(&self.spec, &self.gm, x, k, self.spec.ai_cores)
    }

    /// Top-p (nucleus) sampling from an fp16 probability vector.
    pub fn top_p(
        &self,
        probs: &GlobalTensor<F16>,
        p: f64,
        theta: f64,
    ) -> SimResult<ops::topp::TopPRun> {
        ops::top_p_sample(&self.spec, &self.gm, probs, p, theta)
    }

    /// Weighted sampling by inverse transform (unbounded support size).
    pub fn weighted_sample<W: CubeInput>(
        &self,
        w: &GlobalTensor<W>,
        theta: f64,
    ) -> SimResult<ops::weighted::WeightedRun> {
        ops::weighted_sample(&self.spec, &self.gm, w, theta)
    }

    /// Sum reduction on the cube units (`A @ 1s` row sums).
    pub fn reduce<T: CubeInput>(&self, x: &GlobalTensor<T>) -> SimResult<scan::ReduceRun<T::Acc>> {
        scan::reduce_cube::<T>(&self.spec, &self.gm, x, 128, self.spec.ai_cores)
    }

    /// Builds an alias table for O(1)-per-draw weighted sampling.
    pub fn alias_table(&self, w: &GlobalTensor<f32>) -> SimResult<ops::AliasTable> {
        ops::build_alias_table(&self.spec, &self.gm, w, self.spec.ai_cores)
    }

    /// Draws many samples from an alias table.
    pub fn alias_sample(
        &self,
        table: &ops::AliasTable,
        thetas: &[(f64, f64)],
    ) -> SimResult<(Vec<u32>, KernelReport)> {
        ops::alias_sample_many(&self.spec, &self.gm, table, thetas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_end_to_end_cumsum() {
        let dev = Device::with_spec(ChipSpec::tiny());
        let xs: Vec<i8> = (0..5000).map(|i| (i % 3) as i8).collect();
        let x = dev.tensor(&xs).unwrap();
        let run = scan::mcscan::mcscan::<i8, i32, i32>(
            dev.spec(),
            dev.memory(),
            &x,
            McScanConfig {
                s: 16,
                blocks: 2,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap();
        assert_eq!(
            run.y.to_vec(),
            scan::reference::inclusive_widening::<i8, i32>(&xs)
        );
    }

    #[test]
    fn device_wrappers_run_on_tiny_chip() {
        // The Device defaults target the 910B4 (s = 128); exercise the
        // full-size path once with a small input.
        let dev = Device::ascend_910b4();
        let mask: Vec<u8> = (0..40_000).map(|i| (i % 2) as u8).collect();
        let m = dev.tensor(&mask).unwrap();
        let scanrun = dev.mask_exclusive_scan(&m).unwrap();
        let expect = scan::reference::exclusive_widening::<u8, i32>(&mask);
        assert_eq!(scanrun.y.to_vec(), expect);

        let vals: Vec<u16> = (0..40_000).map(|i| (i * 7 % 1000) as u16).collect();
        let v = dev.tensor(&vals).unwrap();
        let split = dev.split(&v, &m).unwrap();
        assert_eq!(split.n_true, 20_000);
    }
}
