//! Scan-based computational operators (the paper's Section 5). Every
//! operator scans through [`scan::scan`], the size-adaptive entry point
//! that runs MCScan or the chained ScanC, whichever is faster at the
//! input's size — the same kernel `Device::cumsum` picks:
//!
//! * [`split::split_ind`] — **SplitInd**: stable partition of an array by
//!   a boolean mask, also returning the original indices (the PyTorch
//!   `sort()`-compatible building block).
//! * [`compress::compress`] — **Compress/compact**: `masked_select`.
//! * [`radix_sort::radix_sort`] — LSB radix sort (stable, values +
//!   indices), one fused multi-way split launch per radix digit on the
//!   chained look-back; supports unsigned/signed integers and `f16` via
//!   the order-preserving encode/decode pre/post-passes.
//! * [`topk::topk`] — top-k selection via bitwise partial quickselect on
//!   SplitInd (reproducing the paper's *negative* result for small k).
//! * [`topp::top_p_sample`] — Llama3-style top-p (nucleus) sampling:
//!   descending radix sort + scan + threshold + weighted draw.
//! * [`weighted::weighted_sample`] — inverse-transform weighted sampling
//!   with unbounded support size.
//! * [`baselines`] — the PyTorch-Ascend operators the paper measures
//!   against (`torch.clone`, `torch.masked_select`, `torch.sort`,
//!   `torch.multinomial`, baseline top-k), implemented either as real
//!   simulator kernels or as documented cost models.

#![forbid(unsafe_code)]

pub mod alias;
pub mod baselines;
pub mod compress;
pub mod radix_sort;
pub mod split;
pub mod topk;
pub mod topp;
pub mod weighted;

pub use alias::{alias_sample_many, build_alias_table, AliasTable};
pub use compress::compress;
pub use radix_sort::{radix_sort, SortOrder, SortRun};
pub use split::{split_ind, SplitRun};
pub use topk::topk;
pub use topp::{top_p_sample, top_p_sample_batch};
pub use weighted::weighted_sample;

/// Largest power-of-two piece length (in elements) such that a kernel
/// needing `bytes_per_elem` UB bytes per element stays within the
/// Unified Buffer, capped at `cap` elements. Lets the same kernels run
/// on the tiny test chip and the 910B4 preset.
pub(crate) fn ub_piece(spec: &ascendc::ChipSpec, bytes_per_elem: usize, cap: usize) -> usize {
    let max_elems = spec.ub_capacity / bytes_per_elem.max(1);
    let mut p = 64;
    while p * 2 <= max_elems && p * 2 <= cap {
        p *= 2;
    }
    p
}
