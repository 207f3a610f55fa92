//! The size-adaptive scan entry point: [`scan`] picks ScanC or MCScan
//! for an `n`-element scan from `n`, the element types and the
//! [`ChipSpec`], so every caller — `Device` and the scan-based
//! operators alike — takes the same path and gets the same bits.
//!
//! MCScan (the paper's Algorithm 3) stays the reproduction kernel of
//! Figs. 3–9; this module only decides when the single-pass chained
//! ScanC is faster. The rule, in tiles `t = ⌈n / s²⌉`, the chip's vector
//! lane count `V = ai_cores · vec_per_core` and the tiles per lane
//! `c = ⌈t / V⌉` an even spread gives (MCScan's chunk length, and
//! ScanC's `tiles_per_lane` below its UB cap), is ScanC when
//!
//! * `5·t < V` — a look-back chain of fewer than `V/5` one-tile lanes
//!   is cheaper than MCScan's `SyncAll` and second pass;
//! * `2 ≤ c ≤ cap` and ScanC moves at most 4/5 of MCScan's bytes — one
//!   wave of multi-tile lanes hides the chain behind local work, and
//!   the traffic saving pays for it (fp16: 8 vs 10 B/elem; the int8
//!   mask path saves only 9 vs 10);
//! * `t > cap·V` and `0 < t mod (cap·V) < cap` — ScanC's last wave is
//!   a single short lane, while MCScan's chunks have just grown by a
//!   tile on every vector core;
//! * `c > 5` — bandwidth-bound: ScanC's traffic saving outweighs the
//!   cost of its lanes spanning several waves.
//!
//! The thresholds are the crossovers measured on the 910B4 (DESIGN
//! §11). In between, MCScan's barrier is cheaper than ScanC's chain.

use crate::mcscan::{mcscan, McScanConfig};
use crate::scanc::{scanc_kind, ScanCConfig};
use crate::{ScanKind, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{ChipSpec, GlobalTensor, SimResult};
use dtypes::{CubeInput, Element, Numeric};
use std::sync::Arc;

/// The kernel and configuration [`scan`] runs.
#[derive(Clone, Copy, Debug)]
pub enum ScanPlan {
    /// The paper's two-pass multi-core scan.
    McScan(McScanConfig),
    /// The single-pass chained scan, sized for `n`.
    ScanC(ScanCConfig, ScanKind),
}

impl ScanPlan {
    /// The launched kernel's report name (`"MCScan"` or `"ScanC"`).
    pub fn kernel(&self) -> &'static str {
        match self {
            ScanPlan::McScan(_) => "MCScan",
            ScanPlan::ScanC(..) => "ScanC",
        }
    }
}

/// The largest cube tile dimension `s ≤ 128` (a multiple of 16) whose
/// `s × s` tiles fit the chip's L0 buffers for input `T` and, next to
/// one `M` staging tile, its UB for output `O`: 128 on the 910B4, 32 on
/// the tiny test chip.
pub(crate) fn tile_dim<T: CubeInput, M: Element, O: Element>(spec: &ChipSpec) -> usize {
    let fits = |s: usize| {
        let l = s * s;
        l * T::SIZE <= spec.l0a_capacity.min(spec.l0b_capacity)
            && l * <T::Acc as Element>::SIZE <= spec.l0c_capacity
            && l * (T::SIZE.max(M::SIZE) + O::SIZE) + 256 <= spec.ub_capacity
    };
    (1..=8)
        .rev()
        .map(|k| 16 * k)
        .find(|&s| fits(s))
        .unwrap_or(16)
}

/// Chooses the kernel for an `n`-element `T → M → O` scan (module docs
/// give the rule).
pub fn plan<T: CubeInput, M: Element, O: Element>(
    spec: &ChipSpec,
    n: usize,
    kind: ScanKind,
) -> ScanPlan {
    let s = tile_dim::<T, M, O>(spec);
    let scanc = ScanCConfig::for_len::<T, M, O>(spec, n);
    let cap = ScanCConfig::ub_filling::<M, O>(spec, s).tiles_per_lane;
    let lanes = (spec.ai_cores * spec.vec_per_core) as usize;
    let tiles = n.div_ceil(s * s);
    let per_lane = tiles.div_ceil(lanes);
    let mcscan_bytes = 2 * T::SIZE + 2 * M::SIZE + O::SIZE;
    let scanc_bytes = T::SIZE + 2 * M::SIZE + O::SIZE;
    let prefer_scanc = 5 * tiles < lanes
        || ((2..=cap).contains(&per_lane) && 5 * scanc_bytes <= 4 * mcscan_bytes)
        || (tiles > cap * lanes && (1..cap).contains(&(tiles % (cap * lanes))))
        || per_lane > 5;
    // ScanC partitions the flag ids per vector core.
    if prefer_scanc && spec.flag_id_limit >= spec.vec_per_core {
        ScanPlan::ScanC(scanc, kind)
    } else {
        ScanPlan::McScan(McScanConfig {
            s,
            blocks: spec.ai_cores,
            kind,
        })
    }
}

/// Scans `x` (inclusive or exclusive) with whichever of ScanC and
/// MCScan [`plan`] picks. Type parameters follow
/// [`crate::mcscan::mcscan`]: `scan::<F16, F16, F16>` for fp16,
/// `scan::<u8, i16, i32>` for int8 masks.
pub fn scan<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    kind: ScanKind,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    match plan::<T, M, O>(spec, x.len(), kind) {
        ScanPlan::McScan(cfg) => mcscan::<T, M, O>(spec, gm, x, cfg),
        ScanPlan::ScanC(cfg, kind) => scanc_kind::<T, M, O>(spec, gm, x, cfg, kind),
    }
}
