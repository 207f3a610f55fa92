//! LSB **radix sort** on top of SplitInd — the paper's §5 "Radix sort".
//!
//! The sort loops over the bits of the (order-preserving encoded) keys,
//! least significant first, and performs one stable [`split`] per bit
//! with the mask "bit is 0" (ascending). Each split is an exclusive
//! int8 scan — running on the cube units — plus a vector scatter; the
//! **RadixSingle** vector kernel extracts each pass's radix with
//! `ShiftRight`/`And`/`Compare`.
//!
//! Floats are supported through the pre-/post-processing encode passes
//! (invert the MSB of non-negatives, all bits of negatives — Knuth
//! §5.2.5 ex. 8–9 / the CM-2 paper the authors cite): an unsigned radix
//! sort of the encoded keys orders the originals correctly, including
//! -0.0 < +0.0 and NaNs above +∞.
//!
//! Output indices are permuted alongside the keys on every pass, so the
//! result matches the PyTorch `sort()` API (values and `argsort`).
//!
//! [`split`]: crate::split::split_ind

use crate::split::scatter_by_mask;
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::vecops::Bits;
use ascendc::{launch, ChipSpec, CmpMode, GlobalTensor, ScratchpadKind, SimResult};
use dtypes::{Element, Numeric, RadixKey};
use scan::{scan, ScanKind};
use std::sync::Arc;

/// Sort direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest first.
    Ascending,
    /// Largest first (what top-p sampling needs).
    Descending,
}

/// Result of [`radix_sort`].
pub struct SortRun<K: Element> {
    /// The sorted values.
    pub values: GlobalTensor<K>,
    /// `argsort`: original index of each output element.
    pub indices: GlobalTensor<u32>,
    /// Combined execution report over all passes.
    pub report: KernelReport,
}

/// Elements per piece in the radix-extraction and codec kernels.
const PIECE_CAP: usize = 2048;

/// Stable radix sort of `x` (values + original indices), using the
/// scan-based split for every bit plane.
///
/// `blocks` configures the encode, radix-extraction and scatter
/// launches; the scans size themselves ([`scan::scan`]).
pub fn radix_sort<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    blocks: u32,
    order: SortOrder,
) -> SimResult<SortRun<K>>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let n = x.len();
    let values = GlobalTensor::<K>::new(gm, n)?;
    let indices = GlobalTensor::<u32>::new(gm, n)?;
    if n == 0 {
        return Ok(SortRun {
            values,
            indices,
            report: KernelReport::sequential(
                "RadixSort",
                &[launch(spec, gm, 1, "noop", |_| Ok(()))?],
            ),
        });
    }

    let mut keys_a = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let mut keys_b = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let mut idx_a = GlobalTensor::<u32>::new(gm, n)?;
    let mut idx_b = GlobalTensor::<u32>::new(gm, n)?;
    let mask = GlobalTensor::<u8>::new(gm, n)?;
    let mut reports = Vec::with_capacity(2 + 3 * K::BITS as usize);

    // --- Pre-processing: encode keys, materialize indices. ---
    reports.push(encode_kernel::<K>(spec, gm, blocks, x, &keys_a, &idx_a)?);

    // --- One split per bit plane. ---
    for bit in 0..K::BITS {
        reports.push(radix_single::<K>(
            spec, gm, blocks, &keys_a, &mask, bit, order,
        )?);

        let scan_run = scan::<u8, i16, i32>(spec, gm, &mask, ScanKind::Exclusive)?;
        let offs = scan_run.y;
        reports.push(scan_run.report);
        let n_true =
            (offs.read_range(n - 1, 1)?[0] + i32::from(mask.read_range(n - 1, 1)?[0])) as usize;

        reports.push(scatter_by_mask::<K::Encoded>(
            spec,
            gm,
            blocks,
            &keys_a,
            Some(&idx_a),
            &mask,
            &offs,
            n_true,
            &keys_b,
            Some(&idx_b),
            true,
        )?);
        std::mem::swap(&mut keys_a, &mut keys_b);
        std::mem::swap(&mut idx_a, &mut idx_b);
    }

    // --- Post-processing: decode keys back to values. ---
    reports.push(decode_kernel::<K>(spec, gm, blocks, &keys_a, &values)?);
    // The index array ends up in idx_a after an even number of swaps.
    copy_indices(spec, gm, blocks, &idx_a, &indices, &mut reports)?;

    let mut report = KernelReport::sequential("RadixSort", &reports);
    report.elements = n as u64;
    report.useful_bytes = (n * K::SIZE + n * (K::SIZE + 4)) as u64;
    Ok(SortRun {
        values,
        indices,
        report,
    })
}

fn pieces(piece: usize, n: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut off = 0;
    while off < n {
        let valid = piece.min(n - off);
        v.push((off, valid));
        off += valid;
    }
    v
}

/// Pre-processing kernel: order-preserving encode + index ramp.
fn encode_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    x: &GlobalTensor<K>,
    keys: &GlobalTensor<K::Encoded>,
    idx: &GlobalTensor<u32>,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(
        spec,
        K::SIZE + std::mem::size_of::<K::Encoded>() + 4,
        PIECE_CAP,
    );
    let spans = pieces(piece, x.len());
    launch(spec, gm, blocks, "RadixEncode", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut raw = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut ramp = vc.alloc_local::<u32>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut raw, 0, x, off, valid, &[])?;
                vc.vradix_encode::<K>(&mut enc, &raw, 0, valid)?;
                vc.copy_out(keys, off, &enc, 0, valid, &[])?;
                vc.viota(&mut ramp, 0, valid, off as u32)?;
                vc.copy_out(idx, off, &ramp, 0, valid, &[])?;
            }
            vc.free_local(raw)?;
            vc.free_local(enc)?;
            vc.free_local(ramp)?;
        }
        Ok(())
    })
}

/// The RadixSingle kernel: extracts bit `bit` of every key into the
/// split mask (`ShiftRight` + `And` + `Compare`).
fn radix_single<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    keys: &GlobalTensor<K::Encoded>,
    mask: &GlobalTensor<u8>,
    bit: u32,
    order: SortOrder,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(spec, std::mem::size_of::<K::Encoded>() + 1, PIECE_CAP);
    let spans = pieces(piece, keys.len());
    launch(spec, gm, blocks, "RadixSingle", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut buf = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut buf, 0, keys, off, valid, &[])?;
                vc.vshr(&mut buf, 0, valid, bit)?;
                vc.vand_scalar(&mut buf, 0, valid, K::Encoded::one())?;
                // Ascending: zero bits go first; descending: one bits.
                let mode = match order {
                    SortOrder::Ascending => CmpMode::Eq,
                    SortOrder::Descending => CmpMode::Ne,
                };
                vc.vcompare_scalar(&mut mk, &buf, 0, valid, mode, K::Encoded::zero(), 0)?;
                vc.copy_out(mask, off, &mk, 0, valid, &[])?;
            }
            vc.free_local(buf)?;
            vc.free_local(mk)?;
        }
        Ok(())
    })
}

/// Post-processing kernel: decode keys back into the value domain.
fn decode_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    keys: &GlobalTensor<K::Encoded>,
    values: &GlobalTensor<K>,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(spec, K::SIZE + std::mem::size_of::<K::Encoded>(), PIECE_CAP);
    let spans = pieces(piece, keys.len());
    launch(spec, gm, blocks, "RadixDecode", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut out = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut enc, 0, keys, off, valid, &[])?;
                vc.vradix_decode::<K>(&mut out, &enc, 0, valid)?;
                vc.copy_out(values, off, &out, 0, valid, &[])?;
            }
            vc.free_local(enc)?;
            vc.free_local(out)?;
        }
        Ok(())
    })
}

/// Copies the final index permutation into the caller-visible tensor.
fn copy_indices(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    src: &GlobalTensor<u32>,
    dst: &GlobalTensor<u32>,
    reports: &mut Vec<KernelReport>,
) -> SimResult<()> {
    let piece = crate::ub_piece(spec, 4, PIECE_CAP);
    let spans = pieces(piece, src.len());
    let r = launch(spec, gm, blocks, "IndexCopy", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut buf = vc.alloc_local::<u32>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut buf, 0, src, off, valid, &[])?;
                vc.copy_out(dst, off, &buf, 0, valid, &[])?;
            }
            vc.free_local(buf)?;
        }
        Ok(())
    })?;
    reports.push(r);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn sorts_random_u16() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u16> = (0..3000).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 2, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
        // Indices are a valid argsort.
        let idx = run.indices.to_vec();
        let by_idx: Vec<u16> = idx.iter().map(|&i| data[i as usize]).collect();
        assert_eq!(by_idx, expect);
    }

    #[test]
    fn sorts_random_i16_with_negatives() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<i16> = (0..2000).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 2, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn sorts_f16_including_specials() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut data: Vec<F16> = (0..1500)
            .map(|_| F16::from_f32(rng.gen_range(-100.0f32..100.0)))
            .collect();
        data.push(F16::NEG_INFINITY);
        data.push(F16::INFINITY);
        data.push(F16::NEG_ZERO);
        data.push(F16::ZERO);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 2, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_by(F16::total_cmp);
        let got = run.values.to_vec();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "f16 sort must follow the IEEE total order bit-exactly"
        );
    }

    #[test]
    fn descending_order() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let data: Vec<u16> = (0..1000).map(|_| rng.gen_range(0..500)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 2, SortOrder::Descending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn sort_is_stable_in_indices() {
        let (spec, gm) = setup();
        // All-equal keys: a stable sort keeps indices in order.
        let data = vec![42u16; 600];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 2, SortOrder::Ascending).unwrap();
        assert_eq!(run.indices.to_vec(), (0..600u32).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_inputs() {
        let (spec, gm) = setup();
        for n in [0usize, 1, 2, 3] {
            let data: Vec<u16> = (0..n as u16).rev().collect();
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let run = radix_sort(&spec, &gm, &x, 1, SortOrder::Ascending).unwrap();
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(run.values.to_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn int8_sort_uses_half_the_passes() {
        // The paper's future-work claim: 8-bit keys need 8 splits, so
        // low-precision sorting is ~2x cheaper.
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<i8> = (0..1500).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 2, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
        assert_eq!(run.report.sync_rounds, 8, "one MCScan barrier per bit");
    }

    #[test]
    fn u8_mask_like_values_sort() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..900).map(|i| ((i * 31) % 251) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 2, SortOrder::Descending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn pass_count_matches_paper() {
        // fp16 sort = 16 split passes = 16 scans (plus encode/decode).
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 1, SortOrder::Ascending).unwrap();
        // Each of the 16 MCScans contributes exactly one SyncAll.
        assert_eq!(run.report.sync_rounds, 16);
    }
}
