//! LSB **radix sort** — the paper's §5 "Radix sort" — with one fused
//! launch per bit plane.
//!
//! The sort loops over the bits of the (order-preserving encoded) keys,
//! least significant first, and performs one stable split per bit with
//! the mask "bit is 0" (ascending) or "bit is 1" (descending). The
//! paper's split takes three launches per bit: a RadixSingle kernel
//! writes the mask to global memory, an exclusive scan turns it into
//! offsets, and a scatter reads both back. Here each bit is **one
//! `RadixSplit` launch** on the chained look-back of
//! [`scan::lookback`]:
//!
//! * each vector lane owns a contiguous run of pieces; for each piece it
//!   derives the bit mask in UB (`And` + `Compare`) and `GatherMask`es
//!   the first-going and second-going keys and indices into resident UB
//!   buffers;
//! * the lane publishes its first-going count and resolves its exclusive
//!   offset `prev` by multi-hop look-back, probing its predecessors
//!   before the local work as ScanC does;
//! * it stores each piece's first-going half at `prev + running` and its
//!   second-going half at `n_first + off − (prev + running)`.
//!
//! `n_first`, the number of first-going keys, does not depend on the
//! key order, so the `RadixEncode` pre-pass counts it for every bit at
//! once: each encode lane writes one histogram entry per bit, and every
//! pass reduces its bit's row on the device. No mask or offset array
//! reaches global memory and the host reads nothing back between
//! passes. The first pass materializes the indices (`CreateVecIndex`)
//! instead of reading them, and the last pass decodes the keys into the
//! output values and writes the final indices, so an fp16 sort is
//! `1 + 16` launches.
//!
//! Floats are supported through the encode/decode transforms (invert
//! the MSB of non-negatives, all bits of negatives — Knuth §5.2.5 ex.
//! 8–9 / the CM-2 paper the authors cite): an unsigned radix sort of the
//! encoded keys orders the originals correctly, including -0.0 < +0.0
//! and NaNs above +∞.
//!
//! Output indices are permuted alongside the keys on every pass, so the
//! result matches the PyTorch `sort()` API (values and `argsort`).

use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::vecops::Bits;
use ascendc::{
    launch, ChipSpec, CmpMode, GlobalTensor, LocalTensor, ScratchpadKind, SimError, SimResult,
};
use dtypes::{Element, Numeric, RadixKey};
use scan::lookback::{max_window, Lookback};
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

/// Upper bound on elements per piece in the encode and split kernels.
const PIECE_CAP: usize = 2048;

/// A split lane keeps at least this many pieces resident in UB, so the
/// piece shrinks on chips whose UB is small.
const MIN_RESIDENT_PIECES: usize = 4;

/// Stable radix sort of `x` (values + original indices): the encode
/// pre-pass, then one fused split per bit plane.
pub fn radix_sort<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    order: SortOrder,
) -> SimResult<SortRun<K>>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    radix_sort_bits(spec, gm, x, order, K::BITS)
}

/// Stable sort of `x` by the low `bits` bits of its encoded keys
/// (`1 ≤ bits ≤ K::BITS`; [`radix_sort`] is `bits = K::BITS`): the
/// encode pre-pass plus `bits` `RadixSplit` launches.
pub fn radix_sort_bits<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    order: SortOrder,
    bits: u32,
) -> SimResult<SortRun<K>>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    if !(1..=K::BITS).contains(&bits) {
        return Err(SimError::InvalidArgument(format!(
            "radix sort: {bits} key bits requested, keys have 1..={}",
            K::BITS
        )));
    }
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

    let keys = [
        GlobalTensor::<K::Encoded>::new(gm, n)?,
        GlobalTensor::<K::Encoded>::new(gm, n)?,
    ];
    let idx = [
        GlobalTensor::<u32>::new(gm, n)?,
        GlobalTensor::<u32>::new(gm, n)?,
    ];
    let hist = GlobalTensor::<i32>::new(gm, bits as usize * encode_lanes(spec))?;
    let mut reports = Vec::with_capacity(1 + bits as usize);
    reports.push(encode_kernel::<K>(
        spec, gm, x, &keys[0], &hist, bits, order,
    )?);
    // Pass `b` reads buffer `b % 2` and writes the other one; the first
    // pass creates the indices, the last writes the outputs.
    for bit in 0..bits {
        let (src, dst) = (bit as usize % 2, (bit as usize + 1) % 2);
        let out = if bit + 1 == bits {
            PassOut::Sorted(&values, &indices)
        } else {
            PassOut::Next(&keys[dst], &idx[dst])
        };
        let idx_in = (bit > 0).then_some(&idx[src]);
        reports.push(radix_split::<K>(
            spec, gm, &keys[src], idx_in, &hist, bit, order, out,
        )?);
    }

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

/// Vector lanes of the encode launch — one histogram entry per lane
/// and bit.
fn encode_lanes(spec: &ChipSpec) -> usize {
    spec.total_vec_cores() as usize
}

/// The mask comparison against `0` of a key's isolated bit that selects
/// the keys going first: zero bits ascending, one bits descending.
fn first_mode(order: SortOrder) -> CmpMode {
    match order {
        SortOrder::Ascending => CmpMode::Eq,
        SortOrder::Descending => CmpMode::Ne,
    }
}

/// Pre-processing kernel: order-preserving encode, plus the
/// first-going-key histogram of bits `0..bits` (`hist[b · lanes + lane]`:
/// how many of the lane's keys go first in the split by bit `b`).
fn encode_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    keys: &GlobalTensor<K::Encoded>,
    hist: &GlobalTensor<i32>,
    bits: u32,
    order: SortOrder,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let e = std::mem::size_of::<K::Encoded>();
    // Raw and encoded keys, bit scratch and two masks, plus a spare byte
    // per element that leaves room for the histogram column.
    let piece = crate::ub_piece(spec, K::SIZE + 2 * e + 3, PIECE_CAP);
    let spans = pieces(piece, x.len());
    let lanes = encode_lanes(spec);
    let mode = first_mode(order);
    launch(spec, gm, spec.ai_cores, "RadixEncode", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let lane = lane0 + v;
            let vc = &mut ctx.vecs[v];
            let mut raw = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut bit_buf = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut first = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            let mut gathered = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            let mut counts = vec![(0i32, 0); bits as usize];
            for &(off, valid) in spans.iter().skip(lane).step_by(lanes) {
                vc.copy_in(&mut raw, 0, x, off, valid, &[])?;
                vc.vradix_encode::<K>(&mut enc, &raw, 0, valid)?;
                vc.copy_out(keys, off, &enc, 0, valid, &[])?;
                for (b, (count, ready)) in counts.iter_mut().enumerate() {
                    vc.copy_local(&mut bit_buf, 0, &enc, 0, valid)?;
                    vc.vand_scalar(&mut bit_buf, 0, valid, K::Encoded::one().shl(b as u32))?;
                    vc.vcompare_scalar(
                        &mut first,
                        &bit_buf,
                        0,
                        valid,
                        mode,
                        K::Encoded::zero(),
                        0,
                    )?;
                    // GatherMask of the mask by itself: its reported
                    // count is the mask's popcount.
                    let (c, done) = vc.gather_mask(&mut gathered, &first, &first, 0, valid)?;
                    *count += c as i32;
                    *ready = vc.scalar_ops(1, &[done, *ready])?;
                }
            }
            let mut column = vc.alloc_local::<i32>(ScratchpadKind::Ub, bits as usize)?;
            for (b, &(count, ready)) in counts.iter().enumerate() {
                vc.insert(&mut column, b, count, ready)?;
                vc.copy_out(hist, b * lanes + lane, &column, b, 1, &[])?;
            }
            vc.free_local(column)?;
            vc.free_local(raw)?;
            vc.free_local(enc)?;
            vc.free_local(bit_buf)?;
            vc.free_local(first)?;
            vc.free_local(gathered)?;
        }
        Ok(())
    })
}

/// Where a split pass stores its output.
enum PassOut<'a, K: RadixKey + Element>
where
    K::Encoded: Element,
{
    /// Encoded keys and indices for the next pass.
    Next(&'a GlobalTensor<K::Encoded>, &'a GlobalTensor<u32>),
    /// The last pass: decoded values and the final `argsort`.
    Sorted(&'a GlobalTensor<K>, &'a GlobalTensor<u32>),
}

/// A split pass's lane layout for `n` keys: lane `L` owns pieces
/// `[L · per_lane, (L + 1) · per_lane)`.
struct PassLayout {
    piece: usize,
    per_lane: usize,
    spans: Vec<(usize, usize)>,
}

impl PassLayout {
    /// Pieces per lane from `n` and the chip, like
    /// `ScanCConfig::for_len`: at least `⌈pieces / lanes⌉`, so the lanes
    /// fit one wave of the chip's vector cores, and at least
    /// `⌈√(pieces / w)⌉` for window `w` — a look-back hop costs about as
    /// much as a piece of local work and a chain of `L` lanes pays
    /// `⌈L / w⌉` hops, so that is where fewer, longer lanes stop paying
    /// off — capped at the pieces whose halves fit in UB next to one
    /// piece of working buffers.
    fn for_len<K>(spec: &ChipSpec, n: usize) -> Self
    where
        K: RadixKey + Element,
        K::Encoded: Element,
    {
        let e = std::mem::size_of::<K::Encoded>();
        // Keys, bit scratch, decoded keys, indices and two masks.
        let working = 2 * e + K::SIZE + 4 + 2;
        // Both halves of the keys and of the indices.
        let resident = 2 * (e + 4);
        let piece = crate::ub_piece(spec, working + MIN_RESIDENT_PIECES * resident, PIECE_CAP);
        // Histogram row, look-back buffers and slack.
        let reserve = 4 * encode_lanes(spec) + 256;
        let cap = spec.ub_capacity.saturating_sub(reserve + piece * working) / (piece * resident);
        let spans = pieces(piece, n);
        let one_wave = spans.len().div_ceil(spec.total_vec_cores() as usize);
        let balanced = (spans.len() as f64 / max_window(spec) as f64).sqrt().ceil() as usize;
        PassLayout {
            piece,
            per_lane: one_wave.max(balanced).clamp(1, cap.max(1)),
            spans,
        }
    }

    fn lanes(&self) -> usize {
        self.spans.len().div_ceil(self.per_lane).max(1)
    }
}

/// The first-going and second-going halves of one piece, resident in UB
/// until the lane's offset resolves.
struct Halves<E: Element> {
    off: usize,
    valid: usize,
    /// First-going keys of the lane's earlier pieces.
    before: i32,
    first: usize,
    keys: [LocalTensor<E>; 2],
    idx: [LocalTensor<u32>; 2],
}

/// The `RadixSplit` kernel: one stable split of `keys` (and their
/// indices; `None` creates them) by bit `bit`, fused into one launch on
/// the chained look-back.
#[allow(clippy::too_many_arguments)]
fn radix_split<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    keys: &GlobalTensor<K::Encoded>,
    idx: Option<&GlobalTensor<u32>>,
    hist: &GlobalTensor<i32>,
    bit: u32,
    order: SortOrder,
    out: PassOut<'_, K>,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let layout = PassLayout::for_len::<K>(spec, keys.len());
    let piece = layout.piece;
    let vpc = spec.vec_per_core as usize;
    let nlanes = layout.lanes();
    let blocks = nlanes.div_ceil(vpc) as u32;
    let hist_lanes = encode_lanes(spec);
    let lookback = Lookback::<i32>::new(gm, nlanes, max_window(spec), spec.flag_id_limit)?;
    let mode = first_mode(order);
    let bit_mask = K::Encoded::one().shl(bit);
    launch(spec, gm, blocks, "RadixSplit", |ctx| {
        let block = ctx.block_idx as usize;
        let phase = ctx.span_begin("SplitLookback");
        let grid = ctx.grid();
        for v in 0..vpc {
            let lane = block * vpc + v;
            let p0 = lane * layout.per_lane;
            if p0 >= layout.spans.len() {
                continue;
            }
            let spans = &layout.spans[p0..(p0 + layout.per_lane).min(layout.spans.len())];
            let vc = &mut ctx.vecs[v];
            let mut lane_lb = lookback.probe(vc, grid, lane)?;

            // n_first: this bit's histogram row, reduced off the chain.
            let mut row = vc.alloc_local::<i32>(ScratchpadKind::Ub, hist_lanes)?;
            vc.copy_in(
                &mut row,
                0,
                hist,
                bit as usize * hist_lanes,
                hist_lanes,
                &[],
            )?;
            let (n_first, n_first_ready) = vc.reduce_sum(&row, 0, hist_lanes)?;

            // Split every piece into resident halves; the lane's
            // first-going count is the look-back aggregate.
            let mut kin = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut iin = vc.alloc_local::<u32>(ScratchpadKind::Ub, piece)?;
            let mut bit_buf = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut masks = [
                vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?,
                vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?,
            ];
            let mut halves = Vec::with_capacity(spans.len());
            let mut partial = 0i32;
            let mut partial_ready = 0;
            for &(off, valid) in spans {
                vc.copy_in(&mut kin, 0, keys, off, valid, &[])?;
                match idx {
                    Some(src) => vc.copy_in(&mut iin, 0, src, off, valid, &[])?,
                    None => vc.viota(&mut iin, 0, valid, off as u32)?,
                };
                vc.copy_local(&mut bit_buf, 0, &kin, 0, valid)?;
                vc.vand_scalar(&mut bit_buf, 0, valid, bit_mask)?;
                let [first_mask, second_mask] = &mut masks;
                vc.vcompare_scalar(first_mask, &bit_buf, 0, valid, mode, K::Encoded::zero(), 0)?;
                vc.vcompare_scalar(second_mask, first_mask, 0, valid, CmpMode::Eq, 0u8, 0)?;
                let mut h = Halves {
                    off,
                    valid,
                    before: partial,
                    first: 0,
                    keys: [
                        vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, valid)?,
                        vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, valid)?,
                    ],
                    idx: [
                        vc.alloc_local::<u32>(ScratchpadKind::Ub, valid)?,
                        vc.alloc_local::<u32>(ScratchpadKind::Ub, valid)?,
                    ],
                };
                let (c, counted) = vc.gather_mask(&mut h.keys[0], &kin, &masks[0], 0, valid)?;
                vc.gather_mask(&mut h.idx[0], &iin, &masks[0], 0, valid)?;
                vc.gather_mask(&mut h.keys[1], &kin, &masks[1], 0, valid)?;
                vc.gather_mask(&mut h.idx[1], &iin, &masks[1], 0, valid)?;
                h.first = c;
                partial += c as i32;
                partial_ready = vc.scalar_ops(1, &[counted, partial_ready])?;
                halves.push(h);
            }

            lookback.publish_partial(vc, grid, &mut lane_lb, partial, partial_ready)?;
            let (prev, prev_ready) =
                lookback.resolve(vc, grid, &mut lane_lb, partial, partial_ready)?;

            // Store both halves of every piece: first-going keys after
            // every earlier first-going key, second-going keys after all
            // `n_first` first-going ones.
            let mut decoded = match out {
                PassOut::Sorted(..) => Some(vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?),
                PassOut::Next(..) => None,
            };
            for h in &halves {
                let base = (prev + h.before) as usize;
                let places = [
                    (base, h.first, prev_ready),
                    (
                        n_first as usize + h.off - base,
                        h.valid - h.first,
                        prev_ready.max(n_first_ready),
                    ),
                ];
                for (side, &(dst, len, ready)) in places.iter().enumerate() {
                    if len == 0 {
                        continue;
                    }
                    let idx_out = match &out {
                        PassOut::Next(keys_out, idx_out) => {
                            vc.copy_out(keys_out, dst, &h.keys[side], 0, len, &[ready])?;
                            idx_out
                        }
                        PassOut::Sorted(values, idx_out) => {
                            let dec = decoded
                                .as_mut()
                                .expect("the last pass allocates its decode buffer");
                            vc.vradix_decode::<K>(dec, &h.keys[side], 0, len)?;
                            vc.copy_out(values, dst, dec, 0, len, &[ready])?;
                            idx_out
                        }
                    };
                    vc.copy_out(idx_out, dst, &h.idx[side], 0, len, &[ready])?;
                }
            }

            if let Some(dec) = decoded {
                vc.free_local(dec)?;
            }
            for h in halves {
                for t in h.keys {
                    vc.free_local(t)?;
                }
                for t in h.idx {
                    vc.free_local(t)?;
                }
            }
            lane_lb.free(vc)?;
            for m in masks {
                vc.free_local(m)?;
            }
            vc.free_local(bit_buf)?;
            vc.free_local(iin)?;
            vc.free_local(kin)?;
            vc.free_local(row)?;
        }
        ctx.span_end(phase);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_sim::prof;
    use dtypes::F16;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    /// How many launches named `name` the closure makes.
    fn launches_named<R>(gm: &GlobalMemory, name: &str, f: impl FnOnce() -> R) -> (R, usize) {
        let (r, profile) = prof::with_profiling(gm, f);
        let count = profile.kernels.iter().filter(|k| k.name == name).count();
        (r, count)
    }

    #[test]
    fn sorts_random_u16() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u16> = (0..3000).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, SortOrder::Descending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap();
        assert_eq!(run.indices.to_vec(), (0..600u32).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_inputs() {
        let (spec, gm) = setup();
        for n in [0usize, 1, 2, 3] {
            let data: Vec<u16> = (0..n as u16).rev().collect();
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let run = radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap();
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
        let (run, passes) = launches_named(&gm, "RadixSplit", || {
            radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap()
        });
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
        assert_eq!(passes, 8, "one fused split launch per bit");
        assert_eq!(run.report.sync_rounds, 0, "no barrier anywhere");
    }

    #[test]
    fn u8_mask_like_values_sort() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..900).map(|i| ((i * 31) % 251) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, SortOrder::Descending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn pass_count_matches_paper() {
        // fp16 sort = 16 split passes (the paper's 16 scans), each one
        // RadixSplit launch, plus the encode launch — nothing else.
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (run, profile) = prof::with_profiling(&gm, || {
            radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap()
        });
        let names: Vec<&str> = profile.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names[0], "RadixEncode");
        assert_eq!(&names[1..], &["RadixSplit"; 16]);
        assert_eq!(run.report.sync_rounds, 0);
    }

    #[test]
    fn partial_key_sort_orders_by_the_low_bits() {
        let (spec, gm) = setup();
        let data: Vec<u16> = (0..700).map(|i| ((i * 37) % 1000) as u16).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (run, passes) = launches_named(&gm, "RadixSplit", || {
            radix_sort_bits(&spec, &gm, &x, SortOrder::Ascending, 3).unwrap()
        });
        assert_eq!(passes, 3);
        let mut expect: Vec<u32> = (0..700).collect();
        expect.sort_by_key(|&i| data[i as usize] & 7);
        assert_eq!(run.indices.to_vec(), expect);
        for bits in [0, 17] {
            assert!(radix_sort_bits(&spec, &gm, &x, SortOrder::Ascending, bits).is_err());
        }
    }

    #[test]
    fn lanes_hold_several_pieces_and_span_waves() {
        // The tiny chip's 4 lanes per wave: a sort large enough for
        // multi-piece lanes spreads over more than one wave of blocks.
        let spec = ChipSpec::tiny();
        let layout = PassLayout::for_len::<u16>(&spec, 20_000);
        assert!(layout.per_lane > 1, "{}", layout.per_lane);
        assert!(layout.lanes() > spec.total_vec_cores() as usize);
        let (_, gm) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<u16> = (0..20_000).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, SortOrder::Descending).unwrap();
        let mut expect: Vec<u32> = (0..20_000).collect();
        expect.sort_by_key(|&i| std::cmp::Reverse(data[i as usize]));
        assert_eq!(run.indices.to_vec(), expect);
    }

    #[test]
    fn moves_keys_and_indices_once_per_pass() {
        // Per pass the keys and indices go in and out once (12 B/elem
        // for fp16); no mask or offset array reaches global memory.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(1 << 28));
        let n = 65_536;
        let data: Vec<F16> = (0..n).map(|i| F16::from_f32((i % 977) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap();
        let per_elem = (run.report.bytes_read + run.report.bytes_written) as f64 / n as f64;
        assert!(per_elem < 16.0 * 12.0 + 8.0, "{per_elem} B/elem");
    }
}
