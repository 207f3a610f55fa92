//! LSB **radix sort** — the paper's §5 "Radix sort" — with one fused
//! launch per radix digit.
//!
//! The paper loops over the bits of the (order-preserving encoded) keys,
//! least significant first, and performs one stable split per bit with
//! the mask "bit is 0" (ascending) or "bit is 1" (descending), three
//! launches each: a RadixSingle kernel writes the mask to global memory,
//! an exclusive scan turns it into offsets, and a scatter reads both
//! back. Here the keys are sorted an `r`-bit **digit** at a time, as in
//! the onesweep sort of Adinets & Merrill, and each digit is **one
//! `RadixSplit` launch**: a stable `2^r`-way split on the chained
//! look-back of [`scan::lookback`].
//!
//! * each vector lane owns a contiguous run of pieces; for each piece it
//!   isolates the digit in UB (`Copy` + `And`), and per bucket `d`
//!   derives the mask `digit == d` (`Compare`) and `GatherMask`es the
//!   bucket's keys and indices into one packed piece-sized buffer per
//!   tensor, bucket after bucket;
//! * the lane publishes its per-bucket counts (all buckets but the last)
//!   as one look-back row and resolves the exclusive per-bucket offsets
//!   `prev` of every earlier lane by multi-hop look-back, probing its
//!   predecessors before the local work as ScanC does;
//! * it stores bucket `d` of each piece at `start[d] + prev[d] +
//!   running[d]`, where `start[d]` counts the keys of all earlier
//!   buckets; the last bucket's offset follows from the piece's offset.
//!
//! The bucket counts do not depend on the key order, so the
//! `RadixEncode` pre-pass counts them for every digit at once: each
//! encode lane writes one histogram entry per digit and bucket but the
//! last, and every pass reduces its digit's rows on the device into
//! `start`. No mask or offset array reaches global memory and the host
//! reads nothing back between passes. The first pass materializes the
//! indices (`CreateVecIndex`) instead of reading them, and the last pass
//! decodes the keys into the output values and writes the final
//! indices, so a sort by `b` key bits is `1 + ⌈b / r⌉` launches.
//!
//! [`digit_bits`] picks `r` from `n`, the key bits and the chip: 4-bit
//! digits (an fp16 sort in 1 + 4 launches) where launches dominate,
//! narrowing to 2 bits (1 + 8) as the per-piece work of a wider digit
//! takes over. A sort's output does not depend on `r`: every digit pass
//! is a stable split.
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

/// The widest radix digit [`digit_bits`] considers: a 5-bit digit
/// still takes 4 passes for 16-bit keys, at twice the work per pass.
const MAX_DIGIT_BITS: u32 = 4;

/// Stable radix sort of `x` (values + original indices): the encode
/// pre-pass, then one fused split per radix digit.
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
/// encode pre-pass plus one `RadixSplit` launch per digit of
/// [`digit_bits`] bits, the last digit taking what is left.
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
    let digits = digits(bits, digit_bits::<K>(spec, n, bits));
    let rows: usize = digits.iter().map(|d| d.rows()).sum();
    let hist = GlobalTensor::<i32>::new(gm, rows * encode_lanes(spec))?;
    let mut reports = Vec::with_capacity(1 + digits.len());
    reports.push(encode_kernel::<K>(
        spec, gm, x, &keys[0], &hist, &digits, order,
    )?);
    // Pass `p` reads buffer `p % 2` and writes the other one; the first
    // pass creates the indices, the last writes the outputs.
    let mut row = 0;
    for (p, &digit) in digits.iter().enumerate() {
        let (src, dst) = (p % 2, (p + 1) % 2);
        let out = if p + 1 == digits.len() {
            PassOut::Sorted(&values, &indices)
        } else {
            PassOut::Next(&keys[dst], &idx[dst])
        };
        let idx_in = (p > 0).then_some(&idx[src]);
        reports.push(radix_split::<K>(
            spec, gm, &keys[src], idx_in, &hist, row, digit, order, out,
        )?);
        row += digit.rows();
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

/// Key bits `r` per `RadixSplit` pass when sorting `n` keys of type `K`
/// by their low `bits` bits on `spec`: the `r ≤ 4` that minimizes the
/// modelled cycles of the passes,
///
/// `Σ_digits launch_cycles + L · piece_cycles(2^width)`,
///
/// with `L = ⌈pieces / vector lanes⌉` the pieces a lane works through
/// and `piece_cycles` the digit-dependent work on one piece. Wider
/// digits mean fewer launches but more vector instructions and store
/// DMAs per piece, so `r` falls as `n` grows: small sorts are
/// launch-bound, large ones work-bound.
pub fn digit_bits<K>(spec: &ChipSpec, n: usize, bits: u32) -> u32
where
    K: RadixKey + Element,
    K::Encoded: Element,
{
    let layout = PassLayout::for_len::<K>(spec, n);
    let per_lane = layout.spans.len().div_ceil(encode_lanes(spec)).max(1) as u64;
    let cost = |r: u32| -> u64 {
        digits(bits, r)
            .iter()
            .map(|d| spec.launch_cycles + per_lane * piece_cycles::<K>(spec, layout.piece, *d))
            .sum()
    };
    (1..=MAX_DIGIT_BITS.min(bits.max(1)))
        .min_by_key(|&r| cost(r))
        .expect("at least one candidate digit width")
}

/// Modelled cycles one piece of `piece` keys costs for `digit`, counting
/// the per-digit instructions: the encode launch's histogram
/// (`Copy`, `And`, and a `Compare` plus popcount `GatherMask` per
/// counted bucket) and the split pass's `Copy`, `And`, `Compare` and
/// two `GatherMask`s per bucket, and two store DMAs per bucket.
fn piece_cycles<K>(spec: &ChipSpec, piece: usize, digit: Digit) -> u64
where
    K: RadixKey + Element,
    K::Encoded: Element,
{
    let e = std::mem::size_of::<K::Encoded>();
    let d = digit.buckets();
    // A gather reads the whole piece and writes about `piece / d`.
    let gather = |elem: usize| spec.cost_vector_reduce((piece + piece / d) * elem);
    let isolate = 2 * spec.cost_vector_op(piece * e);
    let compare = spec.cost_vector_op(piece * e);
    let encode = isolate + digit.rows() as u64 * (compare + gather(1));
    let split = isolate + d as u64 * (compare + gather(e) + gather(4));
    let stores = 2 * d as u64 * u64::from(spec.mte_startup_cycles);
    encode + split + stores
}

/// One radix digit: the `width` key bits from `shift` up, sorted by one
/// `RadixSplit` pass into `2^width` buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digit {
    shift: u32,
    width: u32,
}

impl Digit {
    fn buckets(self) -> usize {
        1 << self.width
    }

    /// Histogram rows (and look-back row width): one count per bucket
    /// but the last, whose count is implied by the key count.
    fn rows(self) -> usize {
        self.buckets() - 1
    }

    /// The isolated digit of the keys that go to bucket `k`: buckets
    /// ascend with the digit for an ascending sort and descend with it
    /// for a descending one.
    fn bucket_key<E: Bits + Numeric>(self, k: usize, order: SortOrder) -> E {
        let value = match order {
            SortOrder::Ascending => k,
            SortOrder::Descending => self.buckets() - 1 - k,
        };
        self.place::<E>(value)
    }

    /// The mask selecting the digit's bits.
    fn mask<E: Bits + Numeric>(self) -> E {
        self.place::<E>(self.buckets() - 1)
    }

    /// `value << shift` in the key type.
    fn place<E: Bits + Numeric>(self, value: usize) -> E {
        (0..self.width)
            .filter(|b| value >> b & 1 == 1)
            .fold(E::zero(), |acc, b| acc.or(E::one().shl(self.shift + b)))
    }
}

/// The digits of a sort by `bits` key bits, least significant first:
/// `r` bits each, the last one narrower when `r` does not divide `bits`.
fn digits(bits: u32, r: u32) -> Vec<Digit> {
    (0..bits)
        .step_by(r as usize)
        .map(|shift| Digit {
            shift,
            width: r.min(bits - shift),
        })
        .collect()
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
/// and row.
fn encode_lanes(spec: &ChipSpec) -> usize {
    spec.total_vec_cores() as usize
}

/// Pre-processing kernel: order-preserving encode, plus the bucket
/// histogram of every digit (`hist[row · lanes + lane]`: how many of the
/// lane's keys go to the row's bucket, with a digit's rows consecutive
/// and the digits in pass order).
fn encode_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    keys: &GlobalTensor<K::Encoded>,
    hist: &GlobalTensor<i32>,
    digits: &[Digit],
    order: SortOrder,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let e = std::mem::size_of::<K::Encoded>();
    // Raw and encoded keys, digit scratch and two masks, plus a spare
    // byte per element that leaves room for the histogram column.
    let piece = crate::ub_piece(spec, K::SIZE + 2 * e + 3, PIECE_CAP);
    let spans = pieces(piece, x.len());
    let lanes = encode_lanes(spec);
    let rows: usize = digits.iter().map(|d| d.rows()).sum();
    launch(spec, gm, spec.ai_cores, "RadixEncode", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let lane = lane0 + v;
            let vc = &mut ctx.vecs[v];
            let mut raw = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut digit_buf = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut hit = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            let mut gathered = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            let mut counts = vec![(0i32, 0); rows];
            for &(off, valid) in spans.iter().skip(lane).step_by(lanes) {
                vc.copy_in(&mut raw, 0, x, off, valid, &[])?;
                vc.vradix_encode::<K>(&mut enc, &raw, 0, valid)?;
                vc.copy_out(keys, off, &enc, 0, valid, &[])?;
                let mut row = 0;
                for &digit in digits {
                    vc.copy_local(&mut digit_buf, 0, &enc, 0, valid)?;
                    vc.vand_scalar(&mut digit_buf, 0, valid, digit.mask())?;
                    for k in 0..digit.rows() {
                        let key = digit.bucket_key(k, order);
                        vc.vcompare_scalar(&mut hit, &digit_buf, 0, valid, CmpMode::Eq, key, 0)?;
                        // GatherMask of the mask by itself: its reported
                        // count is the mask's popcount.
                        let (c, done) = vc.gather_mask(&mut gathered, &hit, &hit, 0, valid)?;
                        let (count, ready) = &mut counts[row + k];
                        *count += c as i32;
                        *ready = vc.scalar_ops(1, &[done, *ready])?;
                    }
                    row += digit.rows();
                }
            }
            let mut column = vc.alloc_local::<i32>(ScratchpadKind::Ub, rows)?;
            for (r, &(count, ready)) in counts.iter().enumerate() {
                vc.insert(&mut column, r, count, ready)?;
                vc.copy_out(hist, r * lanes + lane, &column, r, 1, &[])?;
            }
            vc.free_local(column)?;
            vc.free_local(raw)?;
            vc.free_local(enc)?;
            vc.free_local(digit_buf)?;
            vc.free_local(hit)?;
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
    /// off — capped at the pieces whose packed buckets fit in UB next to
    /// one piece of working buffers.
    fn for_len<K>(spec: &ChipSpec, n: usize) -> Self
    where
        K: RadixKey + Element,
        K::Encoded: Element,
    {
        let e = std::mem::size_of::<K::Encoded>();
        // Keys, digit scratch, decoded keys, indices and one mask.
        let working = 2 * e + K::SIZE + 4 + 1;
        // The piece's keys and indices, packed bucket by bucket.
        let resident = e + 4;
        let piece = crate::ub_piece(spec, working + MIN_RESIDENT_PIECES * resident, PIECE_CAP);
        // Histogram rows, look-back rows and slack, at the widest digit.
        let rows = (1 << MAX_DIGIT_BITS) - 1;
        let reserve = 4 * rows * (encode_lanes(spec) + max_window(spec) + 2) + 256;
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

/// One piece's keys and indices, packed bucket by bucket and resident
/// in UB until the lane's offsets resolve.
struct Packed<E: Element> {
    off: usize,
    valid: usize,
    /// Keys per bucket.
    counts: Vec<usize>,
    /// Keys of the lane's earlier pieces in each bucket but the last.
    before: Vec<i32>,
    keys: LocalTensor<E>,
    idx: LocalTensor<u32>,
}

/// The `RadixSplit` kernel: one stable multi-way split of `keys` (and
/// their indices; `None` creates them) by `digit`, whose histogram rows
/// start at `row`, fused into one launch on the chained look-back.
#[allow(clippy::too_many_arguments)]
fn radix_split<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    keys: &GlobalTensor<K::Encoded>,
    idx: Option<&GlobalTensor<u32>>,
    hist: &GlobalTensor<i32>,
    row: usize,
    digit: Digit,
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
    let (buckets, rows) = (digit.buckets(), digit.rows());
    let lookback = Lookback::<i32>::new(gm, nlanes, rows, max_window(spec), spec.flag_id_limit)?;
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

            // Bucket starts: this digit's histogram rows, reduced off the
            // chain; `starts[k]` counts the keys of buckets before `k`.
            let mut counts_in = vc.alloc_local::<i32>(ScratchpadKind::Ub, rows * hist_lanes)?;
            vc.copy_in(
                &mut counts_in,
                0,
                hist,
                row * hist_lanes,
                rows * hist_lanes,
                &[],
            )?;
            let mut starts = vec![(0i32, 0); buckets];
            for k in 0..rows {
                let (c, ready) = vc.reduce_sum(&counts_in, k * hist_lanes, hist_lanes)?;
                let (below, below_ready) = starts[k];
                starts[k + 1] = (below + c, vc.scalar_ops(1, &[below_ready, ready])?);
            }

            // Split every piece into resident packed buckets; the lane's
            // per-bucket counts are the look-back aggregate row.
            let mut kin = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut iin = vc.alloc_local::<u32>(ScratchpadKind::Ub, piece)?;
            let mut digit_buf = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut hit = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            let mut packed = Vec::with_capacity(spans.len());
            let mut partial = vec![0i32; rows];
            let mut partial_ready = 0;
            for &(off, valid) in spans {
                vc.copy_in(&mut kin, 0, keys, off, valid, &[])?;
                match idx {
                    Some(src) => vc.copy_in(&mut iin, 0, src, off, valid, &[])?,
                    None => vc.viota(&mut iin, 0, valid, off as u32)?,
                };
                vc.copy_local(&mut digit_buf, 0, &kin, 0, valid)?;
                vc.vand_scalar(&mut digit_buf, 0, valid, digit.mask())?;
                let mut p = Packed {
                    off,
                    valid,
                    counts: Vec::with_capacity(buckets),
                    before: partial.clone(),
                    keys: vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, valid)?,
                    idx: vc.alloc_local::<u32>(ScratchpadKind::Ub, valid)?,
                };
                let mut at = 0;
                for k in 0..buckets {
                    let key = digit.bucket_key(k, order);
                    vc.vcompare_scalar(&mut hit, &digit_buf, 0, valid, CmpMode::Eq, key, 0)?;
                    let (c, counted) = vc.gather_mask_at(&mut p.keys, at, &kin, &hit, 0, valid)?;
                    vc.gather_mask_at(&mut p.idx, at, &iin, &hit, 0, valid)?;
                    // The last bucket's count is not published.
                    if let Some(count) = partial.get_mut(k) {
                        *count += c as i32;
                        partial_ready = vc.scalar_ops(1, &[counted, partial_ready])?;
                    }
                    p.counts.push(c);
                    at += c;
                }
                packed.push(p);
            }

            lookback.publish_partial(vc, grid, &mut lane_lb, &partial, partial_ready)?;
            let (prev, prev_ready) =
                lookback.resolve(vc, grid, &mut lane_lb, &partial, partial_ready)?;

            // Store every bucket of every piece after all keys of earlier
            // buckets and all earlier keys of its own bucket. The last
            // bucket's earlier keys are the piece's offset minus the
            // earlier keys of every other bucket.
            let mut decoded = match out {
                PassOut::Sorted(..) => Some(vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?),
                PassOut::Next(..) => None,
            };
            let idx_out = match &out {
                PassOut::Next(_, idx_out) | PassOut::Sorted(_, idx_out) => *idx_out,
            };
            for p in &packed {
                if let Some(dec) = decoded.as_mut() {
                    vc.vradix_decode::<K>(dec, &p.keys, 0, p.valid)?;
                }
                let earlier: Vec<i32> = (0..rows).map(|k| prev[k] + p.before[k]).collect();
                let mut at = 0;
                for (k, &len) in p.counts.iter().enumerate() {
                    let (start, start_ready) = starts[k];
                    let dst = if k < rows {
                        start + earlier[k]
                    } else {
                        start + p.off as i32 - earlier.iter().sum::<i32>()
                    } as usize;
                    let ready = prev_ready.max(start_ready);
                    if len > 0 {
                        match (&out, &decoded) {
                            (PassOut::Next(keys_out, _), _) => {
                                vc.copy_out(keys_out, dst, &p.keys, at, len, &[ready])?
                            }
                            (PassOut::Sorted(values, _), Some(dec)) => {
                                vc.copy_out(values, dst, dec, at, len, &[ready])?
                            }
                            (PassOut::Sorted(..), None) => {
                                unreachable!("the last pass allocates its decode buffer")
                            }
                        };
                        vc.copy_out(idx_out, dst, &p.idx, at, len, &[ready])?;
                    }
                    at += len;
                }
            }

            if let Some(dec) = decoded {
                vc.free_local(dec)?;
            }
            for p in packed {
                vc.free_local(p.keys)?;
                vc.free_local(p.idx)?;
            }
            lane_lb.free(vc)?;
            vc.free_local(hit)?;
            vc.free_local(digit_buf)?;
            vc.free_local(iin)?;
            vc.free_local(kin)?;
            vc.free_local(counts_in)?;
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
        // The paper's future-work claim: 8-bit keys need half the
        // splits of 16-bit ones, so low-precision sorting is ~2x
        // cheaper. The tiny chip's size rule picks 2-bit digits here.
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<i8> = (0..1500).map(|_| rng.gen()).collect();
        assert_eq!(digit_bits::<i8>(&spec, data.len(), 8), 2);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (run, passes) = launches_named(&gm, "RadixSplit", || {
            radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap()
        });
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
        assert_eq!(passes, 4, "one fused split launch per 2-bit digit");
        assert_eq!(run.report.sync_rounds, 0, "no barrier anywhere");
        let wide: Vec<u16> = data.iter().map(|&v| v as u16).collect();
        let x = GlobalTensor::from_slice(&gm, &wide).unwrap();
        let (_, passes16) = launches_named(&gm, "RadixSplit", || {
            radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap()
        });
        assert_eq!(passes16, 2 * passes, "16-bit keys take twice the passes");
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
        // The paper's fp16 sort is 16 one-bit splits (its 16 scans);
        // with r-bit digits it is ⌈16 / r⌉ RadixSplit launches — 8 at
        // the tiny chip's r = 2 — plus the encode launch, nothing else.
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        assert_eq!(digit_bits::<F16>(&spec, data.len(), 16), 2);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (run, profile) = prof::with_profiling(&gm, || {
            radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap()
        });
        let names: Vec<&str> = profile.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names[0], "RadixEncode");
        assert_eq!(&names[1..], &["RadixSplit"; 8]);
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
        // A 2-bit digit, then the odd bit left over as a 2-bucket pass.
        assert_eq!(digit_bits::<u16>(&spec, data.len(), 3), 2);
        assert_eq!(
            digits(3, 2),
            [Digit { shift: 0, width: 2 }, Digit { shift: 2, width: 1 }]
        );
        assert_eq!(passes, 2);
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
        // for fp16); no mask or offset array reaches global memory. At
        // 64K keys the 910B4's size rule sorts 4-bit digits: 4 passes.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(1 << 28));
        let n = 65_536;
        assert_eq!(digit_bits::<F16>(&spec, n, 16), 4);
        let data: Vec<F16> = (0..n).map(|i| F16::from_f32((i % 977) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, SortOrder::Ascending).unwrap();
        let per_elem = (run.report.bytes_read + run.report.bytes_written) as f64 / n as f64;
        assert!(per_elem < 4.0 * 12.0 + 8.0, "{per_elem} B/elem");
    }

    #[test]
    fn digits_cover_the_key_bits_lsb_first() {
        assert_eq!(digits(16, 4).len(), 4);
        let odd = digits(16, 3);
        assert_eq!(odd.len(), 6);
        assert_eq!(
            odd[5],
            Digit {
                shift: 15,
                width: 1
            }
        );
        assert_eq!(digits(1, 2), [Digit { shift: 0, width: 1 }]);
        let d = Digit { shift: 4, width: 2 };
        assert_eq!(d.mask::<u16>(), 0b11_0000);
        assert_eq!(d.bucket_key::<u16>(1, SortOrder::Ascending), 0b01_0000);
        assert_eq!(d.bucket_key::<u16>(1, SortOrder::Descending), 0b10_0000);
    }

    #[test]
    fn digits_narrow_as_sorts_grow() {
        // Launch-bound small sorts take the widest digit, work-bound
        // large ones narrower digits; a digit never exceeds the bits
        // sorted.
        let spec = ChipSpec::ascend_910b4();
        let r: Vec<u32> = [1 << 10, 1 << 16, 1 << 18, 1 << 20, 1 << 24]
            .iter()
            .map(|&n| digit_bits::<F16>(&spec, n, 16))
            .collect();
        assert_eq!(r, [4, 4, 3, 2, 2]);
        assert_eq!(digit_bits::<F16>(&spec, 1 << 10, 3), 3);
        assert_eq!(digit_bits::<u8>(&spec, 1 << 10, 1), 1);
    }
}
