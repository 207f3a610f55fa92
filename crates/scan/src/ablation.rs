//! Ablations of MCScan's design choice — the **partial recomputation**
//! strategy the paper highlights as novel (§2.1/§4.3).
//!
//! MCScan's phase 1 has the vector cores *recompute* block reductions
//! directly from the input while the cube cores produce tile-local
//! scans, so neither engine waits for the other. The classic strategies
//! it competes with are implemented here as drop-in variants:
//!
//! * [`McScanVariant::StridedTotals`] — instead of recomputing, the
//!   vector cores read the *last element of every `s`-row* of the cube's
//!   tile-local scans (those are the row totals). This halves the
//!   logical phase-1 read volume but (a) serializes the vector cores
//!   behind the cube output and (b) is a strided, line-granularity
//!   access pattern: each 2-byte element drags a whole GM line.
//! * [`McScanVariant::SsaFull`] — textbook Scan-Scan-Add: phase 1
//!   computes *complete* per-block scans (cube local scans + vector
//!   propagation), phase 2 broadcast-adds the scanned block totals.
//!   ≈ 6·N element accesses vs MCScan's 5·N.
//! * [`McScanVariant::Rss`] — Reduce-Scan-Scan: phase 1 only reduces
//!   blocks (vector), phase 2 performs the full local scan + offset.
//!   Same 5·N traffic as MCScan, but phase 1 leaves the cube idle and
//!   phase 2 re-serializes cube → vector per tile.
//!
//! The `figures ablation` experiment compares all four. In the model,
//! the recomputing MCScan beats SSA everywhere (less traffic) and stays
//! within ~10% of RSS, which moves the same ~10 bytes/element. Every
//! per-tile cube→vector hand-off is an explicit, *priced*
//! `CrossCoreSetFlag`/`CrossCoreWaitFlag` pair (`flag_set_cycles` on the
//! producer, `flag_wait_cycles` plus the observed skew on the consumer)
//! rather than a free timestamp edge — the cost §3.1 warns about ("each
//! data transfer between the AIC and AIV cores might be expensive") and
//! precisely what the paper's recomputation strategy avoids paying per
//! tile.

use crate::mcscan::{mcscan, McScanConfig, ScanKind};
use crate::triangular::ScanConstants;
use crate::util::{check_tile_dim, partition, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, TQue};
use dtypes::{CubeInput, Element, Numeric};
use std::sync::Arc;

/// Which multi-core scan strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McScanVariant {
    /// The paper's MCScan: vector cores recompute block reductions from
    /// the input, fully overlapped with the cube cores.
    Recompute,
    /// Block totals gathered from the cube output's row-total column
    /// (strided reads, serialized behind the cube).
    StridedTotals,
    /// Textbook Scan-Scan-Add: complete block scans in phase 1, then a
    /// broadcast add.
    SsaFull,
    /// Reduce-Scan-Scan: reduce-only phase 1, full scan in phase 2.
    Rss,
}

impl McScanVariant {
    /// All variants, for sweeps.
    pub const ALL: [McScanVariant; 4] = [
        McScanVariant::Recompute,
        McScanVariant::StridedTotals,
        McScanVariant::SsaFull,
        McScanVariant::Rss,
    ];

    /// Display label.
    pub const fn name(self) -> &'static str {
        match self {
            McScanVariant::Recompute => "MCScan(recompute)",
            McScanVariant::StridedTotals => "strided-totals",
            McScanVariant::SsaFull => "SSA(full)",
            McScanVariant::Rss => "RSS",
        }
    }
}

/// Runs the chosen multi-core scan strategy (inclusive scan only — the
/// ablation compares phase structures, not output conventions).
pub fn mcscan_variant<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: McScanConfig,
    variant: McScanVariant,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    if cfg.kind != ScanKind::Inclusive {
        return Err(SimError::InvalidArgument(
            "ablation variants implement inclusive scans only".into(),
        ));
    }
    match variant {
        McScanVariant::Recompute => mcscan::<T, M, O>(spec, gm, x, cfg),
        McScanVariant::StridedTotals => strided_totals::<T, M, O>(spec, gm, x, cfg),
        McScanVariant::SsaFull => ssa_full::<T, M, O>(spec, gm, x, cfg),
        McScanVariant::Rss => rss::<T, M, O>(spec, gm, x, cfg),
    }
}

fn check_cfg(spec: &ChipSpec, cfg: &McScanConfig, kernel: &str) -> SimResult<()> {
    check_tile_dim(kernel, cfg.s)?;
    if cfg.blocks == 0 || cfg.blocks > spec.ai_cores {
        return Err(SimError::InvalidArgument(format!(
            "{kernel}: blocks {} out of range 1..={}",
            cfg.blocks, spec.ai_cores
        )));
    }
    Ok(())
}

/// Shared phase-2 propagation (identical to MCScan's): per chunk, scan
/// the reduction array's prefix in UB and walk the tiles row by row.
#[allow(clippy::too_many_arguments)]
fn propagate_chunk<M, O>(
    vc: &mut ascendc::Core<'_>,
    w: &GlobalTensor<M>,
    y: &GlobalTensor<O>,
    r: &GlobalTensor<O>,
    chunk: usize,
    chunks_total: usize,
    tiles: &[(usize, usize)],
    s: usize,
    l: usize,
) -> SimResult<()>
where
    M: Numeric,
    O: Numeric,
{
    let mut r_ub = vc.alloc_local::<O>(ScratchpadKind::Ub, chunks_total)?;
    vc.copy_in(&mut r_ub, 0, r, 0, chunks_total, &[])?;
    let (mut partial, mut partial_ready) = if chunk == 0 {
        (O::zero(), 0)
    } else {
        vc.reduce_sum(&r_ub, 0, chunk)?
    };
    vc.free_local(r_ub)?;

    let ub = vc.spec().ub_capacity;
    let depth = if 2 * l * M::SIZE + l * O::SIZE + 64 <= ub {
        2
    } else {
        1
    };
    let mut q = TQue::<M>::new(vc, ScratchpadKind::Ub, depth, l)?;
    let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
    for &(off, valid) in tiles {
        let mut piece = q.alloc_tensor()?;
        vc.copy_in(&mut piece, 0, w, off, valid, &[])?;
        let cast_done = vc.vcast::<M, O>(&mut buf, &piece, 0, valid)?;
        q.free_tensor(piece, cast_done);
        for (row_off, row_len) in tile_spans(valid, s) {
            vc.vadds(&mut buf, row_off, row_len, partial, partial_ready)?;
            let (p, pr) = vc.extract(&buf, row_off + row_len - 1)?;
            partial = p;
            partial_ready = pr;
        }
        vc.copy_out(y, off, &buf, 0, valid, &[])?;
    }
    vc.free_local(buf)?;
    q.destroy(vc)?;
    Ok(())
}

/// Cube phase shared by all variants: tile-local scans into `w`.
///
/// Publishes a `CrossCoreSetFlag` per tile when its `w` slice lands in
/// GM and returns the flag ids; the vector side pays a matching
/// `CrossCoreWaitFlag` before reading. The flag file models the chip's
/// small register space (`ChipSpec::flag_id_limit`), so the tile index
/// cycles through it; each id is a FIFO, pairing the cube's i-th set
/// with the i-th wait even when tiles outnumber registers.
#[allow(clippy::too_many_arguments)]
fn cube_tile_scans<T, M>(
    cube: &mut ascendc::Core<'_>,
    flags: &ascendc::FlagFile,
    consts: &ScanConstants<T>,
    x: &GlobalTensor<T>,
    w: &GlobalTensor<M>,
    tiles: &[(usize, usize)],
    s: usize,
    l: usize,
) -> SimResult<Vec<u32>>
where
    T: CubeInput,
    M: Numeric,
{
    let mut lb = cube.alloc_local::<T>(ScratchpadKind::L0B, l)?;
    cube.copy_in(&mut lb, 0, &consts.upper, 0, l, &[])?;
    let da = if 2 * l * T::SIZE <= cube.spec().l0a_capacity {
        2
    } else {
        1
    };
    let dc = if 2 * l * <T::Acc as Element>::SIZE <= cube.spec().l0c_capacity {
        2
    } else {
        1
    };
    let mut qa = TQue::<T>::new(cube, ScratchpadKind::L0A, da, l)?;
    let mut qc = TQue::<T::Acc>::new(cube, ScratchpadKind::L0C, dc, l)?;
    let mut ids = Vec::with_capacity(tiles.len());
    for (i, &(off, valid)) in tiles.iter().enumerate() {
        let rows = valid.div_ceil(s);
        let mut la = qa.alloc_tensor()?;
        if valid < rows * s {
            cube.fill_local(&mut la, 0, rows * s, T::zero())?;
        }
        cube.copy_in(&mut la, 0, x, off, valid, &[])?;
        let mut lc = qc.alloc_tensor()?;
        let mm = cube.mmad::<T>(&mut lc, &mut la, &mut lb, rows, s, s, false)?;
        qa.free_tensor(la, mm);
        let ev = cube.copy_out_cast::<T::Acc, M>(w, off, &lc, 0, valid, &[])?;
        qc.free_tensor(lc, ev);
        let id = i as u32 % flags.limit();
        cube.set_flag(flags, id, &[ev])?;
        ids.push(id);
    }
    qa.destroy(cube)?;
    qc.destroy(cube)?;
    cube.free_local(lb)?;
    Ok(ids)
}

/// Strided-totals variant: block totals come from the cube output.
fn strided_totals<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: McScanConfig,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    check_cfg(spec, &cfg, "MCScan(strided-totals)")?;
    let (n, s, l) = (x.len(), cfg.s, cfg.s * cfg.s);
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    let w = GlobalTensor::<M>::new(gm, n)?;
    let chunks_total = (cfg.blocks * spec.vec_per_core) as usize;
    let tiles = tile_spans(n, l);
    let chunk_tiles = partition(tiles.len(), chunks_total);
    let r = GlobalTensor::<O>::new(gm, chunks_total)?;

    let mut report = launch(spec, gm, cfg.blocks, "MCScan(strided-totals)", |ctx| {
        let block = ctx.block_idx as usize;
        let vec_per_core = ctx.vecs.len();
        // Phase 1a: cube tile scans (per-tile completion events kept).
        let my_tiles_range = {
            let (t0, _) = chunk_tiles[block * vec_per_core];
            let (tl, tc) = chunk_tiles[block * vec_per_core + vec_per_core - 1];
            (t0, tl + tc)
        };
        let tile_flags = cube_tile_scans::<T, M>(
            &mut ctx.cube,
            &ctx.flags,
            &consts,
            x,
            &w,
            &tiles[my_tiles_range.0..my_tiles_range.1],
            s,
            l,
        )?;
        // Phase 1b: each vector core gathers its chunk's row totals from
        // w with a strided read (one element every s), then reduces.
        for v in 0..vec_per_core {
            let chunk = block * vec_per_core + v;
            let (t0, tcount) = chunk_tiles[chunk];
            let flags = &ctx.flags;
            let vc = &mut ctx.vecs[v];
            let mut totals = vc.alloc_local::<M>(ScratchpadKind::Ub, l / s)?;
            let mut totals_o = vc.alloc_local::<O>(ScratchpadKind::Ub, l / s)?;
            let mut total = O::zero();
            let mut total_ready = 0;
            for (ti, &(off, valid)) in tiles[t0..t0 + tcount].iter().enumerate() {
                let rows = valid.div_ceil(s);
                let full_rows = valid / s;
                // Strided gather: last element of each complete s-row.
                // A priced CrossCoreWaitFlag blocks this vector core
                // until the cube has produced the tile.
                let dep = vc.wait_flag(flags, tile_flags[t0 - my_tiles_range.0 + ti])?;
                if full_rows > 0 {
                    vc.copy_in_2d(&mut totals, &w, off + s - 1, full_rows, 1, s, &[dep])?;
                }
                // A short tail row contributes its own last element.
                if valid > full_rows * s {
                    let mut one = vc.alloc_local::<M>(ScratchpadKind::Ub, 1)?;
                    vc.copy_in(&mut one, 0, &w, off + valid - 1, 1, &[dep])?;
                    let (last, lr) = vc.extract(&one, 0)?;
                    vc.insert(&mut totals, rows - 1, last, lr)?;
                    vc.free_local(one)?;
                }
                let cast_done = vc.vcast::<M, O>(&mut totals_o, &totals, 0, rows)?;
                let (sum, ready) = vc.reduce_sum(&totals_o, 0, rows)?;
                total = total.add(sum);
                total_ready = vc.scalar_ops(1, &[ready, total_ready, cast_done])?;
            }
            let mut one = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
            vc.insert(&mut one, 0, total, total_ready)?;
            vc.copy_out(&r, chunk, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(totals)?;
            vc.free_local(totals_o)?;
        }
        ctx.sync_all()?;
        // Phase 2: identical propagation.
        for v in 0..vec_per_core {
            let chunk = block * vec_per_core + v;
            let (t0, tcount) = chunk_tiles[chunk];
            propagate_chunk::<M, O>(
                &mut ctx.vecs[v],
                &w,
                &y,
                &r,
                chunk,
                chunks_total,
                &tiles[t0..t0 + tcount],
                s,
                l,
            )?;
        }
        Ok(())
    })?;
    finish_report(&mut report, n, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

/// Textbook SSA: full per-chunk scans in phase 1, broadcast add after.
fn ssa_full<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: McScanConfig,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    check_cfg(spec, &cfg, "SSA(full)")?;
    let (n, s, l) = (x.len(), cfg.s, cfg.s * cfg.s);
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    let w = GlobalTensor::<M>::new(gm, n)?;
    let chunks_total = (cfg.blocks * spec.vec_per_core) as usize;
    let tiles = tile_spans(n, l);
    let chunk_tiles = partition(tiles.len(), chunks_total);
    let r = GlobalTensor::<O>::new(gm, chunks_total)?;

    let mut report = launch(spec, gm, cfg.blocks, "SSA(full)", |ctx| {
        let block = ctx.block_idx as usize;
        let vec_per_core = ctx.vecs.len();
        let first = block * vec_per_core;
        let (t0, _) = chunk_tiles[first];
        let (tl, tc) = chunk_tiles[first + vec_per_core - 1];
        let tile_flags = cube_tile_scans::<T, M>(
            &mut ctx.cube,
            &ctx.flags,
            &consts,
            x,
            &w,
            &tiles[t0..tl + tc],
            s,
            l,
        )?;
        // Phase 1b: full chunk-local scan (rows propagated from zero),
        // written to y; chunk total goes to r.
        for v in 0..vec_per_core {
            let chunk = first + v;
            let (c0, ccount) = chunk_tiles[chunk];
            let flags = &ctx.flags;
            let vc = &mut ctx.vecs[v];
            let ub = vc.spec().ub_capacity;
            let depth = if 2 * l * M::SIZE + l * O::SIZE + 64 <= ub {
                2
            } else {
                1
            };
            let mut q = TQue::<M>::new(vc, ScratchpadKind::Ub, depth, l)?;
            let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
            let mut partial = O::zero();
            let mut partial_ready = 0;
            for (ti, &(off, valid)) in tiles[c0..c0 + ccount].iter().enumerate() {
                let dep = vc.wait_flag(flags, tile_flags[c0 - t0 + ti])?;
                let mut piece = q.alloc_tensor()?;
                vc.copy_in(&mut piece, 0, &w, off, valid, &[dep])?;
                let cast_done = vc.vcast::<M, O>(&mut buf, &piece, 0, valid)?;
                q.free_tensor(piece, cast_done);
                for (row_off, row_len) in tile_spans(valid, s) {
                    vc.vadds(&mut buf, row_off, row_len, partial, partial_ready)?;
                    let (p, pr) = vc.extract(&buf, row_off + row_len - 1)?;
                    partial = p;
                    partial_ready = pr;
                }
                vc.copy_out(&y, off, &buf, 0, valid, &[])?;
            }
            let mut one = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
            vc.insert(&mut one, 0, partial, partial_ready)?;
            vc.copy_out(&r, chunk, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(buf)?;
            q.destroy(vc)?;
        }
        ctx.sync_all()?;
        // Phase 2: broadcast-add the scanned chunk offsets (uniform per
        // chunk — one Adds per tile, no per-row chain).
        for v in 0..vec_per_core {
            let chunk = first + v;
            if chunk == 0 {
                continue; // chunk 0 needs no offset
            }
            let (c0, ccount) = chunk_tiles[chunk];
            let vc = &mut ctx.vecs[v];
            let mut r_ub = vc.alloc_local::<O>(ScratchpadKind::Ub, chunks_total)?;
            vc.copy_in(&mut r_ub, 0, &r, 0, chunks_total, &[])?;
            let (offset, offset_ready) = vc.reduce_sum(&r_ub, 0, chunk)?;
            vc.free_local(r_ub)?;
            let depth = if 3 * l * O::SIZE + 64 <= vc.spec().ub_capacity {
                2
            } else {
                1
            };
            let mut q = TQue::<O>::new(vc, ScratchpadKind::Ub, depth, l)?;
            for &(off, valid) in &tiles[c0..c0 + ccount] {
                let mut buf = q.alloc_tensor()?;
                vc.copy_in(&mut buf, 0, &y, off, valid, &[])?;
                vc.vadds(&mut buf, 0, valid, offset, offset_ready)?;
                let ev = vc.copy_out(&y, off, &buf, 0, valid, &[])?;
                q.free_tensor(buf, ev);
            }
            q.destroy(vc)?;
        }
        Ok(())
    })?;
    finish_report(&mut report, n, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

/// Reduce-Scan-Scan: phase 1 reduces only; phase 2 does everything else.
fn rss<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: McScanConfig,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    check_cfg(spec, &cfg, "RSS")?;
    let (n, s, l) = (x.len(), cfg.s, cfg.s * cfg.s);
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    let w = GlobalTensor::<M>::new(gm, n)?;
    let chunks_total = (cfg.blocks * spec.vec_per_core) as usize;
    let tiles = tile_spans(n, l);
    let chunk_tiles = partition(tiles.len(), chunks_total);
    let r = GlobalTensor::<O>::new(gm, chunks_total)?;

    let mut report = launch(spec, gm, cfg.blocks, "RSS", |ctx| {
        let block = ctx.block_idx as usize;
        let vec_per_core = ctx.vecs.len();
        // Phase 1: block reductions only (the cube sits idle — RSS's
        // structural drawback on a split architecture).
        for v in 0..vec_per_core {
            let chunk = block * vec_per_core + v;
            let (t0, tcount) = chunk_tiles[chunk];
            let vc = &mut ctx.vecs[v];
            let din = if 2 * l * T::SIZE + l * O::SIZE + 64 <= vc.spec().ub_capacity {
                2
            } else {
                1
            };
            let mut qin = TQue::<T>::new(vc, ScratchpadKind::Ub, din, l)?;
            let mut acc = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
            let mut total = O::zero();
            let mut total_ready = 0;
            for &(off, valid) in &tiles[t0..t0 + tcount] {
                let mut piece = qin.alloc_tensor()?;
                vc.copy_in(&mut piece, 0, x, off, valid, &[])?;
                let cast_done = vc.vcast::<T, O>(&mut acc, &piece, 0, valid)?;
                qin.free_tensor(piece, cast_done);
                let (sum, ready) = vc.reduce_sum(&acc, 0, valid)?;
                total = total.add(sum);
                total_ready = vc.scalar_ops(1, &[ready, total_ready])?;
            }
            let mut one = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
            vc.insert(&mut one, 0, total, total_ready)?;
            vc.copy_out(&r, chunk, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(acc)?;
            qin.destroy(vc)?;
        }
        ctx.sync_all()?;
        // Phase 2: cube tile scans + vector propagation with the chunk
        // offset folded into the running partial (per-tile cube→vector
        // dependencies — the serialization MCScan's phase split avoids).
        let first = block * vec_per_core;
        let (t0, _) = chunk_tiles[first];
        let (tl, tc) = chunk_tiles[first + vec_per_core - 1];
        let tile_flags = cube_tile_scans::<T, M>(
            &mut ctx.cube,
            &ctx.flags,
            &consts,
            x,
            &w,
            &tiles[t0..tl + tc],
            s,
            l,
        )?;
        for v in 0..vec_per_core {
            let chunk = first + v;
            let (c0, ccount) = chunk_tiles[chunk];
            let flags = &ctx.flags;
            let vc = &mut ctx.vecs[v];
            let mut r_ub = vc.alloc_local::<O>(ScratchpadKind::Ub, chunks_total)?;
            vc.copy_in(&mut r_ub, 0, &r, 0, chunks_total, &[])?;
            let (mut partial, mut partial_ready) = if chunk == 0 {
                (O::zero(), 0)
            } else {
                vc.reduce_sum(&r_ub, 0, chunk)?
            };
            vc.free_local(r_ub)?;
            let ub = vc.spec().ub_capacity;
            let depth = if 2 * l * M::SIZE + l * O::SIZE + 64 <= ub {
                2
            } else {
                1
            };
            let mut q = TQue::<M>::new(vc, ScratchpadKind::Ub, depth, l)?;
            let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
            for (ti, &(off, valid)) in tiles[c0..c0 + ccount].iter().enumerate() {
                let dep = vc.wait_flag(flags, tile_flags[c0 - t0 + ti])?;
                let mut piece = q.alloc_tensor()?;
                vc.copy_in(&mut piece, 0, &w, off, valid, &[dep])?;
                let cast_done = vc.vcast::<M, O>(&mut buf, &piece, 0, valid)?;
                q.free_tensor(piece, cast_done);
                for (row_off, row_len) in tile_spans(valid, s) {
                    vc.vadds(&mut buf, row_off, row_len, partial, partial_ready)?;
                    let (p, pr) = vc.extract(&buf, row_off + row_len - 1)?;
                    partial = p;
                    partial_ready = pr;
                }
                vc.copy_out(&y, off, &buf, 0, valid, &[])?;
            }
            vc.free_local(buf)?;
            q.destroy(vc)?;
        }
        Ok(())
    })?;
    finish_report(&mut report, n, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn cfg(blocks: u32) -> McScanConfig {
        McScanConfig {
            s: 16,
            blocks,
            kind: ScanKind::Inclusive,
        }
    }

    #[test]
    fn all_variants_compute_the_same_scan() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..5000).map(|i| ((i * 7) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = reference::inclusive_widening::<i8, i32>(&data);
        for v in McScanVariant::ALL {
            let run = mcscan_variant::<i8, i32, i32>(&spec, &gm, &x, cfg(2), v).unwrap();
            assert_eq!(run.y.to_vec(), expect, "variant {}", v.name());
        }
    }

    #[test]
    fn variants_handle_partial_tiles_and_single_block() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..1333).map(|i| ((i * 13) % 3 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = reference::inclusive_widening::<u8, i32>(&data);
        for v in McScanVariant::ALL {
            let run = mcscan_variant::<u8, i16, i32>(&spec, &gm, &x, cfg(1), v).unwrap();
            assert_eq!(run.y.to_vec(), expect, "variant {}", v.name());
        }
    }

    #[test]
    fn exclusive_rejected_for_ablation_variants() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 64]).unwrap();
        let bad = McScanConfig {
            s: 16,
            blocks: 1,
            kind: ScanKind::Exclusive,
        };
        assert!(mcscan_variant::<i8, i32, i32>(&spec, &gm, &x, bad, McScanVariant::Rss).is_err());
    }

    #[test]
    fn ssa_moves_more_traffic_than_recompute() {
        let (spec, gm) = setup();
        let n = 8192;
        let data = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let rec = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, cfg(2), McScanVariant::Recompute)
            .unwrap()
            .report;
        let ssa = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, cfg(2), McScanVariant::SsaFull)
            .unwrap()
            .report;
        let rec_traffic = rec.bytes_read + rec.bytes_written;
        let ssa_traffic = ssa.bytes_read + ssa.bytes_written;
        assert!(
            ssa_traffic > rec_traffic,
            "SSA {ssa_traffic} B should exceed recompute {rec_traffic} B"
        );
    }

    #[test]
    fn recompute_wins_on_the_big_chip() {
        // At the bandwidth roofline MCScan and RSS tie (both move ~10
        // bytes per int8 element); recompute's edge is (a) strictly less
        // traffic than textbook SSA and (b) a shorter critical path in
        // the latency-bound regime, where phase 1 overlaps cube and
        // vector work instead of serializing them.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let big = McScanConfig {
            s: 128,
            blocks: spec.ai_cores,
            kind: ScanKind::Inclusive,
        };

        // Roofline regime: within 5% of the best variant, and strictly
        // ahead of SSA(full).
        let n = 4 << 20;
        let x = GlobalTensor::from_slice(&gm, &vec![1i8; n]).unwrap();
        let mut times = Vec::new();
        for v in McScanVariant::ALL {
            let run = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, big, v).unwrap();
            times.push((v, run.report.time_us()));
        }
        let rec = times[0].1;
        let best = times.iter().map(|&(_, t)| t).fold(f64::MAX, f64::min);
        assert!(
            rec <= best * 1.05,
            "recompute {rec:.1} us vs best {best:.1} us"
        );
        let ssa = times
            .iter()
            .find(|(v, _)| *v == McScanVariant::SsaFull)
            .unwrap()
            .1;
        assert!(
            rec < ssa,
            "recompute {rec:.1} us must beat SSA(full) {ssa:.1} us"
        );

        // Latency-sensitive regime: recompute's overlapped phase 1 wins
        // against the serialized strategies.
        let n = 1 << 18;
        let x = GlobalTensor::from_slice(&gm, &vec![1i8; n]).unwrap();
        let rec = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, big, McScanVariant::Recompute)
            .unwrap()
            .report
            .time_us();
        for v in [McScanVariant::SsaFull, McScanVariant::Rss] {
            let t = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, big, v)
                .unwrap()
                .report
                .time_us();
            assert!(
                rec <= t * 1.01,
                "at 256K, recompute ({rec:.1} us) should not trail {} ({t:.1} us)",
                v.name()
            );
        }
    }
}
