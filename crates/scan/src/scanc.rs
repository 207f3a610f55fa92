//! **ScanC**: the single-pass chained scan with decoupled multi-hop
//! look-back (Merrill–Garland style, adapted to the cube/vector split).
//!
//! MCScan needs two passes over the data separated by a `SyncAll`: phase
//! 1 re-reads the input on the vector cores just to produce the block
//! reductions `r`, and phase 2 re-reads the tile-local scans to add the
//! block offsets. ScanC removes both the barrier and the recomputation
//! read: each *lane* (one vector core's contiguous run of tiles) keeps
//! its tile-local scans resident in UB, computes its own aggregate as a
//! by-product of the in-lane propagation, and then **looks back** at
//! per-lane mailboxes in global memory.
//!
//! The look-back is the decoupled, multi-hop state machine of
//! [`crate::lookback`]: each lane publishes a *partial* aggregate as
//! soon as its tile loop finishes and an *inclusive* prefix once its own
//! look-back resolves, and a successor with window `w` folds one
//! inclusive and up to `w − 1` partial mailboxes. The lane probes its
//! predecessors' grid flags *before* its tile loop, so the chain's wire
//! latency is hidden wherever the tile loop runs longer than a hop.
//!
//! The exclusive scan ([`scanc_kind`]) is the same launch with each
//! lane's output stores shifted right by one element.
//!
//! Global-memory traffic: the input is read once (cube), the
//! intermediate written once and read once, the output written once —
//! `8` bytes/element for fp16 (vs. MCScan's `10`) and `9` for int8
//! masks (vs. `10`), plus a few dozen scalar mailbox round-trips.

use crate::lookback::{max_window, Lookback};
use crate::triangular::ScanConstants;
use crate::util::{check_tile_dim, tile_spans};
use crate::{finish_report, ScanKind, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, SpanArgs, TQue,
};
use dtypes::{CubeInput, Element, Numeric};
use std::sync::Arc;

/// ScanC launch parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScanCConfig {
    /// Matmul tile dimension (`ℓ = s²` elements per cube tile).
    pub s: usize,
    /// Tiles each lane keeps resident in UB. This bounds the lane's UB
    /// footprint (`tiles_per_lane · ℓ · O::SIZE` next to one `ℓ ·
    /// M::SIZE` staging buffer) and sets the look-back chain length:
    /// fewer, fatter lanes mean fewer serial chain links but less
    /// launch-wide parallelism.
    pub tiles_per_lane: usize,
    /// Look-back window `w`: how many predecessors a lane inspects.
    /// `1` degenerates to the fully chained protocol (each lane blocks
    /// on its immediate predecessor's inclusive prefix); larger
    /// windows cut the serial chain depth to `⌈nlanes / w⌉` hops by
    /// consuming partial aggregates from the `w − 1` nearest
    /// predecessors. Must satisfy `w² ≤ flag_id_limit` so the per-id
    /// grid-flag FIFOs pair unambiguously.
    pub lookback_window: usize,
}

impl ScanCConfig {
    /// Default configuration for a chip: `s = 128` (the 910B4's
    /// L0-filling tile), as many resident tiles per lane as UB holds
    /// next to the `M`-typed staging buffer, and the widest look-back
    /// window the chip's flag-id file supports (capped at 4).
    pub fn for_chip<M: Element, O: Element>(spec: &ChipSpec) -> Self {
        Self::ub_filling::<M, O>(spec, 128)
    }

    /// Configuration sized for an `n`-element scan: the chip's largest
    /// cube tile `s ≤ 128` that fits L0 and UB for the element types, and
    /// `tiles_per_lane = clamp(⌈tiles / lanes⌉, 1, UB cap)`, where
    /// `lanes` is the chip's vector-core count and the UB cap is
    /// [`ScanCConfig::for_chip`]'s resident-tile count. Small inputs
    /// thus spread one tile per vector core instead of queueing on one
    /// or two UB-filling lanes; from `cap · lanes` tiles up this is
    /// `for_chip`'s configuration.
    pub fn for_len<T: CubeInput, M: Element, O: Element>(spec: &ChipSpec, n: usize) -> Self {
        let mut cfg = Self::ub_filling::<M, O>(spec, crate::dispatch::tile_dim::<T, M, O>(spec));
        let tiles = n.div_ceil(cfg.s * cfg.s);
        let lanes = (spec.ai_cores * spec.vec_per_core) as usize;
        cfg.tiles_per_lane = tiles.div_ceil(lanes).clamp(1, cfg.tiles_per_lane);
        cfg
    }

    /// `for_chip` with tile dimension `s`.
    pub(crate) fn ub_filling<M: Element, O: Element>(spec: &ChipSpec, s: usize) -> Self {
        let l = s * s;
        let budget = spec.ub_capacity.saturating_sub(l * M::SIZE + 256);
        ScanCConfig {
            s,
            tiles_per_lane: (budget / (l * O::SIZE)).max(1),
            lookback_window: max_window(spec),
        }
    }
}

/// Runs ScanC over `x`, producing the inclusive scan in element type
/// `O`. Type parameters follow [`crate::mcscan::mcscan`]: `T` is the
/// cube input, `M` the intermediate the tile-local scans travel through
/// global memory as, `O` the output —
///
/// * fp16: `scanc::<F16, F16, F16>`;
/// * int8 masks: `scanc::<u8, i16, i32>`.
///
/// `M` must hold `ℓ` times the largest input value (a tile-local scan
/// never exceeds that).
pub fn scanc<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: ScanCConfig,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    scanc_kind::<T, M, O>(spec, gm, x, cfg, ScanKind::Inclusive)
}

/// [`scanc`] with a choice of inclusive or exclusive output. The
/// exclusive scan costs the same launch: each lane stores its offset
/// tiles shifted right by one element (a tile's last inclusive value
/// lands on the next tile's first slot, across lanes too), the scan's
/// very last value is dropped, and lane 0 writes `y[0] = 0`.
pub fn scanc_kind<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: ScanCConfig,
    kind: ScanKind,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    check_tile_dim("ScanC", cfg.s)?;
    if cfg.tiles_per_lane == 0 {
        return Err(SimError::InvalidArgument(
            "ScanC: tiles_per_lane must be at least 1".into(),
        ));
    }
    let wdw = cfg.lookback_window;
    if wdw == 0 {
        return Err(SimError::InvalidArgument(
            "ScanC: lookback_window must be at least 1".into(),
        ));
    }
    if wdw * wdw > spec.flag_id_limit as usize {
        return Err(SimError::InvalidArgument(format!(
            "ScanC: lookback_window {wdw} needs w² = {} grid flag ids for \
             unambiguous per-id FIFO pairing, chip has {}",
            wdw * wdw,
            spec.flag_id_limit
        )));
    }
    if spec.flag_id_limit < spec.vec_per_core {
        return Err(SimError::InvalidArgument(format!(
            "ScanC: chip has fewer flag ids ({}) than vector cores per AI \
             core ({}); the per-vector flag-id partitions would collide",
            spec.flag_id_limit, spec.vec_per_core
        )));
    }
    let n = x.len();
    let s = cfg.s;
    let l = s * s;
    let tpl = cfg.tiles_per_lane;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    let w = GlobalTensor::<M>::new(gm, n)?;

    let tiles = tile_spans(n, l);
    let vpc = spec.vec_per_core as usize;
    // Lane layout: lane L owns tiles [L·tpl, L·tpl + tpl); every lane
    // below `nlanes` is non-empty, so the look-back chain has no holes.
    let nlanes = tiles.len().div_ceil(tpl).max(1);
    let blocks = nlanes.div_ceil(vpc).max(1) as u32;
    // Cross-core flag registers are partitioned per vector core so the
    // per-id FIFOs never pair a cube set for lane A with a wait from
    // lane B; grid-flag ids are assigned per look-back edge by the
    // shared look-back schedule.
    let flag_ids = spec.flag_id_limit;
    let per_vec_ids = (flag_ids / spec.vec_per_core).max(1);
    let lookback = Lookback::<O>::new(gm, nlanes, 1, wdw, flag_ids)?;

    let mut report = launch(spec, gm, blocks, "ScanC", |ctx| {
        let block = ctx.block_idx as usize;
        let vpc = ctx.vecs.len();

        // ---- Cube core: tile-local scans for this block's lanes. ----
        let phase = ctx.span_begin("CubeLocalScans");
        {
            let flags = &ctx.flags;
            let cube = &mut ctx.cube;
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
            let mut qa = TQue::<T>::new(cube, ScratchpadKind::L0A, da, l)?.named("qa(L0A)");
            let mut qc = TQue::<T::Acc>::new(cube, ScratchpadKind::L0C, dc, l)?.named("qc(L0C)");
            for v in 0..vpc {
                let lane = block * vpc + v;
                let t0 = lane * tpl;
                if t0 >= tiles.len() {
                    break;
                }
                let tcount = tpl.min(tiles.len() - t0);
                for (i, &(off, valid)) in tiles[t0..t0 + tcount].iter().enumerate() {
                    let rows = valid.div_ceil(s);
                    let tile = cube.span_begin("tile");
                    let mut la = qa.alloc_tensor()?;
                    if valid < rows * s {
                        cube.fill_local(&mut la, 0, rows * s, T::zero())?;
                    }
                    cube.copy_in(&mut la, 0, x, off, valid, &[])?;
                    let mut lc = qc.alloc_tensor()?;
                    let mm = cube.mmad::<T>(&mut lc, &mut la, &mut lb, rows, s, s, false)?;
                    qa.free_tensor(la, mm);
                    let ev = cube.copy_out_cast::<T::Acc, M>(&w, off, &lc, 0, valid, &[])?;
                    qc.free_tensor(lc, ev);
                    cube.span_args(
                        tile,
                        SpanArgs {
                            bytes: (valid * (T::SIZE + M::SIZE)) as u64,
                            kind: "mmad",
                            queue_depth: da as u32,
                        },
                    );
                    cube.span_end_at(tile, ev);
                    cube.set_flag(
                        flags,
                        v as u32 * per_vec_ids + (i as u32 % per_vec_ids),
                        &[ev],
                    )?;
                }
            }
            cube.free_local(lb)?;
            qa.destroy(cube)?;
            qc.destroy(cube)?;
        }
        ctx.span_end(phase);

        // ---- Vector lanes: probe, propagate locally, resolve. ----
        let phase = ctx.span_begin("VecLookback");
        let grid = ctx.grid();
        for v in 0..vpc {
            let lane = block * vpc + v;
            let t0 = lane * tpl;
            if t0 >= tiles.len() {
                continue;
            }
            let tcount = tpl.min(tiles.len() - t0);
            let flags = &ctx.flags;
            let vc = &mut ctx.vecs[v];
            if kind == ScanKind::Exclusive && lane == 0 {
                // Nothing precedes y[0]; store it before any look-back
                // so it stays off the chain.
                let mut zero = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
                vc.insert(&mut zero, 0, O::zero(), 0)?;
                vc.copy_out(&y, 0, &zero, 0, 1, &[])?;
                vc.free_local(zero)?;
            }

            // Probe every look-back edge *before* the tile loop.
            let mut lane_lb = lookback.probe(vc, grid, lane)?;

            // Load every tile of the lane into a resident UB buffer,
            // propagating the running partial through it on the way in;
            // after the last tile `partial` is the lane aggregate.
            let mut staging = vc.alloc_local::<M>(ScratchpadKind::Ub, l)?;
            let mut bufs = Vec::with_capacity(tcount);
            let mut partial = O::zero();
            let mut partial_ready = 0;
            let mut cast_done = 0;
            for (i, &(off, valid)) in tiles[t0..t0 + tcount].iter().enumerate() {
                let tile = vc.span_begin("tile");
                let ready =
                    vc.wait_flag(flags, v as u32 * per_vec_ids + (i as u32 % per_vec_ids))?;
                vc.copy_in(&mut staging, 0, &w, off, valid, &[ready, cast_done])?;
                let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, valid)?;
                cast_done = vc.vcast::<M, O>(&mut buf, &staging, 0, valid)?;
                for (row_off, row_len) in tile_spans(valid, s) {
                    vc.vadds(&mut buf, row_off, row_len, partial, partial_ready)?;
                    let (p, pr) = vc.extract(&buf, row_off + row_len - 1)?;
                    partial = p;
                    partial_ready = pr;
                }
                vc.span_args(
                    tile,
                    SpanArgs {
                        bytes: (valid * (M::SIZE + O::SIZE)) as u64,
                        kind: "propagate",
                        queue_depth: 1,
                    },
                );
                vc.span_end_at(tile, partial_ready);
                bufs.push(buf);
            }

            lookback.publish_partial(vc, grid, &mut lane_lb, &[partial], partial_ready)?;
            let (prev, prev_ready) =
                lookback.resolve(vc, grid, &mut lane_lb, &[partial], partial_ready)?;
            let prev = prev[0];

            // Finish the lane: offset the tiles and store y (shifted
            // one element right for an exclusive scan).
            for (i, buf) in bufs.iter_mut().enumerate() {
                let (off, valid) = tiles[t0 + i];
                vc.vadds(buf, 0, valid, prev, prev_ready)?;
                let (dst, len) = match kind {
                    ScanKind::Inclusive => (off, valid),
                    ScanKind::Exclusive => (off + 1, valid.min(n - off - 1)),
                };
                if len > 0 {
                    vc.copy_out(&y, dst, buf, 0, len, &[])?;
                }
            }
            for buf in bufs {
                vc.free_local(buf)?;
            }
            lane_lb.free(vc)?;
            vc.free_local(staging)?;
        }
        ctx.span_end(phase);
        Ok(())
    })?;

    finish_report(&mut report, n, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcscan::{mcscan, McScanConfig, ScanKind};
    use crate::reference;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn cfg(s: usize, tiles_per_lane: usize) -> ScanCConfig {
        ScanCConfig {
            s,
            tiles_per_lane,
            lookback_window: 2,
        }
    }

    #[test]
    fn matches_reference_multi_lane() {
        let (spec, gm) = setup();
        // 3000 elements / 256-elem tiles = 12 tiles; tpl=2 → 6 lanes →
        // 3 blocks on the tiny chip (intra- and inter-block chaining).
        let data: Vec<i8> = (0..3000).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.blocks, 3);
        // No barrier: the whole point of the chained look-back.
        assert_eq!(run.report.sync_rounds, 0);
    }

    #[test]
    fn window_sizes_agree_bit_for_bit() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..4000).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = reference::inclusive_widening::<i8, i32>(&data);
        for w in [1, 2] {
            let run = scanc::<i8, i16, i32>(
                &spec,
                &gm,
                &x,
                ScanCConfig {
                    s: 16,
                    tiles_per_lane: 1,
                    lookback_window: w,
                },
            )
            .unwrap();
            assert_eq!(run.y.to_vec(), expect, "window {w}");
        }
    }

    #[test]
    fn oversubscribed_lanes_wave_multiplex() {
        // tpl=1 → 12 lanes → 6 blocks on 2 AI cores: the grid
        // oversubscribes and the look-back chain spans waves.
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..3000).map(|i| ((i * 5) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 1)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.blocks, 6);
        assert!(run.report.blocks > spec.ai_cores);
    }

    #[test]
    fn exclusive_oversubscribed_lanes_wave_multiplex() {
        // tpl=1 → 12 lanes → 6 blocks on 2 AI cores, w = 2: every lane
        // but the last stores one value into its successor's range,
        // including successors in a later wave.
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..3000).map(|i| ((i * 5) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run =
            scanc_kind::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 1), ScanKind::Exclusive).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::exclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.blocks, 6);
        assert_eq!(run.report.sync_rounds, 0);
    }

    #[test]
    fn exclusive_matches_mcscan_exclusive_and_moves_fewer_bytes() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..5000).map(|i| ((i * 13) % 3 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let sc =
            scanc_kind::<u8, i16, i32>(&spec, &gm, &x, cfg(16, 2), ScanKind::Exclusive).unwrap();
        let mc = mcscan::<u8, i16, i32>(
            &spec,
            &gm,
            &x,
            McScanConfig {
                s: 16,
                blocks: 2,
                kind: ScanKind::Exclusive,
            },
        )
        .unwrap();
        assert_eq!(sc.y.to_vec(), mc.y.to_vec());
        assert!(
            sc.report.bytes_read + sc.report.bytes_written
                < mc.report.bytes_read + mc.report.bytes_written
        );
    }

    #[test]
    fn for_len_spreads_small_inputs_and_caps_at_for_chip() {
        let spec = ChipSpec::ascend_910b4();
        let cap = ScanCConfig::for_chip::<F16, F16>(&spec);
        let l = cap.s * cap.s;
        // One tile per vector core until the lanes run out, then the
        // UB-filling lanes of `for_chip`.
        for (tiles, tpl) in [(1, 1), (40, 1), (41, 2), (120, 3), (160, 4), (1024, 4)] {
            let got = ScanCConfig::for_len::<F16, F16, F16>(&spec, tiles * l);
            assert_eq!(got.tiles_per_lane, tpl, "{tiles} tiles");
            assert_eq!((got.s, got.lookback_window), (cap.s, cap.lookback_window));
        }
        assert_eq!(cap.tiles_per_lane, 4);
        // The tiny chip's L0A holds 32×32 fp16 tiles, not 128×128.
        assert_eq!(
            ScanCConfig::for_len::<F16, F16, F16>(&ChipSpec::tiny(), 1).s,
            32
        );
    }

    #[test]
    fn fp16_small_values_exact() {
        let (spec, gm) = setup();
        // Sum < 2048 keeps every partial exact in f16, so any
        // association (lane-local scan + one offset add) is exact too.
        let data: Vec<F16> = (0..700).map(|i| F16::from_f32((i % 4) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<F16, F16, F16>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn mask_scan_u8_to_i32() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..1000).map(|i| ((i * 13) % 3 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<u8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<u8, i32>(&data)
        );
    }

    #[test]
    fn partial_tail_tile() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..600).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn single_tile_and_empty() {
        let (spec, gm) = setup();
        let data = vec![2i8, 3, -1, 7];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(run.y.to_vec(), vec![2, 5, 4, 11]);

        let empty = GlobalTensor::<i8>::new(&gm, 0).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &empty, cfg(16, 2)).unwrap();
        assert_eq!(run.report.elements, 0);
    }

    #[test]
    fn rejects_bad_config() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 8]).unwrap();
        assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(0, 1)).is_err());
        assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(20, 1)).is_err());
        assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 0)).is_err());
        // Window 0 and windows whose w² exceeds the tiny chip's 8 flag
        // ids are rejected.
        for w in [0, 3, 4] {
            let bad = ScanCConfig {
                s: 16,
                tiles_per_lane: 1,
                lookback_window: w,
            };
            assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, bad).is_err(), "w={w}");
        }
    }

    #[test]
    fn report_has_sane_metrics() {
        let (spec, gm) = setup();
        let n = 4096usize;
        let data = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        let r = &run.report;
        // x once (1B) + w once (2B) read; w write (2B) + y write (4B).
        let read_lo = (n + 2 * n) as u64;
        let written_lo = (2 * n + 4 * n) as u64;
        assert!(r.bytes_read >= read_lo, "{} < {read_lo}", r.bytes_read);
        assert!(r.bytes_read < read_lo + 8192, "{}", r.bytes_read);
        assert!(r.bytes_written >= written_lo);
        assert!(r.bytes_written < written_lo + 4096);
        assert_eq!(r.useful_bytes, (n * (1 + 4)) as u64);
        assert_eq!(r.sync_rounds, 0);
    }

    #[test]
    fn moves_fewer_bytes_than_mcscan() {
        // The tentpole claim: dropping the recomputation read cuts
        // total GM traffic below MCScan's for the same input.
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..6000).map(|i| (i % 7) as i8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let sc = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        let mc = mcscan::<i8, i16, i32>(
            &spec,
            &gm,
            &x,
            McScanConfig {
                s: 16,
                blocks: 2,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap();
        assert_eq!(sc.y.to_vec(), mc.y.to_vec());
        let sc_total = sc.report.bytes_read + sc.report.bytes_written;
        let mc_total = mc.report.bytes_read + mc.report.bytes_written;
        assert!(
            sc_total < mc_total,
            "ScanC moved {sc_total} B, MCScan {mc_total} B"
        );
    }
}
