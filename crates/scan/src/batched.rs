//! Batched (multi-array) scans — §4.2.
//!
//! A batched scan computes independent prefix sums over `batch` arrays of
//! equal length. The two schedules mirror the paper's Figure 4:
//!
//! * [`batched_scanu`] extends ScanU and exploits the 910B's 2-to-1
//!   vector-to-cube ratio: each AI core's cube engine computes the
//!   tile-local scans of *two* batch rows interleaved, and the core's two
//!   vector cores each complete the propagation of one of the rows.
//! * [`batched_scanul1`] extends ScanUL1: each AI core runs the full
//!   single-core ScanUL1 pipeline on whole rows assigned round-robin.
//!
//! Fig. 5's finding reproduces from these schedules: ScanU-batched wins
//! for many short rows (its per-row pipeline has lower latency and uses
//! both vector cores), ScanUL1-batched wins for few long rows (its
//! steady-state per-element cost is lower, but only one row per AI core
//! progresses at a time).

use crate::triangular::ScanConstants;
use crate::util::{check_tile_dim, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, SpanArgs, TQue,
};
use dtypes::{CubeInput, Numeric};
use std::sync::Arc;

fn check_batched_args(
    spec: &ChipSpec,
    total: usize,
    batch: usize,
    len: usize,
    s: usize,
    what: &str,
) -> SimResult<()> {
    check_tile_dim(what, s)?;
    if batch == 0 || len == 0 || batch * len != total {
        return Err(SimError::InvalidArgument(format!(
            "{what}: batch {batch} x len {len} does not match tensor of {total} elements"
        )));
    }
    let _ = spec;
    Ok(())
}

/// Batched scan based on ScanU (Algorithm 1): rows are processed in
/// pairs per AI core — the cube interleaves both rows' tiles and each
/// vector core owns one row of the pair.
///
/// `x` holds `batch` rows of `len` elements, row-major.
#[allow(clippy::needless_range_loop)]
pub fn batched_scanu<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    batch: usize,
    len: usize,
    s: usize,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    check_batched_args(spec, x.len(), batch, len, s, "batched ScanU")?;
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, batch * len)?;
    let spans = tile_spans(len, l);
    let pairs = batch.div_ceil(2);
    let blocks = (spec.ai_cores as usize).min(pairs) as u32;

    let mut report = launch(spec, gm, blocks, "BatchedScanU", |ctx| {
        let block = ctx.block_idx as usize;
        let nblocks = ctx.block_dim as usize;
        let vec_per_core = ctx.vecs.len();
        // Rows handled by this block: pairs assigned round-robin.
        let my_pairs: Vec<usize> = (block..pairs).step_by(nblocks).collect();

        // ---- Cube core: interleave the pair's rows tile by tile. ----
        // The cube alternates lanes within a tile while each vector core
        // drains one lane sequentially, so the flag-id space is split in
        // half per lane: within a lane, set order equals wait order, and
        // the per-id FIFO keeps the pairs aligned.
        let phase = ctx.span_begin("CubePairedTileScans");
        let half = ctx.flags.limit() / 2;
        let mut fid: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); vec_per_core]; my_pairs.len()];
        {
            let flags = &ctx.flags;
            let cube = &mut ctx.cube;
            let mut lb = cube.alloc_local::<T>(ScratchpadKind::L0B, l)?;
            cube.copy_in(&mut lb, 0, &consts.upper, 0, l, &[])?;
            let mut qa = TQue::<T>::new(cube, ScratchpadKind::L0A, 2, l)?.named("qa(L0A)");
            let mut qc = TQue::<T::Acc>::new(cube, ScratchpadKind::L0C, 2, l)?.named("qc(L0C)");
            for (pi, &pair) in my_pairs.iter().enumerate() {
                for &(off, valid) in &spans {
                    for lane in 0..vec_per_core.min(2) {
                        let row = pair * 2 + lane;
                        if row >= batch {
                            continue;
                        }
                        let base = row * len;
                        let rows = valid.div_ceil(s);
                        let tile = cube.span_begin("tile");
                        let mut la = qa.alloc_tensor()?;
                        if valid < rows * s {
                            cube.fill_local(&mut la, 0, rows * s, T::zero())?;
                        }
                        cube.copy_in(&mut la, 0, x, base + off, valid, &[])?;
                        let mut lc = qc.alloc_tensor()?;
                        let mm = cube.mmad::<T>(&mut lc, &mut la, &mut lb, rows, s, s, false)?;
                        qa.free_tensor(la, mm);
                        let ev =
                            cube.copy_out_cast::<T::Acc, O>(&y, base + off, &lc, 0, valid, &[])?;
                        qc.free_tensor(lc, ev);
                        cube.span_args(
                            tile,
                            SpanArgs {
                                bytes: (valid * (T::SIZE + O::SIZE)) as u64,
                                kind: "mmad",
                                queue_depth: 2,
                            },
                        );
                        cube.span_end_at(tile, ev);
                        let k: usize = fid[..=pi].iter().map(|p| p[lane].len()).sum();
                        let id = lane as u32 * half + (k as u32 % half);
                        cube.set_flag(flags, id, &[ev])?;
                        fid[pi][lane].push(id);
                    }
                }
            }
            cube.free_local(lb)?;
            qa.destroy(cube)?;
            qc.destroy(cube)?;
        }
        ctx.span_end(phase);

        // ---- Vector cores: one row of each pair per core. ----
        let phase = ctx.span_begin("VecPropagation");
        for lane in 0..vec_per_core.min(2) {
            let flags = &ctx.flags;
            let vc = &mut ctx.vecs[lane];
            let mut q = TQue::<O>::new(vc, ScratchpadKind::Ub, 2, l)?.named("q(UB)");
            for (pi, &pair) in my_pairs.iter().enumerate() {
                let row = pair * 2 + lane;
                if row >= batch {
                    continue;
                }
                let base = row * len;
                let mut partial = O::zero();
                let mut partial_ready = 0;
                for (t, &(off, valid)) in spans.iter().enumerate() {
                    let tile = vc.span_begin("tile");
                    let ready = vc.wait_flag(flags, fid[pi][lane][t])?;
                    let mut buf = q.alloc_tensor()?;
                    vc.copy_in(&mut buf, 0, &y, base + off, valid, &[ready])?;
                    for (row_off, row_len) in tile_spans(valid, s) {
                        vc.vadds(&mut buf, row_off, row_len, partial, partial_ready)?;
                        let (p, pr) = vc.extract(&buf, row_off + row_len - 1)?;
                        partial = p;
                        partial_ready = pr;
                    }
                    let ev = vc.copy_out(&y, base + off, &buf, 0, valid, &[])?;
                    q.free_tensor(buf, ev);
                    vc.span_args(
                        tile,
                        SpanArgs {
                            bytes: (2 * valid * O::SIZE) as u64,
                            kind: "vadds",
                            queue_depth: 2,
                        },
                    );
                    vc.span_end_at(tile, ev);
                }
            }
            q.destroy(vc)?;
        }
        ctx.span_end(phase);
        Ok(())
    })?;

    finish_report(&mut report, batch * len, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

/// Batched scan based on ScanUL1 (Algorithm 2): each AI core runs the
/// complete three-matmul pipeline on whole rows, assigned round-robin.
pub fn batched_scanul1<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    batch: usize,
    len: usize,
    s: usize,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    check_batched_args(spec, x.len(), batch, len, s, "batched ScanUL1")?;
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, batch * len)?;
    let spans = tile_spans(len, l);
    let blocks = (spec.ai_cores as usize).min(batch) as u32;

    let mut report = launch(spec, gm, blocks, "BatchedScanUL1", |ctx| {
        let block = ctx.block_idx as usize;
        let nblocks = ctx.block_dim as usize;
        let my_rows: Vec<usize> = (block..batch).step_by(nblocks).collect();

        // Tile hand-offs cycle the chip's flag registers in (row, tile)
        // order; the single vector core waits in the same order, so the
        // per-id FIFOs stay aligned.
        let phase = ctx.span_begin("CubeThreeMatmuls");
        let flag_ids = ctx.flags.limit();
        let nspans = spans.len();
        {
            let flags = &ctx.flags;
            let cube = &mut ctx.cube;
            let mut l1_u = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
            let mut l1_lm = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
            let mut l1_ones = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
            cube.copy_in(&mut l1_u, 0, &consts.upper, 0, l, &[])?;
            cube.copy_in(&mut l1_lm, 0, &consts.strict_lower, 0, l, &[])?;
            cube.copy_in(&mut l1_ones, 0, &consts.ones, 0, l, &[])?;
            let mut l1_c1 = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
            let mut qa = TQue::<T>::new(cube, ScratchpadKind::L0A, 2, l)?.named("qa(L0A)");
            let mut lb = cube.alloc_local::<T>(ScratchpadKind::L0B, l)?;
            let mut c1 = cube.alloc_local::<T::Acc>(ScratchpadKind::L0C, l)?;
            let mut c2 = cube.alloc_local::<T::Acc>(ScratchpadKind::L0C, l)?;

            for (ri, &row) in my_rows.iter().enumerate() {
                let base = row * len;
                for (t, &(off, valid)) in spans.iter().enumerate() {
                    let tile = cube.span_begin("tile");
                    let mut la = qa.alloc_tensor()?;
                    if valid < l {
                        cube.fill_local(&mut la, 0, l, T::zero())?;
                    }
                    cube.copy_in(&mut la, 0, x, base + off, valid, &[])?;

                    cube.copy_local(&mut lb, 0, &l1_ones, 0, l)?;
                    cube.mmad::<T>(&mut c1, &mut la, &mut lb, s, s, s, false)?;
                    cube.copy_local_cast::<T::Acc, T>(&mut l1_c1, 0, &c1, 0, l)?;

                    cube.copy_local(&mut lb, 0, &l1_u, 0, l)?;
                    let mm2 = cube.mmad::<T>(&mut c2, &mut la, &mut lb, s, s, s, false)?;
                    qa.free_tensor(la, mm2);

                    let mut la2 = qa.alloc_tensor()?;
                    cube.copy_local(&mut la2, 0, &l1_lm, 0, l)?;
                    cube.copy_local(&mut lb, 0, &l1_c1, 0, l)?;
                    let mm3 = cube.mmad::<T>(&mut c2, &mut la2, &mut lb, s, s, s, true)?;
                    qa.free_tensor(la2, mm3);

                    let ev = cube.copy_out_cast::<T::Acc, O>(&y, base + off, &c2, 0, valid, &[])?;
                    cube.span_args(
                        tile,
                        SpanArgs {
                            bytes: (valid * (T::SIZE + O::SIZE)) as u64,
                            kind: "mmad3",
                            queue_depth: 2,
                        },
                    );
                    cube.span_end_at(tile, ev);
                    cube.set_flag(flags, (ri * nspans + t) as u32 % flag_ids, &[ev])?;
                }
            }
            cube.free_local(c2)?;
            cube.free_local(c1)?;
            cube.free_local(lb)?;
            cube.free_local(l1_c1)?;
            cube.free_local(l1_ones)?;
            cube.free_local(l1_lm)?;
            cube.free_local(l1_u)?;
            qa.destroy(cube)?;
        }
        ctx.span_end(phase);

        // One vector core per AI core completes the rows (the second
        // vector core is idle — the schedule's known inefficiency that
        // Fig. 5 exposes for large batch counts).
        let phase = ctx.span_begin("VecPropagation");
        {
            let flags = &ctx.flags;
            let vc = &mut ctx.vecs[0];
            let mut q = TQue::<O>::new(vc, ScratchpadKind::Ub, 2, l)?.named("q(UB)");
            for (ri, &row) in my_rows.iter().enumerate() {
                let base = row * len;
                let mut partial = O::zero();
                let mut partial_ready = 0;
                for (t, &(off, valid)) in spans.iter().enumerate() {
                    let tile = vc.span_begin("tile");
                    let ready = vc.wait_flag(flags, (ri * nspans + t) as u32 % flag_ids)?;
                    let mut buf = q.alloc_tensor()?;
                    vc.copy_in(&mut buf, 0, &y, base + off, valid, &[ready])?;
                    vc.vadds(&mut buf, 0, valid, partial, partial_ready)?;
                    let (p, pr) = vc.extract(&buf, valid - 1)?;
                    partial = p;
                    partial_ready = pr;
                    let ev = vc.copy_out(&y, base + off, &buf, 0, valid, &[])?;
                    q.free_tensor(buf, ev);
                    vc.span_args(
                        tile,
                        SpanArgs {
                            bytes: (2 * valid * O::SIZE) as u64,
                            kind: "vadds",
                            queue_depth: 2,
                        },
                    );
                    vc.span_end_at(tile, ev);
                }
            }
            q.destroy(vc)?;
        }
        ctx.span_end(phase);
        Ok(())
    })?;

    finish_report(&mut report, batch * len, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn rows_reference(data: &[i8], batch: usize, len: usize) -> Vec<i32> {
        let mut out = Vec::with_capacity(batch * len);
        for b in 0..batch {
            out.extend(reference::inclusive_widening::<i8, i32>(
                &data[b * len..(b + 1) * len],
            ));
        }
        out
    }

    #[test]
    fn batched_scanu_matches_rowwise_reference() {
        let (spec, gm) = setup();
        let (batch, len) = (5, 300);
        let data: Vec<i8> = (0..batch * len).map(|i| ((i * 7) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(run.y.to_vec(), rows_reference(&data, batch, len));
    }

    #[test]
    fn batched_scanul1_matches_rowwise_reference() {
        let (spec, gm) = setup();
        let (batch, len) = (3, 700);
        let data: Vec<i8> = (0..batch * len).map(|i| ((i * 5) % 7) as i8 - 3).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(run.y.to_vec(), rows_reference(&data, batch, len));
    }

    #[test]
    fn both_schedules_agree_f16() {
        let (spec, gm) = setup();
        let (batch, len) = (4, 260);
        let data: Vec<F16> = (0..batch * len)
            .map(|i| F16::from_f32((i % 3) as f32))
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let a = batched_scanu::<F16, F16>(&spec, &gm, &x, batch, len, 16).unwrap();
        let b = batched_scanul1::<F16, F16>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(a.y.to_vec(), b.y.to_vec());
    }

    #[test]
    fn odd_batch_count() {
        let (spec, gm) = setup();
        let (batch, len) = (7, 64);
        let data: Vec<i8> = (0..batch * len).map(|i| (i % 4) as i8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(run.y.to_vec(), rows_reference(&data, batch, len));
    }

    #[test]
    fn single_row_batch() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..100).map(|i| (i % 5) as i8 - 2).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let a = batched_scanu::<i8, i32>(&spec, &gm, &x, 1, 100, 16).unwrap();
        let b = batched_scanul1::<i8, i32>(&spec, &gm, &x, 1, 100, 16).unwrap();
        let expect = reference::inclusive_widening::<i8, i32>(&data);
        assert_eq!(a.y.to_vec(), expect);
        assert_eq!(b.y.to_vec(), expect);
    }

    #[test]
    fn int8_batched_rows_agree_with_mcscan_per_row() {
        // Cross-check the int8 specialization across schedules: each row
        // of a batched ScanU/ScanUL1 run must equal a standalone MCScan
        // of that row (and the host reference).
        use crate::mcscan::{mcscan, McScanConfig, ScanKind};
        let (spec, gm) = setup();
        let (batch, len) = (4, 450);
        let data: Vec<i8> = (0..batch * len)
            .map(|i| ((i * 11) % 13) as i8 - 6)
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = rows_reference(&data, batch, len);
        let u = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        let ul1 = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(u.y.to_vec(), expect);
        assert_eq!(ul1.y.to_vec(), expect);
        let cfg = McScanConfig {
            s: 16,
            blocks: 2,
            kind: ScanKind::Inclusive,
        };
        for b in 0..batch {
            let row = x.slice(b * len, len).unwrap();
            let mc = mcscan::<i8, i32, i32>(&spec, &gm, &row, cfg).unwrap();
            assert_eq!(
                mc.y.to_vec(),
                expect[b * len..(b + 1) * len],
                "row {b} disagrees between MCScan and the batched schedules"
            );
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 100]).unwrap();
        assert!(batched_scanu::<i8, i32>(&spec, &gm, &x, 3, 30, 16).is_err());
        assert!(batched_scanul1::<i8, i32>(&spec, &gm, &x, 0, 100, 16).is_err());
        assert!(batched_scanu::<i8, i32>(&spec, &gm, &x, 4, 25, 10).is_err());
    }

    #[test]
    fn fig5_crossover_shape() {
        // Large batch + short rows: ScanU-batched should win.
        // Small batch + long rows: ScanUL1-batched should win.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));

        let (batch, len) = (40, 1024);
        let data = vec![0i8; batch * len];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let u = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        let ul1 = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        assert!(
            u.report.time_s() < ul1.report.time_s(),
            "many short rows: ScanU {} us should beat ScanUL1 {} us",
            u.report.time_us(),
            ul1.report.time_us()
        );

        let (batch, len) = (4, 1 << 17);
        let data = vec![0i8; batch * len];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let u = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        let ul1 = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        assert!(
            ul1.report.time_s() < u.report.time_s(),
            "few long rows: ScanUL1 {} us should beat ScanU {} us",
            ul1.report.time_us(),
            u.report.time_us()
        );
    }
}
