//! **ScanUL1** (Algorithm 2): the single-core scan based on the matrix
//! identity (Equation 1, first derived in Dakkak et al. ICS'19):
//!
//! ```text
//! scan(z) = A @ U_s  +  L_s^- @ A @ 1_s
//! ```
//!
//! where `A` is the `s × s` row-major view of a `ℓ = s²` tile of `z`.
//! The cube evaluates the identity as three matmuls per tile —
//! `C₁ = A @ 1ₛ`, `C₂ = A @ Uₛ`, `C₂ += L⁻ₛ @ C₁` — sharing the left
//! operand `A` between the first two (one L0A load) and reusing the
//! accumulation buffer for the third. The vector core then adds a single
//! partial per `ℓ` tile (versus one per `s`-row in ScanU), which is why
//! ScanUL1 is roughly 2× faster than ScanU at large input lengths.

use crate::triangular::ScanConstants;
use crate::util::{check_tile_dim, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{launch, ChipSpec, GlobalTensor, ScratchpadKind, SimResult, SpanArgs, TQue};
use dtypes::{CubeInput, Numeric};
use std::sync::Arc;

/// Runs ScanUL1 over `x` with tile dimension `s`, producing the
/// inclusive scan in element type `O`.
///
/// Precision note: the intermediate `C₁` is cast from the accumulator
/// type back to `T` when staged through L1 (the FIXP quantization path),
/// exactly as the fp16 pipeline on hardware does — partial row sums must
/// fit `T`'s range. Uses a single AI core.
pub fn scanul1<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    s: usize,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    check_tile_dim("ScanUL1", s)?;
    let n = x.len();
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    let spans = tile_spans(n, l);

    // Tile hand-offs cycle through the chip's cross-core flag registers
    // (per-id FIFO pairs set t with wait t).
    let flag_ids = spec.flag_id_limit;

    let mut report = launch(spec, gm, 1, "ScanUL1", |ctx| {
        let phase = ctx.span_begin("CubeThreeMatmuls");
        {
            let flags = &ctx.flags;
            let cube = &mut ctx.cube;
            // Load U_s, L_s^-, 1_s into L1 once (Line 3).
            let mut l1_u = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
            let mut l1_lm = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
            let mut l1_ones = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
            cube.copy_in(&mut l1_u, 0, &consts.upper, 0, l, &[])?;
            cube.copy_in(&mut l1_lm, 0, &consts.strict_lower, 0, l, &[])?;
            cube.copy_in(&mut l1_ones, 0, &consts.ones, 0, l, &[])?;
            // L1 staging buffer for the cast C1.
            let mut l1_c1 = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;

            // Single L0B buffer, reloaded three times per tile (the
            // serialization the paper's Lines 6/9/11 imply); L0A holds
            // the data tile and is then reused for L^-; two L0C
            // accumulators hold C1 and C2.
            let mut qa = TQue::<T>::new(cube, ScratchpadKind::L0A, 2, l)?.named("qa(L0A)");
            let mut lb = cube.alloc_local::<T>(ScratchpadKind::L0B, l)?;
            let mut c1 = cube.alloc_local::<T::Acc>(ScratchpadKind::L0C, l)?;
            let mut c2 = cube.alloc_local::<T::Acc>(ScratchpadKind::L0C, l)?;

            for (t, &(off, valid)) in spans.iter().enumerate() {
                let tile = cube.span_begin("tile");
                // Load x_l to L0A, zero-padding a partial tile (Line 6).
                let mut la = qa.alloc_tensor()?;
                if valid < l {
                    cube.fill_local(&mut la, 0, l, T::zero())?;
                }
                cube.copy_in(&mut la, 0, x, off, valid, &[])?;

                // C1 = A @ 1_s (Line 7), staged to L1 as T (Line 8).
                cube.copy_local(&mut lb, 0, &l1_ones, 0, l)?;
                cube.mmad::<T>(&mut c1, &mut la, &mut lb, s, s, s, false)?;
                cube.copy_local_cast::<T::Acc, T>(&mut l1_c1, 0, &c1, 0, l)?;

                // C2 = A @ U_s (Lines 9-10); A is free afterwards.
                cube.copy_local(&mut lb, 0, &l1_u, 0, l)?;
                let mm2 = cube.mmad::<T>(&mut c2, &mut la, &mut lb, s, s, s, false)?;
                qa.free_tensor(la, mm2);

                // C2 += L^- @ C1 (Lines 11-12): L^- into L0A, C1 into L0B.
                let mut la2 = qa.alloc_tensor()?;
                cube.copy_local(&mut la2, 0, &l1_lm, 0, l)?;
                cube.copy_local(&mut lb, 0, &l1_c1, 0, l)?;
                let mm3 = cube.mmad::<T>(&mut c2, &mut la2, &mut lb, s, s, s, true)?;
                qa.free_tensor(la2, mm3);

                // Copy C2 to y in GM (Line 13).
                let ev = cube.copy_out_cast::<T::Acc, O>(&y, off, &c2, 0, valid, &[])?;
                cube.span_args(
                    tile,
                    SpanArgs {
                        bytes: (valid * (T::SIZE + O::SIZE)) as u64,
                        kind: "mmad3",
                        queue_depth: 2,
                    },
                );
                cube.span_end_at(tile, ev);
                cube.set_flag(flags, t as u32 % flag_ids, &[ev])?;
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

        // ---- Vector core: one partial add per tile (Lines 14-18). ----
        let phase = ctx.span_begin("VecPropagation");
        {
            let flags = &ctx.flags;
            let v = &mut ctx.vecs[0];
            let mut q = TQue::<O>::new(v, ScratchpadKind::Ub, 2, l)?.named("q(UB)");
            let mut partial = O::zero();
            let mut partial_ready = 0;
            for (t, &(off, valid)) in spans.iter().enumerate() {
                let tile = v.span_begin("tile");
                let ready = v.wait_flag(flags, t as u32 % flag_ids)?;
                let mut buf = q.alloc_tensor()?;
                v.copy_in(&mut buf, 0, &y, off, valid, &[ready])?;
                v.vadds(&mut buf, 0, valid, partial, partial_ready)?;
                let (p, pr) = v.extract(&buf, valid - 1)?;
                partial = p;
                partial_ready = pr;
                let ev = v.copy_out(&y, off, &buf, 0, valid, &[])?;
                q.free_tensor(buf, ev);
                v.span_args(
                    tile,
                    SpanArgs {
                        bytes: (2 * valid * O::SIZE) as u64,
                        kind: "vadds",
                        queue_depth: 2,
                    },
                );
                v.span_end_at(tile, ev);
            }
            q.destroy(v)?;
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
    use crate::reference;
    use crate::scanu::scanu;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn matches_reference_full_tiles() {
        let (spec, gm) = setup();
        // Keep |row sums| <= 127 so the C1 cast to i8 is exact: values
        // in {-2..2} over s=16 rows give |row sum| <= 32.
        let data: Vec<i8> = (0..512).map(|i| (i % 5) as i8 - 2).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanul1::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn matches_reference_partial_tail() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..777).map(|i| ((i * 3) % 4) as i8 - 1).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanul1::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn fp16_small_values() {
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..600).map(|i| F16::from_f32((i % 3) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanul1::<F16, F16>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn agrees_with_scanu() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..1500).map(|i| ((i * 11) % 7) as i8 - 3).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let a = scanu::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        let b = scanul1::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(a.y.to_vec(), b.y.to_vec());
    }

    #[test]
    fn faster_than_scanu_at_large_n() {
        // The paper's headline single-core result: ScanUL1 ≈ 2× ScanU.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let n = 1 << 20;
        let data: Vec<i8> = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let u = scanu::<i8, i32>(&spec, &gm, &x, 128).unwrap();
        let ul1 = scanul1::<i8, i32>(&spec, &gm, &x, 128).unwrap();
        let ratio = u.report.time_s() / ul1.report.time_s();
        assert!(
            ratio > 1.5 && ratio < 4.0,
            "ScanUL1 should be ~2x faster than ScanU, got {ratio:.2}x"
        );
    }

    #[test]
    fn rejects_bad_tile_size() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8, 2, 3]).unwrap();
        assert!(scanul1::<i8, i32>(&spec, &gm, &x, 7).is_err());
    }
}
