//! Serial/parallel scheduler equivalence for the fused radix sort.
//!
//! Every `RadixSplit` pass resolves its lanes' per-bucket offsets through
//! the chained look-back, so the sort's reports must be byte-identical
//! under the serial baton and the parallel-round scheduler — the same
//! contract `scan`'s `sched_equiv` gate holds the scan kernels to. The
//! comparison covers the combined report, every launch's full profile
//! (events, spans, happens-before stream and audited critical path) and
//! the sorted output.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::{prof, SchedPolicy};
use ascendc::{ChipSpec, GlobalTensor};
use dtypes::F16;
use ops::radix_sort::{digit_bits, radix_sort_bits, SortOrder};
use std::sync::Arc;

fn sort_under(
    spec: ChipSpec,
    policy: SchedPolicy,
    data: &[F16],
    order: SortOrder,
    bits: u32,
) -> String {
    let spec = spec.with_scheduler(policy);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let x = GlobalTensor::from_slice(&gm, data).unwrap();
    let (run, profile) = prof::with_profiling(&gm, || {
        radix_sort_bits(&spec, &gm, &x, order, bits).unwrap()
    });
    // The tiny chip runs 4 lanes per wave: this sort's passes span
    // several waves of multi-piece lanes.
    assert!(profile
        .kernels
        .iter()
        .any(|k| k.name == "RadixSplit" && k.blocks > spec.ai_cores));
    let values: Vec<u16> = run.values.to_vec().iter().map(|v| v.to_bits()).collect();
    format!(
        "{}|{}|{values:?}|{:?}",
        run.report.to_json(&spec),
        profile.to_chrome_json(),
        run.indices.to_vec()
    )
}

fn keys(n: u32) -> Vec<F16> {
    (0..n)
        .map(|i| F16::from_bits(((i * 7919) % 65_521) as u16))
        .collect()
}

fn assert_schedulers_agree(spec: ChipSpec, data: &[F16], bits: u32) {
    for order in [SortOrder::Ascending, SortOrder::Descending] {
        let serial = sort_under(spec.clone(), SchedPolicy::Serial, data, order, bits);
        let parallel = sort_under(spec.clone(), SchedPolicy::Parallel, data, order, bits);
        assert!(serial.contains("\"criticalPaths\""), "{order:?}");
        assert_eq!(
            serial, parallel,
            "{order:?}: serial and parallel schedulers must report byte-identically"
        );
    }
}

#[test]
fn fused_sort_reports_identically_under_both_schedulers() {
    assert_schedulers_agree(ChipSpec::tiny(), &keys(9000), 16);
}

#[test]
fn wide_digit_sort_reports_identically_under_both_schedulers() {
    // Launches as dear as the 910B4's push the size rule to digits
    // wider than the tiny chip's 2 bits, and 13 key bits leave a
    // narrower last digit: passes with 8- or 16-way look-back rows and
    // a 2-way tail.
    let spec = ChipSpec {
        launch_cycles: 9_000,
        ..ChipSpec::tiny()
    };
    let data = keys(9000);
    let r = digit_bits::<F16>(&spec, data.len(), 13);
    assert!(r > 2 && 13 % r == 1, "digit width {r}");
    assert_schedulers_agree(spec, &data, 13);
}
