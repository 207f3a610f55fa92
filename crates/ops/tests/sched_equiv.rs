//! Serial/parallel scheduler equivalence for the fused radix sort.
//!
//! Every `RadixSplit` pass resolves its lane offsets through the chained
//! look-back, so the sort's reports must be byte-identical under the
//! serial baton and the parallel-round scheduler — the same contract
//! `scan`'s `sched_equiv` gate holds the scan kernels to. The comparison
//! covers the combined report, every launch's full profile (events,
//! spans, happens-before stream and audited critical path) and the
//! sorted output.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::{prof, SchedPolicy};
use ascendc::{ChipSpec, GlobalTensor};
use dtypes::F16;
use ops::radix_sort::{radix_sort, SortOrder};
use std::sync::Arc;

fn sort_under(policy: SchedPolicy, data: &[F16], order: SortOrder) -> String {
    let spec = ChipSpec::tiny().with_scheduler(policy);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let x = GlobalTensor::from_slice(&gm, data).unwrap();
    let (run, profile) = prof::with_profiling(&gm, || radix_sort(&spec, &gm, &x, order).unwrap());
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

#[test]
fn fused_sort_reports_identically_under_both_schedulers() {
    let data: Vec<F16> = (0..6000u32)
        .map(|i| F16::from_bits(((i * 7919) % 65_521) as u16))
        .collect();
    for order in [SortOrder::Ascending, SortOrder::Descending] {
        let serial = sort_under(SchedPolicy::Serial, &data, order);
        let parallel = sort_under(SchedPolicy::Parallel, &data, order);
        assert!(serial.contains("\"criticalPaths\""), "{order:?}");
        assert_eq!(
            serial, parallel,
            "{order:?}: serial and parallel schedulers must report byte-identically"
        );
    }
}
