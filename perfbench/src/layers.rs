//! Per-layer measurements of the traced run, taken from outside the
//! layers: launch profiles, timed calls into the simulator's audit and
//! analysis functions, and direct calls into the scan kernels. Also the
//! consistency checks that fail a traced run.

use crate::clock::cpu_seconds;
use crate::workload::{telescoping_f16, Call, Op, Pass, Tally};
use ascend_scan::dtypes::F16;
use ascend_scan::scan::{mcscan, reference, scanc, McScanConfig, ScanCConfig};
use ascend_scan::sim::{hb, simcheck, trace, CritSummary, EngineKind};
use ascend_scan::{ChipSpec, Device, KernelReport, SimResult};
use std::collections::{BTreeMap, BTreeSet};

/// Critical-path classes, in `CritSummary` field order.
pub const CRIT_CLASSES: [&str; 6] = [
    "launch",
    "busy",
    "flag_wire",
    "chain_wire",
    "barrier_release",
    "hbm",
];

fn crit_classes(s: &CritSummary) -> [u64; 6] {
    [
        s.launch,
        s.busy,
        s.flag_wire,
        s.chain_wire,
        s.barrier_release,
        s.hbm,
    ]
}

/// What one traced pass shows about the layers below `Device`.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Critical-path cycles per class, summed over the pass's launches.
    pub crit: [u64; 6],
    /// The same, per operator: each operator's path is the
    /// concatenation of its launches' paths.
    pub op_crit: BTreeMap<Op, [u64; 6]>,
    pub op_launches: BTreeMap<Op, u64>,
    pub launches: u64,
    pub blocks: u64,
    /// Recorded events, stall intervals, happens-before events, spans.
    pub records: [u64; 4],
    /// Launch cycles spent in MCScan and ScanC launches, and in all.
    pub scan_cycles: u64,
    pub cycles: u64,
    pub hb_analyze_s: f64,
    pub audit_trace_s: f64,
    pub audit_schedule_s: f64,
}

impl TracedPass {
    /// Reads a traced pass's profiles, timing the simulator's audits
    /// and happens-before analysis over them, and checks that
    /// - every operator's launches add up to its report's cycles, and
    /// - every launch's critical-path classes add up to its makespan.
    pub fn of(pass: &Pass, calls: &[Call], spec: &ChipSpec, failures: &mut Vec<String>) -> Self {
        let mut t = TracedPass::default();
        for ((call, run), profile) in calls.iter().zip(&pass.runs).zip(&pass.profiles) {
            let Ok(run) = run else { continue };
            let label = format!("{} n={}", call.op.label(), call.n);
            let launch_cycles: u64 = profile.kernels.iter().map(|k| k.cycles).sum();
            if launch_cycles != run.report().cycles {
                failures.push(format!(
                    "{label}: launches add up to {launch_cycles} cycles, the report says {}",
                    run.report().cycles
                ));
            }
            *t.op_launches.entry(call.op).or_default() += profile.kernels.len() as u64;
            let op_crit = t.op_crit.entry(call.op).or_default();
            for k in &profile.kernels {
                t.launches += 1;
                t.blocks += u64::from(k.blocks);
                t.cycles += k.cycles;
                if matches!(k.name.as_str(), "MCScan" | "ScanC") {
                    t.scan_cycles += k.cycles;
                }
                t.records[0] += k.events.len() as u64;
                t.records[1] += k.stall_events.len() as u64;
                t.records[2] += k.hb_events.len() as u64;
                t.records[3] += k.spans.len() as u64;
                match &k.critical_path {
                    None => {
                        failures.push(format!("{label}: launch {} has no critical path", k.name))
                    }
                    Some(cp) => {
                        let classes = crit_classes(&cp.summary);
                        let sum: u64 = classes.iter().sum();
                        if sum != cp.summary.makespan || cp.summary.makespan != k.cycles {
                            failures.push(format!(
                                "{label}: launch {} critical path classes sum to {sum}, \
                                 makespan {}, cycles {}",
                                k.name, cp.summary.makespan, k.cycles
                            ));
                        }
                        for i in 0..6 {
                            t.crit[i] += classes[i];
                            op_crit[i] += classes[i];
                        }
                    }
                }
                let t0 = cpu_seconds();
                std::hint::black_box(hb::analyze(&k.hb_events));
                let t1 = cpu_seconds();
                let audited = simcheck::audit_trace_events(&k.events).and_then(|()| {
                    trace::audit_physical_occupancy(&k.events, k.blocks.min(spec.ai_cores))
                });
                let t2 = cpu_seconds();
                let scheduled = simcheck::audit_schedule(&k.hb_events);
                let t3 = cpu_seconds();
                t.hb_analyze_s += t1 - t0;
                t.audit_trace_s += t2 - t1;
                t.audit_schedule_s += t3 - t2;
                for e in [audited.err(), scheduled.err()].into_iter().flatten() {
                    failures.push(format!("{label}: launch {}: {e}", k.name));
                }
            }
        }
        t
    }
}

/// Engines reported per layer, with their stall causes.
pub const ENGINES: [EngineKind; 5] = [
    EngineKind::Mte2,
    EngineKind::Mte3,
    EngineKind::Vec,
    EngineKind::Cube,
    EngineKind::Scalar,
];

/// Sums of the simulated counters of a pass's reports.
#[derive(Debug, Default)]
pub struct EngineTotals {
    /// Per engine of [`ENGINES`]: busy, dependency, barrier and flag
    /// stall cycles.
    pub engines: [[u64; 4]; 5],
    pub instructions: u64,
    pub sync_rounds: u64,
    pub useful_bytes: u64,
    pub moved_bytes: u64,
}

impl EngineTotals {
    pub fn of<'a>(reports: impl Iterator<Item = &'a KernelReport>) -> Self {
        let mut t = EngineTotals::default();
        for r in reports {
            for (row, e) in t.engines.iter_mut().zip(ENGINES) {
                let i = e.index();
                row[0] += r.engine_busy[i];
                row[1] += r.stalls.dependency[i];
                row[2] += r.stalls.barrier[i];
                row[3] += r.stalls.flag[i];
            }
            t.instructions += r.engine_instructions.iter().sum::<u64>();
            t.sync_rounds += r.sync_rounds;
            t.useful_bytes += r.useful_bytes;
            t.moved_bytes += r.bytes_read + r.bytes_written;
        }
        t
    }
}

/// Direct MCScan and ScanC calls at the scan sizes a workload uses.
#[derive(Debug, Default)]
pub struct ScanKernels {
    pub mcscan_us: f64,
    pub scanc_us: f64,
    pub mcscan_bytes: u64,
    pub scanc_bytes: u64,
    pub elements: u64,
    pub chain_hops: u64,
    pub lookback_chain: u64,
    pub scanc_makespan: u64,
}

/// The (input is fp16, size) pairs a workload's calls scan: fp16
/// cumulative sums and u8 mask scans.
fn scan_sizes(calls: &[Call]) -> BTreeSet<(bool, usize)> {
    let mut sizes = BTreeSet::new();
    for c in calls {
        let (fp16, mask) = match c.op {
            Op::Cumsum | Op::Weighted => (true, false),
            Op::MaskScan | Op::Sort | Op::Compress => (false, true),
            Op::TopP => (true, true),
        };
        if fp16 {
            sizes.insert((true, c.n));
        }
        if mask {
            sizes.insert((false, c.n));
        }
    }
    sizes
}

impl ScanKernels {
    /// Runs both kernels, inclusive, with their chip defaults on a
    /// fresh device each, and checks every output against the
    /// sequential reference.
    pub fn measure(calls: &[Call], spec: &ChipSpec, seed: u64, tally: &mut Tally) -> Self {
        let mut k = ScanKernels::default();
        for (fp16, n) in scan_sizes(calls) {
            let (mc, sc) = scan_pair(spec, fp16, n, seed, tally);
            k.elements += n as u64;
            if let Some(r) = mc {
                k.mcscan_us += r.time_us();
                k.mcscan_bytes += r.bytes_read + r.bytes_written;
            }
            if let Some(r) = sc {
                k.scanc_us += r.time_us();
                k.scanc_bytes += r.bytes_read + r.bytes_written;
                if let Some(cp) = &r.critical_path {
                    k.chain_hops += cp.chain_hops as u64;
                    k.lookback_chain += cp.lookback_chain;
                    k.scanc_makespan += cp.makespan;
                }
            }
        }
        k
    }
}

/// MCScan and ScanC, inclusive and with their chip defaults, over the
/// same `n`-element input: fp16, or a u8 mask widened to i32. Returns
/// the reports of the runs that succeeded.
fn scan_pair(
    spec: &ChipSpec,
    fp16: bool,
    n: usize,
    seed: u64,
    tally: &mut Tally,
) -> (Option<KernelReport>, Option<KernelReport>) {
    if fp16 {
        let x = telescoping_f16(n, seed);
        let want = reference::inclusive_widening::<F16, F16>(&x);
        let mc = scan_once(spec, &x, &want, tally, "MCScan fp16", |d, t| {
            mcscan::<F16, F16, F16>(d.spec(), d.memory(), t, McScanConfig::for_chip(spec))
        });
        let sc = scan_once(spec, &x, &want, tally, "ScanC fp16", |d, t| {
            let cfg = ScanCConfig::for_chip::<F16, F16>(spec);
            scanc::<F16, F16, F16>(d.spec(), d.memory(), t, cfg)
        });
        (mc, sc)
    } else {
        let x = bench::synth_mask(n, seed);
        let want = reference::inclusive_widening::<u8, i32>(&x);
        let mc = scan_once(spec, &x, &want, tally, "MCScan int8", |d, t| {
            mcscan::<u8, i16, i32>(d.spec(), d.memory(), t, McScanConfig::for_chip(spec))
        });
        let sc = scan_once(spec, &x, &want, tally, "ScanC int8", |d, t| {
            let cfg = ScanCConfig::for_chip::<i16, i32>(spec);
            scanc::<u8, i16, i32>(d.spec(), d.memory(), t, cfg)
        });
        (mc, sc)
    }
}

/// One direct scan on a fresh device; counts it and returns its report
/// when it succeeded.
fn scan_once<T, O>(
    spec: &ChipSpec,
    x: &[T],
    want: &[O],
    tally: &mut Tally,
    label: &str,
    kernel: impl FnOnce(&Device, &ascend_scan::GlobalTensor<T>) -> SimResult<ascend_scan::ScanRun<O>>,
) -> Option<KernelReport>
where
    T: ascend_scan::Element,
    O: ascend_scan::Element + PartialEq,
{
    let dev = Device::with_spec(spec.clone());
    let run = dev.tensor(x).and_then(|t| kernel(&dev, &t));
    let label = format!("{label} n={}", x.len());
    tally.count(&label, run.as_ref().map(|r| r.y.to_vec() == want));
    run.ok().map(|r| r.report)
}

/// The committed `BENCH_scan.json` this benchmark reads (never writes).
const BENCH_SCAN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_scan.json");

/// Checks that MCScan and ScanC at 4M fp16 still take the simulated
/// times of the committed `BENCH_scan.json` traffic row, to the file's
/// three decimals. Returns the two times.
pub fn check_bench_scan_row(spec: &ChipSpec, tally: &mut Tally) -> Result<(f64, f64), String> {
    const N: usize = 1 << 22;
    let doc = std::fs::read_to_string(BENCH_SCAN).map_err(|e| format!("{BENCH_SCAN}: {e}"))?;
    let row = bench::json_array_objects(&doc, "traffic")?
        .into_iter()
        .find(|r| {
            bench::json_num_field(r, "n") == Ok(N as f64)
                && bench::json_str_field(r, "dtype") == Some("fp16")
        })
        .ok_or("BENCH_scan.json has no 4M fp16 traffic row")?;
    // Simulated scan time does not depend on the values.
    let (mc, sc) = scan_pair(spec, true, N, 1, tally);
    let (Some(mc), Some(sc)) = (mc, sc) else {
        return Err("4M fp16 direct scans failed".into());
    };
    for (key, got) in [
        ("mcscan_time_us", mc.time_us()),
        ("scanc_time_us", sc.time_us()),
    ] {
        let committed = bench::json_num_field(row, key)?;
        if format!("{got:.3}") != format!("{committed:.3}") {
            return Err(format!(
                "4M fp16 {key}: {got:.3} simulated, {committed:.3} committed"
            ));
        }
    }
    Ok((mc.time_us(), sc.time_us()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pass_composes_operator_paths_and_flags_inconsistencies() {
        let spec = ChipSpec::ascend_910b4();
        let calls = [
            Call::new(Op::Sort, 3_000, 1, &spec).unwrap(),
            Call::new(Op::Compress, 30_000, 2, &spec).unwrap(),
        ];
        let mut pass = Pass::run(&calls, &spec, true);
        let mut failures = Vec::new();
        let t = TracedPass::of(&pass, &calls, &spec, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        let cycles: u64 = pass.reports(&calls).map(|(_, r)| r.cycles).sum();
        assert_eq!(t.crit.iter().sum::<u64>(), cycles);
        assert_eq!(t.cycles, cycles);
        for (call, (_, r)) in calls.iter().zip(pass.reports(&calls)) {
            assert_eq!(t.op_crit[&call.op].iter().sum::<u64>(), r.cycles);
        }
        assert_eq!(t.op_launches[&Op::Compress], 2);
        assert_eq!(t.launches, t.op_launches.values().sum::<u64>());

        // A launch whose cycles no longer match its operator's report or
        // its own critical path fails both checks.
        pass.profiles[1].kernels[0].cycles += 1;
        TracedPass::of(&pass, &calls, &spec, &mut failures);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }
}
