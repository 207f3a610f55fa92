//! End-to-end and per-layer benchmark of the `ascend-scan` simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scan_latency|scan_bulk|operators> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Load is a closed loop with one client:
//! one thread of this process makes the `Device` calls of a pass back to
//! back, and the next pass starts when the previous one has been checked.
//! Every pass uses a fresh `Device` (its global memory is a bump
//! allocator that never frees). Inputs come from `--seed`; generating
//! them and checking every output happen outside the timed region.
//!
//! Two clocks are reported. The *device* clock is the simulated Ascend
//! 910B4 time; it is deterministic, so for one seed it repeats exactly
//! and any difference between passes fails the run. It is not validated
//! against Ascend hardware, so no error figure is given. The *host*
//! clock is the CPU time of this process over all its threads (see
//! `clock`), reported as medians with quartiles and sample counts; the
//! wall time of a pass is reported beside it.
//!
//! `--trace 0` measures the end-to-end metrics with no profiler
//! attached. `--trace 1` is a separate run that splits `--seconds` into
//! untraced passes under `Full` validation, passes under `Off`
//! validation, and passes wrapped in `with_profiling`, and reports the
//! per-layer metrics. It fails on any inconsistency between the layers.
//! The metric names and units must match `BENCHMARK.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits with 1 when the run is not correct.

mod clock;
mod layers;
mod stats;
mod workload;

use ascend_scan::sim::ValidationMode;
use ascend_scan::ChipSpec;
use layers::{check_bench_scan_row, EngineTotals, ScanKernels, TracedPass, CRIT_CLASSES, ENGINES};
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{Call, DeviceTotals, Op, Pass, Tally, Workload};

const USAGE: &str =
    "usage: perfbench --workload <scan_latency|scan_bulk|operators> --seed <n> --seconds <s> --trace <0|1>";

/// `BENCHMARK.json`, which declares the metrics this program prints.
const DECLARATION: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let name = take("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("--seconds")?
        .parse()
        .ok()
        .filter(|s| (1..=120).contains(s))
        .ok_or("--seconds must be a whole number from 1 to 120")?;
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The metrics a run prints, in order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a run found: call counts, failed consistency checks, metrics.
#[derive(Default)]
struct Outcome {
    tally: Tally,
    failures: Vec<String>,
    metrics: Metrics,
}

/// Runs passes of one workload, checking each one's outputs and its
/// simulated counters against the first pass's.
struct Runner<'a> {
    calls: &'a [Call],
    fingerprint: Vec<String>,
    tally: Tally,
    failures: Vec<String>,
}

impl<'a> Runner<'a> {
    /// Makes a first, untimed pass (lazy set-up finishes there) whose
    /// simulated counters every later pass must reproduce.
    fn new(calls: &'a [Call], spec: &ChipSpec) -> (Self, Pass) {
        let warm = Pass::run(calls, spec, false);
        let runner = Runner {
            calls,
            fingerprint: warm.fingerprint(calls),
            tally: warm.check(calls),
            failures: Vec::new(),
        };
        (runner, warm)
    }

    /// Runs passes until `until` (at least one), handing each to `each`.
    fn run_until(
        &mut self,
        spec: &ChipSpec,
        traced: bool,
        until: Instant,
        mut each: impl FnMut(&Pass, &mut Vec<String>),
    ) {
        loop {
            let pass = Pass::run(self.calls, spec, traced);
            self.tally.absorb(pass.check(self.calls));
            if pass.fingerprint(self.calls) != self.fingerprint {
                self.failures.push(format!(
                    "determinism: a pass (validation {:?}, traced {traced}) changed a simulated counter",
                    spec.validation
                ));
            }
            each(&pass, &mut self.failures);
            if Instant::now() >= until {
                break;
            }
        }
    }
}

fn print_summary(name: &str, unit: &str, s: &Summary) {
    println!(
        "  {name:<34} median {:.4} {unit}, quartiles {:.4} .. {:.4}, p90 {:.4}, {} samples",
        s.p50, s.p25, s.p75, s.p90, s.samples
    );
}

/// The `--trace 0` run: end-to-end metrics with no profiler attached.
fn end_to_end(calls: &[Call], spec: &ChipSpec, seconds: u64, out: &mut Outcome) {
    let (mut runner, warm) = Runner::new(calls, spec);
    let device = DeviceTotals::of(&warm, calls);
    // The peak of the process's first pass. Later passes reuse memory
    // the allocator kept, and how much it keeps varies from process to
    // process (by up to a fifth of the total on scan_latency).
    let first_pass_rss_mb = warm.peak_rss_mb;
    drop(warm);
    let (mut setup_s, mut cpu_ms, mut wall_ms) = (Vec::new(), Vec::new(), Vec::new());
    let until = Instant::now() + Duration::from_secs(seconds);
    runner.run_until(spec, false, until, |pass, _| {
        setup_s.push(pass.setup_s);
        cpu_ms.push(pass.cpu_s() * 1e3);
        wall_ms.push(pass.wall_s * 1e3);
    });
    println!("host timings over {} passes:", cpu_ms.len());
    print_summary("host_cpu_ms", "ms", &Summary::of(&cpu_ms));
    print_summary("wall ms", "ms", &Summary::of(&wall_ms));
    print_summary("setup_s", "s", &Summary::of(&setup_s));
    println!(
        "peak RSS: {first_pass_rss_mb:.1} MB after the first pass, {:.1} MB after all",
        workload::peak_rss_mb()
    );
    out.tally = runner.tally;
    out.failures = runner.failures;
    let m = &mut out.metrics;
    m.add("device_us", device.time_us, "us");
    m.add(
        "device_bytes_per_elem",
        ratio(device.bytes as f64, device.elements as f64),
        "B/elem",
    );
    m.add("host_cpu_ms", median(&cpu_ms), "ms");
    m.add("setup_s", median(&setup_s), "s");
    m.add("peak_rss_mb", first_pass_rss_mb, "MB");
    m.add(
        "op_success_ratio",
        1.0 - ratio(out.tally.failed() as f64, out.tally.attempted as f64),
        "ratio",
    );
}

/// Host CPU milliseconds per operator in one pass.
fn op_ms(pass: &Pass, calls: &[Call]) -> BTreeMap<Op, f64> {
    let mut ms = BTreeMap::new();
    for (call, s) in calls.iter().zip(&pass.call_s) {
        *ms.entry(call.op).or_default() += s * 1e3;
    }
    ms
}

/// The `--trace 1` run: per-layer metrics and consistency checks.
fn traced(calls: &[Call], spec: &ChipSpec, seed: u64, seconds: u64, out: &mut Outcome) {
    let mut direct = Tally::default();
    let kernels = ScanKernels::measure(calls, spec, seed, &mut direct);
    match check_bench_scan_row(spec, &mut direct) {
        Ok((mc, sc)) => println!(
            "4M fp16 direct scans match BENCH_scan.json: MCScan {mc:.3} us, ScanC {sc:.3} us"
        ),
        Err(e) => out.failures.push(e),
    }

    let (mut runner, warm) = Runner::new(calls, spec);
    let engines = EngineTotals::of(warm.reports(calls).map(|(_, r)| r));
    let mut op_us: BTreeMap<Op, f64> = BTreeMap::new();
    for (call, r) in warm.reports(calls) {
        *op_us.entry(call.op).or_default() += r.time_us();
    }
    drop(warm);

    // Thirds of the run: Full untraced, Off untraced, Full traced.
    let start = Instant::now();
    let phase_end = |k: u32| start + Duration::from_secs(seconds) * k / 3;
    let (mut full_ms, mut full_wall_ms) = (Vec::new(), Vec::new());
    let mut op_ms_full = BTreeMap::<Op, Vec<f64>>::new();
    runner.run_until(spec, false, phase_end(1), |pass, _| {
        full_ms.push(pass.cpu_s() * 1e3);
        full_wall_ms.push(pass.wall_s * 1e3);
        for (op, ms) in op_ms(pass, calls) {
            op_ms_full.entry(op).or_default().push(ms);
        }
    });
    let mut off_ms = Vec::new();
    let off = spec.clone().with_validation(ValidationMode::Off);
    runner.run_until(&off, false, phase_end(2), |pass, _| {
        off_ms.push(pass.cpu_s() * 1e3);
    });
    let (mut traced_ms, mut hb_ms, mut audit_trace_ms, mut audit_schedule_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut layers: Option<TracedPass> = None;
    runner.run_until(spec, true, phase_end(3), |pass, failures| {
        traced_ms.push(pass.cpu_s() * 1e3);
        let t = TracedPass::of(pass, calls, spec, failures);
        hb_ms.push(t.hb_analyze_s * 1e3);
        audit_trace_ms.push(t.audit_trace_s * 1e3);
        audit_schedule_ms.push(t.audit_schedule_s * 1e3);
        match &layers {
            None => layers = Some(t),
            Some(first) => {
                let sim =
                    |t: &TracedPass| (t.crit, t.op_crit.clone(), t.launches, t.blocks, t.records);
                if sim(first) != sim(&t) {
                    failures.push("determinism: a traced pass changed a recorded count".into());
                }
            }
        }
    });
    let layers = layers.expect("the traced phase runs at least one pass");
    runner.tally.absorb(direct);
    out.tally = runner.tally;
    out.failures.append(&mut runner.failures);

    let full = Summary::of(&full_ms);
    let off_median = median(&off_ms);
    println!("host timings:");
    print_summary("pass_ms (Full, untraced)", "ms", &full);
    print_summary(
        "wall ms (Full, untraced)",
        "ms",
        &Summary::of(&full_wall_ms),
    );
    print_summary("pass_ms (Off, untraced)", "ms", &Summary::of(&off_ms));
    print_summary("pass_ms (Full, traced)", "ms", &Summary::of(&traced_ms));
    println!("critical path per operator (cycles):");
    for (op, crit) in &layers.op_crit {
        let parts: Vec<String> = CRIT_CLASSES
            .iter()
            .zip(crit)
            .map(|(c, v)| format!("{c}={v}"))
            .collect();
        println!("  {:<16} {}", op.label(), parts.join(" "));
    }

    let m = &mut out.metrics;
    for (class, v) in CRIT_CLASSES.iter().zip(layers.crit) {
        m.add(format!("sim.crit.{class}_cycles"), v as f64, "cycles");
    }
    for (e, row) in ENGINES.iter().zip(engines.engines) {
        for (what, v) in [
            "busy_cycles",
            "stall_dependency",
            "stall_barrier",
            "stall_flag",
        ]
        .iter()
        .zip(row)
        {
            m.add(
                format!("sim.engine.{}.{what}", e.name()),
                v as f64,
                "cycles",
            );
        }
    }
    m.add("sim.instructions", engines.instructions as f64, "count");
    m.add("sim.sync_rounds", engines.sync_rounds as f64, "count");
    m.add(
        "sim.useful_byte_ratio",
        ratio(engines.useful_bytes as f64, engines.moved_bytes as f64),
        "ratio",
    );
    m.add("host.validation_ms", full.p50 - off_median, "ms");
    m.add("host.hb_analyze_ms", median(&hb_ms), "ms");
    m.add("host.audit_trace_ms", median(&audit_trace_ms), "ms");
    m.add("host.audit_schedule_ms", median(&audit_schedule_ms), "ms");
    m.add(
        "host.ns_per_sim_instr",
        ratio(full.p50 * 1e6, engines.instructions as f64),
        "ns/instr",
    );
    for (what, v) in ["events", "stall_events", "hb_events", "spans"]
        .iter()
        .zip(layers.records)
    {
        m.add(format!("sim.record.{what}"), v as f64, "count");
    }
    m.add("ascendc.launches", layers.launches as f64, "count");
    m.add("ascendc.blocks", layers.blocks as f64, "count");
    m.add(
        "ascendc.host_ms_per_launch",
        ratio(off_median, layers.launches as f64),
        "ms",
    );
    let elems = kernels.elements as f64;
    m.add("scan.mcscan.device_us", kernels.mcscan_us, "us");
    m.add("scan.scanc.device_us", kernels.scanc_us, "us");
    m.add(
        "scan.mcscan.bytes_per_elem",
        ratio(kernels.mcscan_bytes as f64, elems),
        "B/elem",
    );
    m.add(
        "scan.scanc.bytes_per_elem",
        ratio(kernels.scanc_bytes as f64, elems),
        "B/elem",
    );
    m.add("scan.scanc.chain_hops", kernels.chain_hops as f64, "count");
    m.add(
        "scan.scanc.lookback_chain_share",
        ratio(kernels.lookback_chain as f64, kernels.scanc_makespan as f64),
        "ratio",
    );
    m.add(
        "scan.device_share",
        ratio(layers.scan_cycles as f64, layers.cycles as f64),
        "ratio",
    );
    for op in [Op::TopP, Op::Sort, Op::Compress, Op::Weighted] {
        let label = op.label();
        m.add(
            format!("ops.{label}.device_us"),
            op_us.get(&op).copied().unwrap_or(0.0),
            "us",
        );
        let launches = layers.op_launches.get(&op).copied().unwrap_or(0);
        m.add(format!("ops.{label}.launches"), launches as f64, "count");
        let ms = op_ms_full.get(&op).map_or(0.0, |v| median(v));
        m.add(format!("ops.{label}.host_ms"), ms, "ms");
    }
    m.add("host.pass_ms.p25", full.p25, "ms");
    m.add("host.pass_ms.p75", full.p75, "ms");
    m.add("host.pass_ms.p90", full.p90, "ms");
    m.add("host.pass_wall_ms", median(&full_wall_ms), "ms");
    m.add("host.passes", full.samples as f64, "count");
    m.add(
        "host.trace_overhead_ms",
        median(&traced_ms) - full.p50,
        "ms",
    );
    m.add("check.sim_errors", out.tally.sim_errors as f64, "count");
    m.add("check.mismatches", out.tally.mismatches as f64, "count");
    m.add(
        "check.op_fail_ratio",
        ratio(out.tally.failed() as f64, out.tally.attempted as f64),
        "ratio",
    );
}

/// Checks the printed metrics against the `end_to_end` (untraced run)
/// or `per_layer` (traced run) list that `BENCHMARK.json` declares:
/// the same names, in order, with the same units.
fn check_declared(metrics: &Metrics, trace: bool) -> Result<(), String> {
    let doc = std::fs::read_to_string(DECLARATION).map_err(|e| format!("{DECLARATION}: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let declared: Vec<(Option<&str>, Option<&str>)> = bench::json_array_objects(&doc, key)?
        .into_iter()
        .map(|o| {
            (
                bench::json_str_field(o, "name"),
                bench::json_str_field(o, "unit"),
            )
        })
        .collect();
    let printed: Vec<(Option<&str>, Option<&str>)> = metrics
        .0
        .iter()
        .map(|(n, _, u)| (Some(n.as_str()), Some(*u)))
        .collect();
    if declared != printed {
        return Err(format!(
            "printed metrics differ from the {key} list of BENCHMARK.json"
        ));
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let spec = ChipSpec::ascend_910b4();
    println!(
        "workload {} seed {} ({} s, trace {}): closed loop, 1 client",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let calls = args.workload.plan(args.seed, &spec).unwrap_or_else(|e| {
        eprintln!("generating the expected outputs failed: {e}");
        std::process::exit(1);
    });
    for c in &calls {
        println!("  call {:<16} n = {}", c.op.label(), c.n);
    }

    let mut out = Outcome::default();
    if args.trace {
        traced(&calls, &spec, args.seed, args.seconds, &mut out);
    } else {
        end_to_end(&calls, &spec, args.seconds, &mut out);
    }
    if let Err(e) = check_declared(&out.metrics, args.trace) {
        out.failures.push(e);
    }
    for (name, v, unit) in &out.metrics.0 {
        if !v.is_finite() {
            out.failures.push(format!("{name} is not a finite number"));
        }
        println!("{name:<40} {v:>18.4} {unit}");
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = out.tally.failed() == 0 && out.failures.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed(),
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = parse("--workload scan_bulk --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ScanBulk, 42, 10, true)
        );
        let a = parse("--trace 0 --seconds 1 --seed 0 --workload operators").unwrap();
        assert_eq!((a.workload, a.trace), (Workload::Operators, false));
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload scan_bulk --seed -1 --seconds 10 --trace 0",
            "--workload scan_bulk --seed 1 --seconds 0 --trace 0",
            "--workload scan_bulk --seed 1 --seconds 10 --trace 2",
            "--workload scan_bulk --seed 1 --seconds 10 --trace 0 --extra 1",
            "--workload scan_bulk --seed 1 --seed 2 --seconds 10 --trace 0",
            "--workload scan_bulk --seed 1 --seconds 10 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
