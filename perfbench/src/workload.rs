//! The benchmark's workloads: which `Device` calls a pass makes, their
//! seeded inputs, the expected outputs, and one timed pass.

use crate::clock::cpu_seconds;
use ascend_scan::dtypes::{RadixKey, F16};
use ascend_scan::ops::compress::CompressRun;
use ascend_scan::ops::topp::TopPRun;
use ascend_scan::ops::weighted::WeightedRun;
use ascend_scan::ops::{split::reference_split, SortOrder, SortRun};
use ascend_scan::scan::reference;
use ascend_scan::sim::Profile;
use ascend_scan::{ChipSpec, Device, GlobalTensor, KernelReport, ScanRun, SimError, SimResult};
use std::cmp::Reverse;
use std::time::Instant;

/// Nucleus mass of every top-p call.
const TOP_P: f64 = 0.9;

/// A named set of calls; one pass makes each call once, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Scans from 16K to 1M elements, where device time is set by
    /// launch and synchronisation cost rather than bytes, and where
    /// ScanC still loses to MCScan.
    ScanLatency,
    /// Scans of 4M and 16M elements: device time is bound by HBM and
    /// host time by per-instruction simulation.
    ScanBulk,
    /// The paper's scan-based operators (Figs. 10, 11, 13): many
    /// launches per call, with exclusive mask scans between mask and
    /// scatter launches and host readbacks between them.
    Operators,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanLatency,
        Workload::ScanBulk,
        Workload::Operators,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanLatency => "scan_latency",
            Workload::ScanBulk => "scan_bulk",
            Workload::Operators => "operators",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The calls of one pass at their nominal sizes.
    fn nominal(self) -> Vec<(Op, usize)> {
        const K: usize = 1 << 10;
        const M: usize = 1 << 20;
        match self {
            Workload::ScanLatency => [16 * K, 64 * K, 256 * K, M]
                .into_iter()
                .flat_map(|n| [(Op::Cumsum, n), (Op::MaskScan, n)])
                .collect(),
            Workload::ScanBulk => vec![
                (Op::Cumsum, 4 * M),
                (Op::Cumsum, 16 * M),
                (Op::MaskScan, 4 * M),
            ],
            Workload::Operators => vec![
                (Op::TopP, 32 * K),
                (Op::TopP, 128 * K),
                (Op::Sort, 64 * K),
                (Op::Compress, M),
                (Op::Weighted, M),
            ],
        }
    }

    /// Each call's operator, size and input seed.
    ///
    /// Each size is its nominal value plus a seeded offset below 1/64
    /// of it, so that simulated times differ across seeds (the
    /// simulator is deterministic: a fixed size gives a fixed time)
    /// while staying within about 1.6% of the nominal figure.
    fn seeded(self, seed: u64) -> Vec<(Op, usize, u64)> {
        let mut rng = SplitMix(seed);
        self.nominal()
            .into_iter()
            .map(|(op, nominal)| {
                let n = nominal + (rng.next() % (nominal as u64 / 64)) as usize;
                (op, n, rng.next())
            })
            .collect()
    }

    /// The seeded calls of one pass, with their expected outputs.
    pub fn plan(self, seed: u64, spec: &ChipSpec) -> SimResult<Vec<Call>> {
        self.seeded(seed)
            .into_iter()
            .map(|(op, n, call_seed)| Call::new(op, n, call_seed, spec))
            .collect()
    }
}

/// The `Device` entry point a call exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `Device::cumsum`, fp16 inclusive.
    Cumsum,
    /// `Device::mask_exclusive_scan`, u8 → i32 exclusive.
    MaskScan,
    /// `Device::top_p` at `p = 0.9`.
    TopP,
    /// `Device::sort`, fp16 ascending.
    Sort,
    /// `Device::compress` of fp16 values by a Bernoulli(1/2) mask.
    Compress,
    /// `Device::weighted_sample` over fp16 weights.
    Weighted,
}

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::Cumsum => "cumsum",
            Op::MaskScan => "mask_scan",
            Op::TopP => "top_p",
            Op::Sort => "sort",
            Op::Compress => "compress",
            Op::Weighted => "weighted_sample",
        }
    }
}

/// One call: the operator, its host inputs and its expected output.
pub struct Call {
    pub op: Op,
    pub n: usize,
    values: Vec<F16>,
    mask: Vec<u8>,
    theta: f64,
    expected: Output,
}

/// A call's output, read back from the device; compared with `==`
/// against the host-computed expectation. fp16 values compare by bits.
#[derive(Debug, PartialEq, Eq)]
pub enum Output {
    F16Bits(Vec<u16>),
    I32s(Vec<i32>),
    Draw { token: u32, n_kept: usize },
    Sorted { bits: Vec<u16>, indices: Vec<u32> },
    Index(usize),
}

fn bits(v: &[F16]) -> Vec<u16> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// fp16 values in {-1, 0, 1} whose every contiguous partial sum is in
/// {-1, 0, 1}: the differences of a seeded 0/1 sequence. Any
/// association order of an fp16 scan is exact on them, so the scan must
/// match the sequential reference bit for bit. (Values spread over the
/// fp16 range instead overflow past ~16K elements, and their rounding
/// depends on the kernel's association order.)
pub fn telescoping_f16(n: usize, seed: u64) -> Vec<F16> {
    let d: Vec<f32> = bench::synth_f16(n + 1, seed)
        .iter()
        .map(|v| f32::from(u8::from(!v.is_sign_negative())))
        .collect();
    d.windows(2).map(|w| F16::from_f32(w[1] - w[0])).collect()
}

/// The fp16 CDF the scan layer's public entry computes for `w`.
fn device_cdf(spec: &ChipSpec, w: &[F16]) -> SimResult<Vec<F16>> {
    let dev = Device::with_spec(spec.clone());
    Ok(dev.cumsum(&dev.tensor(w)?)?.y.to_vec())
}

/// First index `i < cdf.len()` with `cdf[i] > theta · cdf[last]`, or
/// the last index: the inverse-transform rule of weighted sampling.
fn inverse_transform(cdf: &[F16], theta: f64) -> usize {
    let threshold = F16::from_f64(theta * cdf[cdf.len() - 1].to_f64());
    cdf.iter()
        .position(|&c| c > threshold)
        .unwrap_or(cdf.len() - 1)
}

impl Call {
    /// Generates the call's inputs from `seed` and computes its
    /// expected output on the host.
    ///
    /// The sampling draws are recomputed from the fp16 CDF that
    /// `Device::cumsum` returns for the same (sorted) weights, then the
    /// operator's selection rule is applied on the host. fp16 CDFs over
    /// 1M weights carry up to ~4% of the total mass in rounding, which
    /// depends on the scan's association order, so an exact-arithmetic
    /// draw does not identify the device's draw.
    pub fn new(op: Op, n: usize, seed: u64, spec: &ChipSpec) -> SimResult<Call> {
        let mut rng = SplitMix(seed);
        let (s1, s2) = (rng.next(), rng.next());
        let theta = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let (values, mask, expected) = match op {
            Op::Cumsum => {
                let x = telescoping_f16(n, s1);
                let y = reference::inclusive_widening::<F16, F16>(&x);
                (x, Vec::new(), Output::F16Bits(bits(&y)))
            }
            Op::MaskScan => {
                let m = bench::synth_mask(n, s2);
                let y = reference::exclusive_widening::<u8, i32>(&m);
                (Vec::new(), m, Output::I32s(y))
            }
            Op::TopP => {
                let probs = bench::synth_probs(n, s1);
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by_key(|&i| Reverse(probs[i as usize].encode()));
                let sorted: Vec<F16> = order.iter().map(|&i| probs[i as usize]).collect();
                let cdf = device_cdf(spec, &sorted)?;
                let p_abs = F16::from_f64(TOP_P * cdf[n - 1].to_f64());
                let kept = cdf
                    .iter()
                    .zip(&sorted)
                    .filter(|&(&c, &p)| c - p <= p_abs)
                    .count()
                    .max(1);
                let token = order[inverse_transform(&cdf[..kept], theta)];
                (
                    probs,
                    Vec::new(),
                    Output::Draw {
                        token,
                        n_kept: kept,
                    },
                )
            }
            Op::Sort => {
                let x = bench::synth_f16(n, s1);
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by_key(|&i| x[i as usize].encode());
                let sorted = order.iter().map(|&i| x[i as usize].to_bits()).collect();
                let expected = Output::Sorted {
                    bits: sorted,
                    indices: order,
                };
                (x, Vec::new(), expected)
            }
            Op::Compress => {
                let (x, m) = (bench::synth_f16(n, s1), bench::synth_mask(n, s2));
                let (vals, _, n_true) = reference_split(&x, &m);
                let expected = Output::F16Bits(bits(&vals[..n_true]));
                (x, m, expected)
            }
            Op::Weighted => {
                let w = bench::synth_probs(n, s1);
                let expected = Output::Index(inverse_transform(&device_cdf(spec, &w)?, theta));
                (w, Vec::new(), expected)
            }
        };
        Ok(Call {
            op,
            n,
            values,
            mask,
            theta,
            expected,
        })
    }

    /// Uploads the call's inputs (the set-up a user pays per call).
    fn upload(&self, dev: &Device) -> SimResult<Inputs> {
        let values = if self.values.is_empty() {
            None
        } else {
            Some(dev.tensor(&self.values)?)
        };
        let mask = if self.mask.is_empty() {
            None
        } else {
            Some(dev.tensor(&self.mask)?)
        };
        Ok(Inputs { values, mask })
    }

    /// Makes the device call.
    fn run(&self, dev: &Device, inputs: &Inputs) -> SimResult<Run> {
        let values = || inputs.values.as_ref().expect("call has fp16 inputs");
        let mask = || inputs.mask.as_ref().expect("call has a mask");
        Ok(match self.op {
            Op::Cumsum => Run::F16Scan(dev.cumsum(values())?),
            Op::MaskScan => Run::I32Scan(dev.mask_exclusive_scan(mask())?),
            Op::TopP => Run::TopP(dev.top_p(values(), TOP_P, self.theta)?),
            Op::Sort => Run::Sort(dev.sort(values(), SortOrder::Ascending)?),
            Op::Compress => Run::Compress(dev.compress(values(), mask())?),
            Op::Weighted => Run::Weighted(dev.weighted_sample(values(), self.theta)?),
        })
    }
}

struct Inputs {
    values: Option<GlobalTensor<F16>>,
    mask: Option<GlobalTensor<u8>>,
}

/// The result of one device call.
pub enum Run {
    F16Scan(ScanRun<F16>),
    I32Scan(ScanRun<i32>),
    TopP(TopPRun),
    Sort(SortRun<F16>),
    Compress(CompressRun<F16>),
    Weighted(WeightedRun),
}

impl Run {
    pub fn report(&self) -> &KernelReport {
        match self {
            Run::F16Scan(r) => &r.report,
            Run::I32Scan(r) => &r.report,
            Run::TopP(r) => &r.report,
            Run::Sort(r) => &r.report,
            Run::Compress(r) => &r.report,
            Run::Weighted(r) => &r.report,
        }
    }

    /// Reads the output back from the device.
    fn output(&self) -> Output {
        match self {
            Run::F16Scan(r) => Output::F16Bits(bits(&r.y.to_vec())),
            Run::I32Scan(r) => Output::I32s(r.y.to_vec()),
            Run::TopP(r) => Output::Draw {
                token: r.token,
                n_kept: r.n_kept,
            },
            Run::Sort(r) => Output::Sorted {
                bits: bits(&r.values.to_vec()),
                indices: r.indices.to_vec(),
            },
            Run::Compress(r) => Output::F16Bits(bits(&r.values.to_vec())),
            Run::Weighted(r) => Output::Index(r.index),
        }
    }
}

/// Counts of attempted and failed calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Calls that returned a `SimError`.
    pub sim_errors: u64,
    /// Calls whose output differs from the expected one.
    pub mismatches: u64,
}

impl Tally {
    /// Counts one call's outcome against its expected output.
    pub fn record(&mut self, call: &Call, outcome: &SimResult<Run>) {
        let label = format!("{} n={}", call.op.label(), call.n);
        self.count(
            &label,
            outcome.as_ref().map(|run| run.output() == call.expected),
        );
    }

    /// Counts one call that returned an error or whether its output
    /// matched.
    pub fn count(&mut self, label: &str, outcome: Result<bool, &SimError>) {
        self.attempted += 1;
        match outcome {
            Err(e) => {
                self.sim_errors += 1;
                eprintln!("{label}: {e}");
            }
            Ok(false) => {
                self.mismatches += 1;
                eprintln!("{label}: output mismatch");
            }
            Ok(true) => {}
        }
    }

    pub fn failed(&self) -> u64 {
        self.sim_errors + self.mismatches
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.sim_errors += other.sim_errors;
        self.mismatches += other.mismatches;
    }
}

/// One pass: a fresh `Device`, the uploads, then every call back to
/// back on this thread (closed loop, one client).
pub struct Pass {
    /// CPU seconds in `Device::with_spec` plus the uploads.
    pub setup_s: f64,
    /// Peak resident set size of the process up to the end of the
    /// pass's calls, in MB.
    pub peak_rss_mb: f64,
    /// CPU seconds of each call, in call order.
    pub call_s: Vec<f64>,
    /// Wall seconds of all calls.
    pub wall_s: f64,
    pub runs: Vec<SimResult<Run>>,
    /// Each call's launch profiles (traced passes only).
    pub profiles: Vec<Profile>,
}

impl Pass {
    /// Runs one pass of `calls` on a fresh device built from `spec`.
    /// With `traced`, each call runs under
    /// `ascend_sim::prof::with_profiling`.
    pub fn run(calls: &[Call], spec: &ChipSpec, traced: bool) -> Pass {
        let t0 = cpu_seconds();
        let dev = Device::with_spec(spec.clone());
        let inputs: Vec<SimResult<Inputs>> = calls.iter().map(|c| c.upload(&dev)).collect();
        let setup_s = cpu_seconds() - t0;
        let mut pass = Pass {
            setup_s,
            peak_rss_mb: 0.0,
            call_s: Vec::with_capacity(calls.len()),
            wall_s: 0.0,
            runs: Vec::with_capacity(calls.len()),
            profiles: Vec::new(),
        };
        let wall = Instant::now();
        for (call, inputs) in calls.iter().zip(inputs) {
            let t = cpu_seconds();
            let run = match &inputs {
                Err(e) => Err(e.clone()),
                Ok(i) if traced => {
                    let (run, profile) =
                        ascend_scan::sim::prof::with_profiling(dev.memory(), || call.run(&dev, i));
                    pass.profiles.push(profile);
                    run
                }
                Ok(i) => call.run(&dev, i),
            };
            pass.call_s.push(cpu_seconds() - t);
            pass.runs.push(run);
        }
        pass.wall_s = wall.elapsed().as_secs_f64();
        pass.peak_rss_mb = peak_rss_mb();
        pass
    }

    /// CPU seconds of the pass's calls.
    pub fn cpu_s(&self) -> f64 {
        self.call_s.iter().sum()
    }

    /// Checks every call's output; call outside any timed region.
    pub fn check(&self, calls: &[Call]) -> Tally {
        let mut tally = Tally::default();
        for (call, run) in calls.iter().zip(&self.runs) {
            tally.record(call, run);
        }
        tally
    }

    /// The reports of the calls that succeeded, with their calls.
    pub fn reports<'a>(
        &'a self,
        calls: &'a [Call],
    ) -> impl Iterator<Item = (&'a Call, &'a KernelReport)> {
        calls
            .iter()
            .zip(&self.runs)
            .filter_map(|(c, r)| r.as_ref().ok().map(|r| (c, r.report())))
    }

    /// Every simulated quantity of the pass's reports. Two passes over
    /// the same calls must agree exactly: the simulator is
    /// deterministic, so any difference is a failure, not noise.
    pub fn fingerprint(&self, calls: &[Call]) -> Vec<String> {
        self.runs
            .iter()
            .zip(calls)
            .map(|(run, call)| match run {
                Err(e) => format!("{} error: {e}", call.op.label()),
                Ok(run) => {
                    let r = run.report();
                    format!(
                        "{} cycles={} read={} written={} useful={} busy={:?} instr={:?} \
                         sync={} stalls={:?}/{:?}/{:?}",
                        call.op.label(),
                        r.cycles,
                        r.bytes_read,
                        r.bytes_written,
                        r.useful_bytes,
                        r.engine_busy,
                        r.engine_instructions,
                        r.sync_rounds,
                        r.stalls.dependency,
                        r.stalls.barrier,
                        r.stalls.flag,
                    )
                }
            })
            .collect()
    }
}

/// The process's peak resident set size so far (`VmHWM`) in MB, or 0
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The device totals of a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceTotals {
    pub time_us: f64,
    pub bytes: u64,
    pub elements: u64,
}

impl DeviceTotals {
    pub fn of(pass: &Pass, calls: &[Call]) -> DeviceTotals {
        let mut t = DeviceTotals {
            elements: calls.iter().map(|c| c.n as u64).sum(),
            ..DeviceTotals::default()
        };
        for (_, r) in pass.reports(calls) {
            t.time_us += r.time_us();
            t.bytes += r.bytes_read + r.bytes_written;
        }
        t
    }
}

/// SplitMix64: the seed expander for sizes, per-call input seeds and
/// sampling variates.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_scan::sim::ValidationMode;

    fn spec() -> ChipSpec {
        ChipSpec::ascend_910b4()
    }

    fn calls(list: &[(Op, usize)], spec: &ChipSpec) -> Vec<Call> {
        list.iter()
            .zip(1..)
            .map(|(&(op, n), seed)| Call::new(op, n, seed, spec).unwrap())
            .collect()
    }

    #[test]
    fn every_operator_matches_its_host_expectation() {
        let spec = spec();
        let calls = calls(
            &[
                (Op::Cumsum, 40_000),
                (Op::MaskScan, 40_000),
                (Op::TopP, 6_000),
                (Op::Sort, 6_000),
                (Op::Compress, 40_000),
                (Op::Weighted, 40_000),
            ],
            &spec,
        );
        let tally = Pass::run(&calls, &spec, false).check(&calls);
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                sim_errors: 0,
                mismatches: 0
            }
        );
    }

    #[test]
    fn counts_a_corrupted_output_and_an_erroring_call() {
        let spec = spec();
        let calls = calls(&[(Op::Cumsum, 20_000)], &spec);
        let pass = Pass::run(&calls, &spec, false);
        let Ok(Run::F16Scan(scan)) = &pass.runs[0] else {
            panic!("the scan ran")
        };
        let mut y = scan.y.to_vec();
        y[12_345] += F16::ONE;
        scan.y.write(&y).unwrap();

        // The device rejects a sampling variate outside [0, 1).
        let mut bad = Call::new(Op::Weighted, 20_000, 9, &spec).unwrap();
        bad.theta = 1.5;
        let bad = [bad];

        let mut tally = pass.check(&calls);
        tally.absorb(Pass::run(&bad, &spec, false).check(&bad));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                sim_errors: 1,
                mismatches: 1
            }
        );
        assert_eq!(tally.failed(), 2);
    }

    #[test]
    fn passes_repeat_simulated_counters_exactly() {
        let spec = spec();
        let calls = calls(&[(Op::MaskScan, 30_000), (Op::Compress, 30_000)], &spec);
        let first = Pass::run(&calls, &spec, false).fingerprint(&calls);
        assert_eq!(first, Pass::run(&calls, &spec, false).fingerprint(&calls));
        assert_eq!(first, Pass::run(&calls, &spec, true).fingerprint(&calls));
        let off = spec.clone().with_validation(ValidationMode::Off);
        assert_eq!(first, Pass::run(&calls, &off, false).fingerprint(&calls));
    }

    #[test]
    fn sizes_and_inputs_follow_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.seeded(3), w.seeded(3));
            assert_ne!(w.seeded(3), w.seeded(4));
            for ((op, n, _), (nop, nominal)) in w.seeded(3).into_iter().zip(w.nominal()) {
                assert_eq!(op, nop);
                assert!((nominal..nominal + nominal / 64).contains(&n));
            }
        }
        let a = Call::new(Op::Compress, 5_000, 7, &spec()).unwrap();
        let b = Call::new(Op::Compress, 5_000, 7, &spec()).unwrap();
        assert_eq!(
            (a.values, a.mask, a.expected),
            (b.values, b.mask, b.expected)
        );
    }

    #[test]
    fn telescoping_inputs_have_exact_prefix_sums() {
        let x = telescoping_f16(10_000, 5);
        let sums = reference::inclusive_widening::<F16, F16>(&x);
        assert!(sums.iter().all(|s| [-1.0, 0.0, 1.0].contains(&s.to_f32())));
        assert!(x.iter().any(|v| v.to_f32() != 0.0));
    }
}
