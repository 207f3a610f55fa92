//! Shared harness code for the figure-reproduction binary and the
//! Criterion benches: size sweeps, table printing, and the composed
//! baseline operators (e.g. the PyTorch top-p pipeline).

#![forbid(unsafe_code)]

use ascend_sim::hostclock::HostPhase;
use ascend_sim::mem::GlobalMemory;
use ascend_sim::{ChipSpec, EngineKind, KernelReport};
use ascendc::{GlobalTensor, SimResult};
use dtypes::F16;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Geometric size sweep: `count` sizes starting at `start`, each
/// `factor`× the previous.
pub fn sweep(start: usize, factor: usize, count: usize) -> Vec<usize> {
    let mut v = Vec::with_capacity(count);
    let mut n = start;
    for _ in 0..count {
        v.push(n);
        n *= factor;
    }
    v
}

/// Pretty-prints a table: header + rows of fixed-width columns.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header's arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a count like `65536` as `64K` / `16M` for axis labels.
pub fn human(n: usize) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
        format!("{}K", n >> 10)
    } else {
        n.to_string()
    }
}

/// A fresh device for one measurement (new memory, same spec).
pub fn fresh_gm(spec: &ChipSpec) -> Arc<GlobalMemory> {
    Arc::new(GlobalMemory::new(spec.hbm_capacity))
}

/// One deferred measurement point for [`run_points`]: a boxed closure
/// owning its whole launch state.
pub type Point<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Runs independent measurement points on a pool of `jobs` std threads
/// and returns the results **in point order**, regardless of which
/// worker finished first. Each point owns its whole launch state (a
/// fresh [`GlobalMemory`] per point), so the points are embarrassingly
/// parallel and the committed output is byte-identical to running them
/// sequentially with `jobs = 1`.
///
/// Scheduling is a shared atomic cursor over the point list: workers
/// claim the next unstarted point, so long points never leave the pool
/// idle behind a fixed pre-partition. A panicking point propagates out
/// of the scope and fails the run, exactly as it would serially.
pub fn run_points<'a, T: Send + 'a>(points: Vec<Point<'a, T>>, jobs: usize) -> Vec<T> {
    let n = points.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        return points.into_iter().map(|f| f()).collect();
    }
    let slots: Vec<Mutex<Option<Point<'a, T>>>> =
        points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let f = slots[i]
                    .lock()
                    .expect("run_points slot poisoned")
                    .take()
                    .expect("each point runs exactly once");
                *results[i].lock().expect("run_points result poisoned") = Some(f());
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("run_points result poisoned")
                .expect("worker committed this point")
        })
        .collect()
}

/// Deterministic pseudo-random fp16 probabilities for sampling workloads
/// (positive, roughly Zipf-ish so nucleus sampling is non-trivial).
pub fn synth_probs(n: usize, seed: u64) -> Vec<F16> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 40) as f32 / (1u64 << 24) as f32; // [0,1)
            F16::from_f32(r / (1.0 + i as f32 * 0.01))
        })
        .collect()
}

/// Deterministic pseudo-random fp16 values over the full finite range.
pub fn synth_f16(n: usize, seed: u64) -> Vec<F16> {
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            F16::from_f32(((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 1000.0)
        })
        .collect()
}

/// Deterministic Bernoulli(1/2) mask.
pub fn synth_mask(n: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 63) as u8
        })
        .collect()
}

/// The batched `torch.cumsum` baseline for Fig. 12: row-wise vector-only
/// scans (Hillis–Steele per `s`-row + partial propagation), with batch
/// rows spread over all vector cores — the stock operator parallelizes
/// across the batch dimension but never touches the cube units.
pub fn batched_cumsum_baseline(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<F16>,
    batch: usize,
    len: usize,
) -> SimResult<KernelReport> {
    use ascend_sim::chip::ScratchpadKind;
    let s = 128usize;
    let piece = 4096usize;
    let blocks = (spec.ai_cores as usize).min(batch.div_ceil(2).max(1)) as u32;
    let y = GlobalTensor::<F16>::new(gm, batch * len)?;
    let mut report = ascendc::launch(spec, gm, blocks, "torch.cumsum(batched)", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut q = ascendc::TQue::<F16>::new(vc, ScratchpadKind::Ub, 2, piece)?;
            let mut tmp = vc.alloc_local::<F16>(ScratchpadKind::Ub, s)?;
            for row in (lane0 + v..batch).step_by(stride) {
                let base = row * len;
                let mut partial = F16::ZERO;
                let mut partial_ready = 0;
                let mut off = 0;
                while off < len {
                    let valid = piece.min(len - off);
                    let mut buf = q.alloc_tensor()?;
                    vc.copy_in(&mut buf, 0, x, base + off, valid, &[])?;
                    let mut ro = 0;
                    while ro < valid {
                        let rl = s.min(valid - ro);
                        let mut shift = 1;
                        while shift < rl {
                            let span = rl - shift;
                            vc.copy_local(&mut tmp, 0, &buf, ro, span)?;
                            vc.vadd_inplace(&mut buf, ro + shift, &tmp, 0, span)?;
                            shift *= 2;
                        }
                        vc.vadds(&mut buf, ro, rl, partial, partial_ready)?;
                        let (p, pr) = vc.extract(&buf, ro + rl - 1)?;
                        partial = p;
                        partial_ready = pr;
                        vc.scalar_ops(16, &[])?;
                        ro += rl;
                    }
                    let ev = vc.copy_out(&y, base + off, &buf, 0, valid, &[])?;
                    q.free_tensor(buf, ev);
                    off += valid;
                }
            }
            vc.free_local(tmp)?;
            q.destroy(vc)?;
        }
        Ok(())
    })?;
    report.elements = (batch * len) as u64;
    report.useful_bytes = (2 * batch * len * 2) as u64;
    Ok(report)
}

/// Validates that `s` is one well-formed JSON document (std-only
/// recursive-descent check, no external parser). Used by the `figures
/// --json` path and CI to guarantee `BENCH_scan.json` and the trace
/// exports parse before anything downstream consumes them.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = JsonChecker {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(())
}

struct JsonChecker<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl JsonChecker<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > 256 {
            return Err("nesting too deep".into());
        }
        let r = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        };
        self.depth -= 1;
        r
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(format!("bad \\u escape at byte {}", self.pos));
                                }
                                self.pos += 1;
                            }
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(format!("raw control byte 0x{c:02x} in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        Ok(())
    }
}

/// Semantic sanity bounds for a `bench-scan/v5` document on top of the
/// syntactic [`validate_json`] check. Every kernel entry must satisfy:
///
/// * `fraction_of_peak` and every per-engine `utilization` in `[0, 1]`;
/// * `traffic_gbps` (DRAM-attributed) at most the chip's HBM peak;
/// * per engine, the idle-stall sum (`stall_dependency + stall_barrier +
///   stall_flag`) at most `cores × (cycles − launch_cycles)` — no core
///   can idle longer than it exists (`stall_contention` overlaps busy
///   time and is exempt);
/// * when a `critical_path` section is present (every audited launch):
///   its `makespan` equals the kernel's `cycles`, the class attribution
///   (`launch + busy + flag_wire + chain_wire + barrier_release + hbm`)
///   sums to the makespan exactly, every share fraction lies in
///   `[0, 1]`, and at least two what-if predictions are reported, each
///   within `[0, makespan]`;
/// * every `traffic` row declares a `scanc_lookback` section with a
///   window of at least 1 and, when the launch was audited, a
///   `zero_lookback_speedup` of at least 1;
/// * every `traffic` row names the kernel the size-adaptive entry point
///   `scan::scan` ran (`scan_kernel`: `MCScan` or `ScanC`), and its
///   `scan_time_us` is at most both `mcscan_time_us` and
///   `scanc_time_us` (equal to `mcscan_time_us` when it ran MCScan,
///   whose configuration is the same);
/// * a flat `host` section is present with `jobs >= 1`, `points >= 1`,
///   a positive `host_seconds` wall-clock, a `serial_seconds_est`, one
///   positive `kernel_host_seconds` entry per kernel, `launches >= 1`
///   with their `sim_cycles`, a non-negative seconds sum per launch
///   phase (`block_exec`, `harvest`, `audit`, `critpath`) whose total
///   fits in `jobs · host_seconds` (launches run one per job thread),
///   and a positive `sim_cycles_per_host_second`.
///
/// These are exactly the invariants that historically broke silently:
/// runaway contention watermarks and over-peak traffic attribution.
pub fn validate_bench_json(doc: &str, spec: &ChipSpec) -> Result<(), String> {
    validate_json(doc)?;
    if !doc.contains("\"schema\":\"bench-scan/v5\"") {
        return Err("document does not declare schema bench-scan/v5".into());
    }
    let eps = 1e-6;
    let hbm_gbps = spec.hbm_bytes_per_sec / 1e9;
    let kernels = json_kernel_objects(doc)?;
    for &k in &kernels {
        let name = json_str_field(k, "name").unwrap_or("<unnamed>");
        let ctx = |msg: String| format!("kernel {name}: {msg}");
        let frac = json_num_field(k, "fraction_of_peak").map_err(&ctx)?;
        if !(-eps..=1.0 + eps).contains(&frac) {
            return Err(ctx(format!("fraction_of_peak {frac} outside [0, 1]")));
        }
        let traffic = json_num_field(k, "traffic_gbps").map_err(&ctx)?;
        if traffic > hbm_gbps + eps {
            return Err(ctx(format!(
                "traffic_gbps {traffic} exceeds the HBM peak {hbm_gbps}"
            )));
        }
        let cycles = json_num_field(k, "cycles").map_err(&ctx)?;
        let blocks = json_num_field(k, "blocks").map_err(&ctx)? as u32;
        let lifetime = (cycles - spec.launch_cycles as f64).max(0.0);
        for e in EngineKind::ALL {
            let Some(eobj) = json_sub_object(k, e.name()) else {
                continue;
            };
            let util = json_num_field(eobj, "utilization").map_err(&ctx)?;
            if !(-eps..=1.0 + eps).contains(&util) {
                return Err(ctx(format!(
                    "{} utilization {util} outside [0, 1]",
                    e.name()
                )));
            }
            let idle = json_num_field(eobj, "stall_dependency").map_err(&ctx)?
                + json_num_field(eobj, "stall_barrier").map_err(&ctx)?
                + json_num_field(eobj, "stall_flag").map_err(&ctx)?;
            let cores = spec.cores_with_engine(blocks, e) as f64;
            if idle > cores * lifetime + eps {
                return Err(ctx(format!(
                    "{} idle stalls {idle} exceed cores×(cycles−launch) = {}",
                    e.name(),
                    cores * lifetime
                )));
            }
        }
        if let Some(cp) = json_sub_object(k, "critical_path") {
            let makespan = json_num_field(cp, "makespan").map_err(&ctx)?;
            if (makespan - cycles).abs() > eps {
                return Err(ctx(format!(
                    "critical_path makespan {makespan} != cycles {cycles}"
                )));
            }
            let mut sum = 0.0;
            for class in [
                "launch",
                "busy",
                "flag_wire",
                "chain_wire",
                "barrier_release",
                "hbm",
            ] {
                sum += json_num_field(cp, class).map_err(&ctx)?;
            }
            if (sum - makespan).abs() > eps {
                return Err(ctx(format!(
                    "critical_path attribution sums to {sum}, not the makespan {makespan}"
                )));
            }
            for share in [
                "launch_share",
                "busy_share",
                "flag_wire_share",
                "chain_wire_share",
                "barrier_release_share",
                "hbm_share",
                "lookback_chain_share",
            ] {
                let v = json_num_field(cp, share).map_err(&ctx)?;
                if !(-eps..=1.0 + eps).contains(&v) {
                    return Err(ctx(format!("critical_path {share} {v} outside [0, 1]")));
                }
            }
            let wi = cp
                .find("\"what_ifs\":[")
                .map(|i| &cp[i..])
                .ok_or_else(|| ctx("critical_path has no what_ifs table".into()))?;
            let mut what_ifs = 0usize;
            let mut rest = wi;
            while let Some(i) = rest.find("\"predicted_cycles\":") {
                rest = &rest[i..];
                let predicted = json_num_field(rest, "predicted_cycles").map_err(&ctx)?;
                if !(-eps..=makespan + eps).contains(&predicted) {
                    return Err(ctx(format!(
                        "what-if predicted_cycles {predicted} outside [0, makespan]"
                    )));
                }
                what_ifs += 1;
                rest = &rest["\"predicted_cycles\":".len()..];
            }
            if what_ifs < 2 {
                return Err(ctx(format!(
                    "critical_path reports {what_ifs} what-ifs, need at least 2"
                )));
            }
        }
    }
    // v5: every traffic row carries the ScanC look-back's per-hop stats.
    if let Ok(rows) = json_array_objects(doc, "traffic") {
        for row in rows {
            let n = json_num_field(row, "n").unwrap_or(0.0);
            let lb = json_sub_object(row, "scanc_lookback")
                .ok_or_else(|| format!("traffic row n={n} has no scanc_lookback section (v5)"))?;
            let window =
                json_num_field(lb, "window").map_err(|e| format!("traffic row n={n}: {e}"))?;
            if window < 1.0 {
                return Err(format!(
                    "traffic row n={n}: scanc_lookback window {window} must be >= 1"
                ));
            }
            if lb.contains("\"zero_lookback_speedup\":") {
                let zl = json_num_field(lb, "zero_lookback_speedup")
                    .map_err(|e| format!("traffic row n={n}: {e}"))?;
                if zl < 1.0 - eps {
                    return Err(format!(
                        "traffic row n={n}: zero_lookback_speedup {zl} below 1"
                    ));
                }
            }
            let num = |key| json_num_field(row, key).map_err(|e| format!("traffic row n={n}: {e}"));
            let (mc, sc, entry) = (
                num("mcscan_time_us")?,
                num("scanc_time_us")?,
                num("scan_time_us")?,
            );
            // Times carry three decimals.
            let tol = 5e-4;
            match json_str_field(row, "scan_kernel") {
                Some("MCScan") if (entry - mc).abs() > tol => {
                    return Err(format!(
                        "traffic row n={n}: scan ran MCScan in {entry} us, MCScan took {mc} us"
                    ));
                }
                Some("MCScan" | "ScanC") => {}
                other => {
                    return Err(format!(
                        "traffic row n={n}: scan_kernel {other:?} is neither MCScan nor ScanC"
                    ));
                }
            }
            if entry > mc.min(sc) + tol {
                return Err(format!(
                    "traffic row n={n}: scan_time_us {entry} exceeds min(MCScan {mc}, ScanC {sc})"
                ));
            }
        }
    }
    let host = json_sub_object(doc, "host")
        .ok_or_else(|| "document has no host section (jobs / host_seconds)".to_string())?;
    let jobs = json_num_field(host, "jobs")?;
    if jobs < 1.0 {
        return Err(format!("host jobs {jobs} must be at least 1"));
    }
    let points = json_num_field(host, "points")?;
    if points < 1.0 {
        return Err(format!("host points {points} must be at least 1"));
    }
    let host_seconds = json_num_field(host, "host_seconds")?;
    if host_seconds <= 0.0 {
        return Err(format!("host_seconds {host_seconds} must be positive"));
    }
    json_num_field(host, "serial_seconds_est")?;
    let per_kernel = json_num_array(host, "kernel_host_seconds")?;
    if per_kernel.len() != kernels.len() {
        return Err(format!(
            "kernel_host_seconds has {} entries for {} kernels",
            per_kernel.len(),
            kernels.len()
        ));
    }
    if let Some(bad) = per_kernel.iter().find(|&&v| v <= 0.0) {
        return Err(format!("kernel_host_seconds entry {bad} must be positive"));
    }
    let launches = json_num_field(host, "launches")?;
    if launches < 1.0 {
        return Err(format!("host launches {launches} must be at least 1"));
    }
    json_num_field(host, "sim_cycles")?;
    let mut in_launches = 0.0;
    for phase in HostPhase::ALL {
        let key = format!("{}_seconds", phase.name());
        let secs = json_num_field(host, &key)?;
        if secs < 0.0 {
            return Err(format!("host {key} {secs} must not be negative"));
        }
        in_launches += secs;
    }
    // Six-decimal rounding of each field leaves at most 1e-6 s apiece.
    if in_launches > jobs * host_seconds + 1e-5 {
        return Err(format!(
            "launch phases sum to {in_launches} s, more than {jobs} jobs x {host_seconds} s"
        ));
    }
    let rate = json_num_field(host, "sim_cycles_per_host_second")?;
    if rate <= 0.0 {
        return Err(format!(
            "sim_cycles_per_host_second {rate} must be positive"
        ));
    }
    Ok(())
}

/// Splits the `"kernels":[...]` array of a bench document into its
/// top-level objects (brace matching; the document is already known to
/// be well-formed JSON with no strings containing braces we generate).
fn json_kernel_objects(doc: &str) -> Result<Vec<&str>, String> {
    json_array_objects(doc, "kernels")
}

/// Splits the `"key":[...]` array of a document into its top-level
/// objects (brace matching; our generated JSON never embeds braces or
/// brackets inside strings).
pub fn json_array_objects<'a>(doc: &'a str, key: &str) -> Result<Vec<&'a str>, String> {
    let pat = format!("\"{key}\":[");
    let start = doc
        .find(&pat)
        .ok_or_else(|| format!("document has no {key} array"))?
        + pat.len();
    let body = &doc[start..];
    let mut objs = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = i;
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| format!("unbalanced braces in {key} array"))?;
                if depth == 0 {
                    objs.push(&body[obj_start..=i]);
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    Ok(objs)
}

/// Extracts the brace-matched object following `"key":{` inside `obj`.
pub fn json_sub_object<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":{{");
    let start = obj.find(&pat)? + pat.len() - 1;
    let body = &obj[start..];
    let mut depth = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads the numeric value of `"key":<number>` inside `obj` (first
/// occurrence; bench-document keys are unique at their nesting level).
pub fn json_num_field(obj: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let start = obj
        .find(&pat)
        .ok_or_else(|| format!("missing field {key}"))?
        + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|e| format!("field {key}: {e}"))
}

/// Reads the flat numeric array `"key":[n, n, ...]` inside `obj` (no
/// nested brackets — our generated host sections are flat by design so
/// CI can strip them with a single regular expression).
pub fn json_num_array(obj: &str, key: &str) -> Result<Vec<f64>, String> {
    let pat = format!("\"{key}\":[");
    let start = obj
        .find(&pat)
        .ok_or_else(|| format!("missing array {key}"))?
        + pat.len();
    let end = obj[start..]
        .find(']')
        .ok_or_else(|| format!("unterminated array {key}"))?
        + start;
    let body = obj[start..end].trim();
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|e| format!("array {key}: {e}"))
        })
        .collect()
}

/// Reads the string value of `"key":"..."` inside `obj`.
pub fn json_str_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')?;
    Some(&obj[start..start + end])
}

/// The PyTorch-baseline top-p pipeline the paper's Fig. 13 measures:
/// `torch.sort` + `torch.cumsum` + threshold + `torch.multinomial`,
/// composed from the modeled baseline operators.
pub fn baseline_top_p(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    probs: &GlobalTensor<F16>,
    p: f64,
    theta: f64,
) -> SimResult<(u32, KernelReport)> {
    let n = probs.len();
    let (sorted_vals, sorted_idx, sort_report) =
        ops::baselines::sort::<F16>(spec, gm, probs, true)?;
    let (cdf, cumsum_report) = ops::baselines::cumsum::<F16>(spec, gm, &sorted_vals)?;

    // Nucleus mask + renormalized draw, host-side as the torch code does
    // between the profiled operator calls (the heavy operators dominate).
    let cdf_host = cdf.to_vec();
    let vals_host = sorted_vals.to_vec();
    let total = cdf_host.last().map(|v| v.to_f64()).unwrap_or(0.0);
    let mut kept = 0usize;
    for i in 0..n {
        let exclusive = cdf_host[i].to_f64() - vals_host[i].to_f64();
        if exclusive <= p * total {
            kept = i + 1;
        } else {
            break;
        }
    }
    let kept = kept.max(1);
    let kept_slice = sorted_vals.slice(0, kept)?;
    let (pos, multinomial_report) = ops::baselines::multinomial(spec, gm, &kept_slice, theta)?;
    let token = sorted_idx.read_range(pos, 1)?[0];

    let mut report = KernelReport::sequential(
        "torch top-p",
        &[sort_report, cumsum_report, multinomial_report],
    );
    report.elements = n as u64;
    report.useful_bytes = (n * 2) as u64;
    Ok((token, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_geometric() {
        assert_eq!(sweep(1024, 4, 3), vec![1024, 4096, 16384]);
    }

    #[test]
    fn human_labels() {
        assert_eq!(human(65536), "64K");
        assert_eq!(human(16 << 20), "16M");
        assert_eq!(human(1000), "1000");
    }

    #[test]
    fn synth_data_is_deterministic() {
        assert_eq!(synth_probs(100, 7), synth_probs(100, 7));
        assert_ne!(synth_probs(100, 7), synth_probs(100, 8));
        assert_eq!(synth_mask(1000, 1), synth_mask(1000, 1));
        let ones: usize = synth_mask(10_000, 3).iter().map(|&b| b as usize).sum();
        assert!((4000..6000).contains(&ones), "roughly balanced mask");
        assert!(synth_probs(50, 2).iter().all(|p| p.to_f32() >= 0.0));
    }

    #[test]
    fn baseline_top_p_samples_a_valid_token() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(500, 42);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (token, report) = baseline_top_p(&spec, &gm, &t, 0.9, 0.5).unwrap();
        assert!((token as usize) < 500);
        assert!(report.time_us() > 0.0);
    }

    #[test]
    fn validate_json_accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"schema":"bench-scan/v1","kernels":[{"name":"MCScan","cycles":123,
                "time_us":4.5,"engines":{"CUBE":{"busy_cycles":7}},"ok":true,
                "barrier_wait_cycles":[1,2,3],"esc":"a\"b\\cé\n"}]}"#,
        ] {
            assert!(validate_json(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1} extra",
            "\"unterminated",
            "\"bad\\escape\"",
            "{\"raw\":\"a\nb\"}",
            "01x",
            "1.e5",
            "nulll",
        ] {
            assert!(validate_json(doc).is_err(), "should reject: {doc:?}");
        }
    }

    #[test]
    fn validate_json_accepts_a_real_kernel_report() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        validate_json(&report.to_json(&spec)).expect("KernelReport::to_json is valid JSON");
    }

    fn bench_doc(spec: &ChipSpec, kernel_json: &str) -> String {
        format!(
            "{{\"schema\":\"bench-scan/v5\",\"chip\":{{\"name\":\"{}\"}},\
             \"kernels\":[{}],\"traffic\":[],\
             \"host\":{{\"jobs\":1,\"points\":1,\"host_seconds\":0.25,\
             \"serial_seconds_est\":0.25,\"kernel_host_seconds\":[0.25],\
             \"launches\":1,\"sim_cycles\":5000,\"block_exec_seconds\":0.1,\
             \"harvest_seconds\":0.01,\"audit_seconds\":0.02,\"critpath_seconds\":0.03,\
             \"sim_cycles_per_host_second\":31250.0}}}}",
            spec.name, kernel_json
        )
    }

    #[test]
    fn validate_bench_json_accepts_a_real_launch_report() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let doc = bench_doc(&spec, &report.to_json(&spec));
        validate_bench_json(&doc, &spec).expect("real report passes the sanity bounds");
    }

    #[test]
    fn validate_bench_json_rejects_wrong_schema() {
        let spec = ChipSpec::tiny();
        let doc = "{\"schema\":\"bench-scan/v3\",\"kernels\":[]}";
        assert!(validate_bench_json(doc, &spec)
            .unwrap_err()
            .contains("bench-scan/v5"));
    }

    #[test]
    fn validate_bench_json_rejects_out_of_range_metrics() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let good = report.to_json(&spec);

        // fraction_of_peak above 1.
        let frac = json_num_field(&good, "fraction_of_peak").unwrap();
        let bad = good.replace(
            &format!("\"fraction_of_peak\":{frac:.6}"),
            "\"fraction_of_peak\":1.5",
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&spec, &bad), &spec).unwrap_err();
        assert!(err.contains("fraction_of_peak"), "{err}");

        // DRAM traffic above the chip peak.
        let traffic = json_num_field(&good, "traffic_gbps").unwrap();
        let over = spec.hbm_bytes_per_sec / 1e9 + 10.0;
        let bad = good.replace(
            &format!("\"traffic_gbps\":{traffic:.6}"),
            &format!("\"traffic_gbps\":{over:.6}"),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&spec, &bad), &spec).unwrap_err();
        assert!(err.contains("HBM peak"), "{err}");

        // Idle stalls beyond any core's lifetime.
        let bad = good.replace("\"stall_flag\":0", "\"stall_flag\":99999999999");
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&spec, &bad), &spec).unwrap_err();
        assert!(err.contains("idle stalls"), "{err}");
    }

    #[test]
    fn validate_bench_json_gates_the_scan_entry_point_columns() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let t = GlobalTensor::from_slice(&gm, &synth_probs(300, 11)).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let kernel = report.to_json(&spec);
        let doc = |row: &str| {
            bench_doc(&spec, &kernel).replace("\"traffic\":[]", &format!("\"traffic\":[{row}]"))
        };
        let row = |kernel: &str, t: f64| {
            format!(
                "{{\"n\":4096,\"dtype\":\"fp16\",\"mcscan_time_us\":12.154,\
                 \"scanc_time_us\":22.438,\"scanc_lookback\":{{\"window\":2}},\
                 \"scan_kernel\":\"{kernel}\",\"scan_time_us\":{t:.3}}}"
            )
        };
        let check = |row: &str| validate_bench_json(&doc(row), &spec);
        check(&row("ScanC", 11.414)).expect("ScanC below both kernels");
        check(&row("MCScan", 12.154)).expect("MCScan's own time");
        let err = check(&row("ScanC", 12.2)).unwrap_err();
        assert!(err.contains("exceeds min"), "{err}");
        let err = check(&row("MCScan", 11.0)).unwrap_err();
        assert!(err.contains("MCScan took"), "{err}");
        let err = check(&row("ScanU", 11.0)).unwrap_err();
        assert!(err.contains("neither"), "{err}");
        let err = check(&row("ScanC", 11.0).replace(",\"scan_time_us\":11.000", "")).unwrap_err();
        assert!(err.contains("scan_time_us"), "{err}");
    }

    #[test]
    fn validate_bench_json_gates_the_critical_path_section() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let data = vec![F16::ONE; 4096];
        let t = GlobalTensor::from_slice(&gm, &data).unwrap();
        let report = scan::cumsum_vec_only::<F16>(&spec, &gm, &t, 32, 1)
            .unwrap()
            .report;
        let cp = report
            .critical_path
            .as_ref()
            .expect("audited launch carries a critical path");
        let good = report.to_json(&spec);
        validate_bench_json(&bench_doc(&spec, &good), &spec)
            .expect("audited report passes the v4 gates");

        // Makespan no longer matching the kernel's cycles.
        let bad = good.replace(
            &format!("\"makespan\":{}", cp.makespan),
            &format!("\"makespan\":{}", cp.makespan + 1),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&spec, &bad), &spec).unwrap_err();
        assert!(err.contains("makespan"), "{err}");

        // Attribution that no longer sums to the makespan.
        let bad = good.replace(
            &format!("\"busy\":{}", cp.busy),
            &format!("\"busy\":{}", cp.busy + 7),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&spec, &bad), &spec).unwrap_err();
        assert!(err.contains("sums to"), "{err}");

        // A what-if predicting more cycles than the makespan.
        let w = &cp.what_ifs[0];
        let bad = good.replace(
            &format!("\"predicted_cycles\":{}", w.predicted),
            &format!("\"predicted_cycles\":{}", cp.makespan * 10 + 1),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&spec, &bad), &spec).unwrap_err();
        assert!(err.contains("predicted_cycles"), "{err}");

        // Fewer than two what-ifs.
        let start = good.find("\"what_ifs\":[").unwrap();
        let end = good[start..].find(']').unwrap() + start;
        let bad = format!("{}\"what_ifs\":[{}", &good[..start], &good[end..]);
        let err = validate_bench_json(&bench_doc(&spec, &bad), &spec).unwrap_err();
        assert!(err.contains("what-ifs"), "{err}");
    }

    #[test]
    fn run_points_commits_in_point_order_at_any_width() {
        let make = || -> Vec<Box<dyn FnOnce() -> usize + Send>> {
            (0..17)
                .map(|i| {
                    let f: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                        // Skew the work so later points often finish first.
                        std::thread::sleep(std::time::Duration::from_micros(
                            ((17 - i) % 5) as u64 * 100,
                        ));
                        i * i
                    });
                    f
                })
                .collect()
        };
        let serial = run_points(make(), 1);
        assert_eq!(serial, (0..17).map(|i| i * i).collect::<Vec<_>>());
        for jobs in [2, 4, 32] {
            assert_eq!(run_points(make(), jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_points_borrows_from_the_environment() {
        let base = [10usize, 20, 30];
        let points: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = base
            .iter()
            .map(|v| {
                let f: Box<dyn FnOnce() -> usize + Send + '_> = Box::new(move || v + 1);
                f
            })
            .collect();
        assert_eq!(run_points(points, 2), vec![11, 21, 31]);
    }

    #[test]
    fn validate_bench_json_gates_the_host_section() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let good = bench_doc(&spec, &report.to_json(&spec));
        validate_bench_json(&good, &spec).expect("well-formed host section passes");

        // Missing host section entirely.
        let no_host = good.replace("\"host\":", "\"ghost\":");
        let err = validate_bench_json(&no_host, &spec).unwrap_err();
        assert!(err.contains("host section"), "{err}");

        // Zero jobs.
        let bad = good.replace("\"jobs\":1", "\"jobs\":0");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("jobs"), "{err}");

        // Non-positive wall clock.
        let bad = good.replace("\"host_seconds\":0.25", "\"host_seconds\":0");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("host_seconds"), "{err}");

        // Per-kernel timing arity must match the kernel list.
        let bad = good.replace(
            "\"kernel_host_seconds\":[0.25]",
            "\"kernel_host_seconds\":[0.25,0.25]",
        );
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("kernel_host_seconds"), "{err}");

        // Every launch-phase key is required.
        for key in [
            "launches",
            "sim_cycles",
            "block_exec_seconds",
            "harvest_seconds",
            "audit_seconds",
            "critpath_seconds",
            "sim_cycles_per_host_second",
        ] {
            let bad = good.replace(&format!("\"{key}\":"), "\"other\":");
            let err = validate_bench_json(&bad, &spec).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        let bad = good.replace("\"launches\":1", "\"launches\":0");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("launches"), "{err}");
        let bad = good.replace("\"audit_seconds\":0.02", "\"audit_seconds\":-0.02");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("audit_seconds"), "{err}");
        // Launch phases cannot outlast every job thread's wall clock.
        let bad = good.replace("\"block_exec_seconds\":0.1", "\"block_exec_seconds\":0.3");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("launch phases"), "{err}");
        let bad = good.replace(
            "\"sim_cycles_per_host_second\":31250.0",
            "\"sim_cycles_per_host_second\":0",
        );
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("sim_cycles_per_host_second"), "{err}");
    }

    #[test]
    fn json_num_array_parses_flat_arrays() {
        assert_eq!(
            json_num_array("{\"a\":[1,2.5,-3e2]}", "a").unwrap(),
            vec![1.0, 2.5, -300.0]
        );
        assert_eq!(
            json_num_array("{\"a\":[]}", "a").unwrap(),
            Vec::<f64>::new()
        );
        assert!(json_num_array("{\"a\":[1,]}", "a").is_err());
        assert!(json_num_array("{}", "a").is_err());
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["N", "GB/s"]);
        t.row(vec!["64K".into(), "123.4".into()]);
        t.print();
    }
}
