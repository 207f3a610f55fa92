//! Cross-crate integration tests: operator pipelines composed end to
//! end on the simulated 910B4, validated against host references.

use ascend_scan::dtypes::{RadixKey, F16};
use ascend_scan::ops::SortOrder;
use ascend_scan::sim::ValidationMode;
use ascend_scan::{Device, ScanKind};

fn device() -> Device {
    Device::ascend_910b4()
}

fn synth_f16(n: usize, seed: u64) -> Vec<F16> {
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            F16::from_f32(((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 100.0)
        })
        .collect()
}

#[test]
fn sort_then_scan_pipeline() {
    // Sorting probabilities descending then scanning them yields a
    // monotone CDF whose last entry is the total mass.
    let dev = device();
    let n = 50_000;
    let probs: Vec<F16> = (0..n)
        .map(|i| F16::from_f32(((i * 31 + 7) % 100) as f32 / 100.0))
        .collect();
    let x = dev.tensor(&probs).unwrap();
    let sorted = dev.sort(&x, SortOrder::Descending).unwrap();
    let vals = sorted.values.to_vec();
    assert!(vals.windows(2).all(|w| w[0].to_f32() >= w[1].to_f32()));

    let cdf = dev.cumsum(&sorted.values).unwrap();
    let c = cdf.y.to_vec();
    // fp16 rounding at the block boundaries can nick monotonicity by a
    // few ULPs at the running sum's magnitude (hardware does the same);
    // compare against the exact reference within that slack instead.
    let mut exact = 0.0f64;
    let total: f64 = vals.iter().map(|v| v.to_f64()).sum();
    for (i, v) in c.iter().enumerate() {
        exact += vals[i].to_f64();
        assert!(
            (v.to_f64() - exact).abs() <= total * 0.01 + 8.0,
            "cdf[{i}] = {} vs exact {exact}",
            v.to_f64()
        );
    }
}

#[test]
fn split_and_compress_agree() {
    let dev = device();
    let n = 120_000;
    let vals: Vec<u16> = (0..n).map(|i| (i * 7919 % 65536) as u16).collect();
    let mask: Vec<u8> = (0..n)
        .map(|i| (((i as u64 * 2654435761) >> 16) & 1) as u8)
        .collect();
    let x = dev.tensor(&vals).unwrap();
    let m = dev.tensor(&mask).unwrap();

    let split = dev.split(&x, &m).unwrap();
    let comp = dev.compress(&x, &m).unwrap();

    assert_eq!(split.n_true, comp.n_true);
    assert_eq!(
        split.values.read_range(0, split.n_true).unwrap(),
        comp.values.to_vec(),
        "compress equals the true side of split"
    );
    // Split's index output inverts back to the input.
    let sv = split.values.to_vec();
    let si = split.indices.to_vec();
    for (out_pos, &orig) in si.iter().enumerate().step_by(997) {
        assert_eq!(sv[out_pos], vals[orig as usize]);
    }
}

#[test]
fn top_p_token_comes_from_the_nucleus() {
    let dev = device();
    let n = 40_000;
    let mut probs = vec![F16::from_f32(1e-6); n];
    // Hot tokens: 70% + 20% of the mass on two ids.
    probs[123] = F16::from_f32(0.7);
    probs[9876] = F16::from_f32(0.2);
    let x = dev.tensor(&probs).unwrap();
    for theta in [0.1, 0.4, 0.7, 0.9] {
        let run = dev.top_p(&x, 0.8, theta).unwrap();
        assert!(
            run.token == 123 || run.token == 9876,
            "p = 0.8 nucleus holds only the two hot tokens; got {} at theta {theta}",
            run.token
        );
    }
}

#[test]
fn weighted_sampling_matches_cdf_quantiles() {
    let dev = device();
    // Geometric-ish weights; verify draws land at the analytic quantile.
    let w: Vec<f32> = (0..10_000)
        .map(|i| if i < 100 { 50.0 } else { 1.0 })
        .collect();
    let total: f32 = w.iter().sum(); // 5000 + 9900 = 14900
    let x = dev.tensor(&w).unwrap();
    // theta deep inside the heavy head.
    let run = dev.weighted_sample(&x, 0.2).unwrap();
    assert!(
        run.index < 100,
        "theta 0.2*{total} < 5000 lands in the head"
    );
    // theta in the uniform tail.
    let run = dev.weighted_sample(&x, 0.9).unwrap();
    assert!(run.index >= 100);
}

#[test]
fn radix_sort_argsort_is_a_permutation() {
    let dev = device();
    let n = 30_000;
    let vals = synth_f16(n, 11);
    let x = dev.tensor(&vals).unwrap();
    let run = dev.sort(&x, SortOrder::Ascending).unwrap();
    let idx = run.indices.to_vec();
    let mut seen = vec![false; n];
    for &i in &idx {
        assert!(!seen[i as usize], "duplicate index {i}");
        seen[i as usize] = true;
    }
    assert!(seen.iter().all(|&b| b));
    // And the permutation reproduces the sorted output bit-exactly.
    let sorted = run.values.to_vec();
    for r in (0..n).step_by(613) {
        assert_eq!(vals[idx[r] as usize].to_bits(), sorted[r].to_bits());
    }
}

#[test]
fn topk_agrees_with_full_sort() {
    let dev = device();
    let n = 60_000;
    let vals = synth_f16(n, 13);
    let x = dev.tensor(&vals).unwrap();
    let k = 500;
    let run = dev.topk(&x, k).unwrap();
    let mut got: Vec<u16> = run.values.to_vec().iter().map(|v| v.encode()).collect();
    got.sort_unstable_by(|a, b| b.cmp(a));
    let mut expect: Vec<u16> = vals.iter().map(|v| v.encode()).collect();
    expect.sort_unstable_by(|a, b| b.cmp(a));
    expect.truncate(k);
    assert_eq!(got, expect);
}

#[test]
fn exclusive_scan_is_shifted_inclusive_on_device() {
    let dev = device();
    let mask: Vec<u8> = (0..77_777u64)
        .map(|i| ((i * 40503) >> 13 & 1) as u8)
        .collect();
    let m = dev.tensor(&mask).unwrap();
    let inc = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
        dev.spec(),
        dev.memory(),
        &m,
        ascend_scan::McScanConfig {
            s: 128,
            blocks: 20,
            kind: ScanKind::Inclusive,
        },
    )
    .unwrap();
    let exc = dev.mask_exclusive_scan(&m).unwrap();
    let inc = inc.y.to_vec();
    let exc = exc.y.to_vec();
    assert_eq!(exc[0], 0);
    assert_eq!(&exc[1..], &inc[..inc.len() - 1]);
}

/// Sizes on both sides of each fp16 dispatch crossover of the 910B4
/// (in 16K-element tiles: ScanC up to 7, MCScan 8–40, ScanC 41–163,
/// MCScan 164–200, ScanC from 201).
const CROSSOVER_TILES: [usize; 8] = [7, 8, 40, 41, 163, 164, 200, 201];

/// Positive fp16 weights with a total near 4.
fn synth_probs(n: usize, seed: u64) -> Vec<F16> {
    synth_f16(n, seed)
        .iter()
        .map(|v| F16::from_f64((v.to_f64().abs() + 1.0) * 0.04 / n as f64))
        .collect()
}

/// First index with `cdf[i] > theta · cdf[last]`, or the last index:
/// the inverse-transform rule both sampling operators apply.
fn inverse_transform(cdf: &[F16], theta: f64) -> usize {
    let threshold = F16::from_f64(theta * cdf[cdf.len() - 1].to_f64());
    cdf.iter()
        .position(|&c| c > threshold)
        .unwrap_or(cdf.len() - 1)
}

/// A 910B4 with validation off (the draws do not depend on it).
fn fast_device() -> Device {
    Device::with_spec(ascend_scan::ChipSpec::ascend_910b4().with_validation(ValidationMode::Off))
}

/// The fp16 kernel the scan entry point runs at `n` elements.
fn fp16_kernel(n: usize) -> &'static str {
    ascend_scan::scan::dispatch::plan::<F16, F16, F16>(
        &ascend_scan::ChipSpec::ascend_910b4(),
        n,
        ScanKind::Inclusive,
    )
    .kernel()
}

#[test]
fn crossover_sizes_straddle_the_dispatch() {
    for pair in CROSSOVER_TILES.chunks(2) {
        let (a, b) = (pair[0] << 14, pair[1] << 14);
        assert_ne!(fp16_kernel(a), fp16_kernel(b), "{a} vs {b} elements");
    }
}

#[test]
fn weighted_sample_draws_from_the_cumsum_cdf() {
    // The operator scans through the same entry point as
    // `Device::cumsum`, so its draw is the inverse transform of the CDF
    // `cumsum` returns, bit for bit, whichever kernel ran.
    for (k, &tiles) in CROSSOVER_TILES.iter().enumerate() {
        let n = tiles << 14;
        let w = synth_probs(n, k as u64 + 1);
        let dev = fast_device();
        let x = dev.tensor(&w).unwrap();
        let cdf = dev.cumsum(&x).unwrap().y.to_vec();
        let theta = [0.13, 0.5, 0.87][k % 3];
        let run = dev.weighted_sample(&x, theta).unwrap();
        assert_eq!(
            run.index,
            inverse_transform(&cdf, theta),
            "n={n} ({}), theta {theta}",
            fp16_kernel(n)
        );
    }
}

#[test]
fn top_p_draws_from_the_cumsum_cdf() {
    // Top-p keeps the sorted prefix whose exclusive mass stays within
    // p of the CDF's total, then draws from it by inverse transform;
    // recomputed here from `Device::cumsum` over the host-sorted
    // probabilities. The sort's cost limits this to the first two
    // crossovers.
    let p = 0.9;
    for (k, &tiles) in CROSSOVER_TILES[..4].iter().enumerate() {
        let n = tiles << 14;
        let probs = synth_probs(n, k as u64 + 11);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(probs[i as usize].encode()));
        let sorted: Vec<F16> = order.iter().map(|&i| probs[i as usize]).collect();
        let dev = fast_device();
        let cdf = dev
            .cumsum(&dev.tensor(&sorted).unwrap())
            .unwrap()
            .y
            .to_vec();
        let p_abs = F16::from_f64(p * cdf[n - 1].to_f64());
        let kept = cdf
            .iter()
            .zip(&sorted)
            .filter(|&(&c, &q)| c - q <= p_abs)
            .count()
            .max(1);
        let theta = 0.61;
        let run = dev.top_p(&dev.tensor(&probs).unwrap(), p, theta).unwrap();
        assert_eq!(run.n_kept, kept, "n={n} ({})", fp16_kernel(n));
        assert_eq!(
            run.token,
            order[inverse_transform(&cdf[..kept], theta)],
            "n={n} ({})",
            fp16_kernel(n)
        );
    }
}
