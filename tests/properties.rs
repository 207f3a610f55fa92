//! Property-based integration tests: random inputs through the full
//! device path, checked against host references. Sizes stay moderate so
//! the functional simulation remains fast in debug builds.

use ascend_scan::ascendc::Bits;
use ascend_scan::dtypes::{Element, Numeric, RadixKey, F16};
use ascend_scan::ops::radix_sort::{digit_bits, radix_sort_bits};
use ascend_scan::ops::SortOrder;
use ascend_scan::{ChipSpec, Device, McScanConfig, ScanKind};
use proptest::prelude::*;

fn scan_reference(mask: &[u8]) -> Vec<i32> {
    let mut acc = 0;
    mask.iter()
        .map(|&m| {
            acc += i32::from(m);
            acc
        })
        .collect()
}

/// Launch costs for the tiny chip under which the radix sort's size
/// rule picks every digit width from 2 to 4 bits at the property test's
/// sizes (1-bit digits come from 1-bit sorts).
const SORT_LAUNCH_CYCLES: [u64; 3] = [100, 1_000, 9_000];

/// The tiny chip with launches costing `launch_cycles`.
fn sort_chip(launch_cycles: u64) -> ChipSpec {
    ChipSpec {
        launch_cycles,
        ..ChipSpec::tiny()
    }
}

/// The low-`bits` sort a property case runs: `sel = 0` sorts the whole
/// key, otherwise `1 + (sel - 1) mod K::BITS` bits.
fn sort_bits<K: RadixKey>(sel: u32) -> u32 {
    if sel == 0 {
        K::BITS
    } else {
        1 + (sel - 1) % K::BITS
    }
}

/// Sorts `data` by the low `bits` bits of its encoded keys on a fresh
/// device and checks values and indices against a host stable sort.
fn check_fused_sort<K>(
    spec: ChipSpec,
    data: &[K],
    order: SortOrder,
    bits: u32,
) -> Result<(), TestCaseError>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let dev = Device::with_spec(spec);
    let x = dev.tensor(data).unwrap();
    let run = radix_sort_bits(dev.spec(), dev.memory(), &x, order, bits).unwrap();
    let low = u64::MAX >> (64 - bits);
    let key = |i: &u32| -> u64 { Into::<u64>::into(data[*i as usize].encode()) & low };
    let mut expect: Vec<u32> = (0..data.len() as u32).collect();
    match order {
        SortOrder::Ascending => expect.sort_by_key(key),
        SortOrder::Descending => expect.sort_by_key(|i| std::cmp::Reverse(key(i))),
    }
    let got = run.indices.to_vec();
    prop_assert_eq!(&got, &expect);
    let encoded = |v: &[K]| -> Vec<u64> { v.iter().map(|k| k.encode().into()).collect() };
    let want: Vec<K> = expect.iter().map(|&i| data[i as usize]).collect();
    prop_assert_eq!(encoded(&run.values.to_vec()), encoded(&want));
    Ok(())
}

#[test]
fn sort_property_space_reaches_every_digit_width() {
    // The size rule's widths over the launch costs, 16-bit sizes and
    // bit counts the sort property draws: every width up to the 4-bit
    // maximum.
    let mut widths = std::collections::BTreeSet::new();
    for launch in SORT_LAUNCH_CYCLES {
        for pieces in 0..=40 {
            for bits in 1..=16 {
                widths.insert(digit_bits::<u16>(&sort_chip(launch), pieces * 256, bits));
            }
        }
    }
    assert_eq!(widths.into_iter().collect::<Vec<_>>(), [1, 2, 3, 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fused_radix_sort_matches_host_stable_sort(
        pieces in 0usize..=40,
        offset in 0usize..3,
        dtype in 0usize..5,
        descending in any::<bool>(),
        seed in any::<u64>(),
        launch in 0usize..SORT_LAUNCH_CYCLES.len(),
        bits_sel in 0u32..=17,
    ) {
        // n = pieces·256 − 1, pieces·256 or pieces·256 + 1, with 256-key
        // 16-bit pieces (512-key 8-bit ones) on the tiny chip: n ∈ {0, 1}
        // at pieces = 0, piece boundaries throughout, lane boundaries
        // wherever the lane length divides the pieces, and from 33
        // 16-bit pieces up, passes whose 5 lanes span two waves of the
        // chip's 4 vector cores. The launch cost moves the size rule's
        // digit width, and `bits_sel` sorts by the low bits only, so
        // the last digit is often narrower than the others. Keys are
        // drawn from a narrow range so stability is exercised, and fp16
        // keys include NaNs of both signs, ±0 and ±∞.
        let n = (pieces * 256 + offset).saturating_sub(1);
        let spec = sort_chip(SORT_LAUNCH_CYCLES[launch]);
        let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
        let word = |i: usize| {
            let x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 40
        };
        let specials = [0x7E00u16, 0xFE00, 0x0000, 0x8000, 0x7C00, 0xFC00, 0x7C01];
        match dtype {
            0 => check_fused_sort(spec, (0..n).map(|i| (word(i) % 7) as u8 * 37).collect::<Vec<u8>>().as_slice(), order, sort_bits::<u8>(bits_sel))?,
            1 => check_fused_sort(spec, (0..n).map(|i| ((word(i) % 9) as i32 * 29 - 116) as i8).collect::<Vec<i8>>().as_slice(), order, sort_bits::<i8>(bits_sel))?,
            2 => check_fused_sort(spec, (0..n).map(|i| (word(i) % 600) as u16 * 109).collect::<Vec<u16>>().as_slice(), order, sort_bits::<u16>(bits_sel))?,
            3 => check_fused_sort(spec, (0..n).map(|i| ((word(i) % 600) as i32 * 109 - 32_700) as i16).collect::<Vec<i16>>().as_slice(), order, sort_bits::<i16>(bits_sel))?,
            _ => {
                let data: Vec<F16> = (0..n)
                    .map(|i| match word(i) % 8 {
                        0 => F16::from_bits(specials[(word(i) >> 8) as usize % specials.len()]),
                        w => F16::from_f32((w as f32 - 4.0) * ((word(i) >> 12) % 50) as f32 / 8.0),
                    })
                    .collect();
                check_fused_sort(spec, &data, order, sort_bits::<F16>(bits_sel))?
            }
        }
    }

    #[test]
    fn mcscan_mask_matches_reference(
        mask in proptest::collection::vec(0u8..=1, 1..20_000),
        s_idx in 0usize..3,
        blocks in 1u32..=20,
    ) {
        let s = [32, 64, 128][s_idx];
        let dev = Device::ascend_910b4();
        let m = dev.tensor(&mask).unwrap();
        let r = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            McScanConfig { s, blocks, kind: ScanKind::Inclusive },
        ).unwrap();
        prop_assert_eq!(r.y.to_vec(), scan_reference(&mask));
    }

    #[test]
    fn scanc_matches_reference_and_mcscan(
        mask in proptest::collection::vec(0u8..=1, 1..20_000),
        s_idx in 0usize..3,
        tiles_per_lane in 1usize..=4,
        w_idx in 0usize..3,
    ) {
        let s = [32, 64, 128][s_idx];
        // The 910B4's 16 flag ids admit the full w ∈ {1, 2, 4} range
        // (w² ≤ flag_id_limit).
        let lookback_window = [1, 2, 4][w_idx];
        let dev = Device::ascend_910b4();
        let m = dev.tensor(&mask).unwrap();
        let sc = ascend_scan::scan::scanc::scanc::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            ascend_scan::ScanCConfig { s, tiles_per_lane, lookback_window },
        ).unwrap();
        prop_assert_eq!(sc.y.to_vec(), scan_reference(&mask));
        let mc = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            McScanConfig { s, blocks: dev.spec().ai_cores, kind: ScanKind::Inclusive },
        ).unwrap();
        prop_assert_eq!(sc.y.to_vec(), mc.y.to_vec());
        // The chained look-back never takes a barrier.
        prop_assert_eq!(sc.report.sync_rounds, 0);
    }

    #[test]
    fn scanc_f16_is_exact_across_the_subnormal_boundary(
        steps in proptest::collection::vec(0u32..=6, 1..300),
        tiles_per_lane in 1usize..=3,
        w_idx in 0usize..3,
    ) {
        // Inputs are multiples of the smallest f16 subnormal (2^-24).
        // The running sum stays below 2048·2^-24 = 2^-13, where every
        // multiple of 2^-24 is exactly representable, so the sequential
        // reference and ScanC's lane-local-scan-plus-offset association
        // must agree bit for bit even as partials cross the
        // subnormal/normal boundary at 2^-14.
        let quantum = f32::powi(2.0, -24);
        let data: Vec<F16> = steps
            .iter()
            .map(|&k| F16::from_f32(k as f32 * quantum))
            .collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let sc = ascend_scan::scan::scanc::scanc::<F16, F16, F16>(
            dev.spec(),
            dev.memory(),
            &x,
            ascend_scan::ScanCConfig {
                s: 16,
                tiles_per_lane,
                // Multi-hop accumulation uses the same left-associated
                // grouping as the chain, so every window is bit-exact.
                lookback_window: [1, 2, 4][w_idx],
            },
        ).unwrap();
        let expect = ascend_scan::scan::reference::inclusive(&data);
        let got: Vec<u16> = sc.y.to_vec().iter().map(|v| v.encode()).collect();
        let want: Vec<u16> = expect.iter().map(|v| v.encode()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scanc_exclusive_matches_reference_at_boundaries(
        tiles in 0usize..=9,
        offset in 0usize..3,
        tiles_per_lane in 1usize..=3,
        lookback_window in 1usize..=2,
        seed in any::<u64>(),
    ) {
        // n = tiles·ℓ − 1, tiles·ℓ or tiles·ℓ + 1 with ℓ = 16² on the
        // tiny chip (4 lanes per wave): n ∈ {0, 1} at tiles = 0, tile
        // boundaries throughout, lane boundaries wherever tiles is a
        // multiple of tiles_per_lane, and grids of up to 5 blocks that
        // span waves.
        let n = (tiles * 256 + offset).saturating_sub(1);
        let mask: Vec<u8> = (0..n)
            .map(|i| ((seed.rotate_left(i as u32 % 64) ^ i as u64) & 1) as u8)
            .collect();
        let dev = Device::with_spec(ChipSpec::tiny());
        let m = dev.tensor(&mask).unwrap();
        let sc = ascend_scan::scan::scanc_kind::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            ascend_scan::ScanCConfig { s: 16, tiles_per_lane, lookback_window },
            ScanKind::Exclusive,
        ).unwrap();
        prop_assert_eq!(
            sc.y.to_vec(),
            ascend_scan::scan::reference::exclusive_widening::<u8, i32>(&mask)
        );
        prop_assert_eq!(sc.report.sync_rounds, 0);
    }

    #[test]
    fn split_is_a_stable_partition(
        data in proptest::collection::vec(any::<u16>(), 1..8_000),
        seed in any::<u64>(),
    ) {
        let mask: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(i, _)| ((seed >> (i % 64)) & 1) as u8)
            .collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let m = dev.tensor(&mask).unwrap();
        let run = dev.split(&x, &m).unwrap();

        let mut expect_vals = Vec::new();
        let mut expect_idx = Vec::new();
        for pass in [1u8, 0u8] {
            for (i, (&v, &mk)) in data.iter().zip(&mask).enumerate() {
                if mk == pass {
                    expect_vals.push(v);
                    expect_idx.push(i as u32);
                }
            }
        }
        prop_assert_eq!(run.values.to_vec(), expect_vals);
        prop_assert_eq!(run.indices.to_vec(), expect_idx);
    }

    #[test]
    fn radix_sort_sorts_any_f16_bits(
        bits in proptest::collection::vec(any::<u16>(), 1..4_000),
    ) {
        let data: Vec<F16> = bits.iter().map(|&b| F16::from_bits(b)).collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let run = dev.sort(&x, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_by(F16::total_cmp);
        let got: Vec<u16> = run.values.to_vec().iter().map(|v| v.encode()).collect();
        let want: Vec<u16> = expect.iter().map(|v| v.encode()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn compress_equals_host_filter(
        data in proptest::collection::vec(any::<u16>(), 1..10_000),
        flip in any::<u64>(),
    ) {
        let mask: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| u8::from((v as u64 ^ flip ^ i as u64) & 1 == 1))
            .collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let m = dev.tensor(&mask).unwrap();
        let run = dev.compress(&x, &m).unwrap();
        let expect: Vec<u16> = data
            .iter()
            .zip(&mask)
            .filter(|&(_, &mk)| mk != 0)
            .map(|(&v, _)| v)
            .collect();
        prop_assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn weighted_sample_respects_the_cdf(
        head in 1u32..100,
        theta in 0.0f64..0.99,
    ) {
        // A distribution with all mass uniformly on the first `head`
        // entries: any draw must land inside the head.
        let n = 5_000usize;
        let mut w = vec![0.0f32; n];
        for slot in w.iter_mut().take(head as usize) {
            *slot = 1.0;
        }
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&w).unwrap();
        let run = dev.weighted_sample(&x, theta).unwrap();
        prop_assert!(run.index < head as usize,
            "sample {} escaped the support of size {head}", run.index);
    }

    #[test]
    fn timing_reports_are_internally_consistent(
        n in 1_000usize..50_000,
    ) {
        let dev = Device::ascend_910b4();
        let mask = vec![1u8; n];
        let m = dev.tensor(&mask).unwrap();
        let r = dev.mask_exclusive_scan(&m).unwrap().report;
        // Time covers at least the launch overhead.
        prop_assert!(r.cycles >= dev.spec().launch_cycles);
        // Traffic is at least the paper's 3N + small change for phase 1
        // plus phase 2's read+write.
        prop_assert!(r.bytes_read >= (2 * n) as u64);
        prop_assert!(r.bytes_written >= n as u64);
        // Utilizations are fractions.
        for e in ascend_scan::sim::EngineKind::ALL {
            let u = r.utilization(e, dev.spec().ai_cores * 3);
            prop_assert!((0.0..=1.0).contains(&u), "{e}: {u}");
        }
        // The operator can never beat the chip's peak bandwidth.
        prop_assert!(r.traffic_gbps() <= dev.spec().l2_bytes_per_sec / 1e9 * 1.01);
    }
}
