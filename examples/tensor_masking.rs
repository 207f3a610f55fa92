//! Tensor masking: `masked_select`-style compaction of attention
//! scores, the paper's Compress operator (Fig. 10) against the scalar
//! `torch.masked_select` baseline.
//!
//! A synthetic attention-pruning workload: keep only the entries of a
//! score tensor above a threshold, producing the compacted survivors and
//! measuring both operators' simulated bandwidth.
//!
//! ```text
//! cargo run --release --example tensor_masking
//! ```

use ascend_scan::dtypes::F16;
use ascend_scan::{Device, GlobalTensor};

fn main() {
    let dev = Device::ascend_910b4();

    // Synthetic attention scores for a (batch=8, heads=16, 256x256)
    // block-sparse pattern flattened to one tensor.
    let n = 8 * 16 * 256 * 256; // 8 Mi scores
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let scores: Vec<F16> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            F16::from_f32((state >> 40) as f32 / (1u64 << 24) as f32)
        })
        .collect();
    let threshold = 0.75f32;
    let mask: Vec<u8> = scores
        .iter()
        .map(|s| u8::from(s.to_f32() > threshold))
        .collect();
    let kept_expect = mask.iter().map(|&m| m as usize).sum::<usize>();

    let x = dev.tensor(&scores).expect("upload scores");
    let m = dev.tensor(&mask).expect("upload mask");

    println!(
        "pruning {} attention scores at threshold {threshold}: {} survivors ({:.1}%)\n",
        n,
        kept_expect,
        100.0 * kept_expect as f64 / n as f64
    );

    // --- Compress (exclusive int8 scan + GatherMask scatter). ---------
    let run = dev.compress(&x, &m).expect("compress");
    assert_eq!(run.n_true, kept_expect);
    let sample: Vec<f32> = run
        .values
        .read_range(0, 4)
        .unwrap()
        .iter()
        .map(|v| v.to_f32())
        .collect();
    println!(
        "compress:           {:>8.2} ms  {:>6.0} GB/s   first survivors: {sample:.3?}",
        run.report.time_ms(),
        run.report.gbps()
    );

    // --- The scalar torch.masked_select baseline. ---------------------
    let (out, base) = ascend_scan::ops::baselines::masked_select(dev.spec(), dev.memory(), &x, &m)
        .expect("baseline");
    assert_eq!(out.len(), kept_expect);
    println!(
        "torch.masked_select {:>8.2} ms  {:>6.1} GB/s",
        base.time_ms(),
        base.gbps()
    );
    println!(
        "\nspeedup: {:.0}x (the stock operator uses neither vector nor cube units)",
        base.time_s() / run.report.time_s()
    );

    // --- SplitInd keeps both partitions + original indices. -----------
    let split = dev.split(&x, &m).expect("split");
    let idx: GlobalTensor<u32> = split.indices;
    let first_kept = idx.read_range(0, 3).unwrap();
    println!(
        "\nSplitInd additionally returns original positions, e.g. first kept indices {first_kept:?}"
    );
}
