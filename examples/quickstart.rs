//! Quickstart: scan a large array on a simulated Ascend 910B4 and look
//! at the execution profile.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ascend_scan::dtypes::F16;
use ascend_scan::sim::EngineKind;
use ascend_scan::{Device, McScanConfig, ScanKind};

fn main() {
    // A simulated Ascend 910B4: 20 AI cores (1 cube + 2 vector each),
    // 800 GB/s of HBM.
    let dev = Device::ascend_910b4();
    println!("device: {}", dev.spec().name);

    // --- 1. Inclusive scan of 4 Mi fp16 elements on all cores. -------
    // `cumsum` runs whichever of ScanC and the paper's MCScan is faster
    // at this size (ScanC here: one pass, no barrier).
    let n = 4 << 20;
    let xs: Vec<F16> = (0..n).map(|i| F16::from_f32((i % 2) as f32)).collect();
    let x = dev.tensor(&xs).expect("upload");

    let run = dev.cumsum(&x).expect("cumsum");
    let y = run.y.to_vec();
    println!(
        "\n{} over {n} elements: y[0] = {}, y[5] = {} (exact while sums are small)",
        run.report.name, y[0], y[5]
    );
    println!(
        "simulated time {:.1} us  |  operator bandwidth {:.0} GB/s  ({:.1}% of peak)",
        run.report.time_us(),
        run.report.gbps(),
        run.report.fraction_of_peak(dev.spec()) * 100.0
    );
    println!(
        "traffic: {} MB read, {} MB written over {} blocks, {} barrier(s)",
        run.report.bytes_read >> 20,
        run.report.bytes_written >> 20,
        run.report.blocks,
        run.report.sync_rounds
    );
    for e in [
        EngineKind::Cube,
        EngineKind::Vec,
        EngineKind::Mte2,
        EngineKind::Mte3,
    ] {
        println!(
            "  {:<5} utilization {:>5.1}%",
            e.name(),
            run.report.utilization(e, dev.spec().ai_cores * 3) * 100.0
        );
    }

    // --- 2. Exclusive mask scan: the split/compress building block. --
    let mask: Vec<u8> = (0..100_000).map(|i| u8::from(i % 3 == 0)).collect();
    let m = dev.tensor(&mask).expect("upload mask");
    let offs = dev.mask_exclusive_scan(&m).expect("exclusive scan");
    let off_host = offs.y.to_vec();
    println!(
        "\nexclusive mask scan: offsets start {:?}..., total selected = {}",
        &off_host[..6],
        off_host.last().unwrap() + i32::from(*mask.last().unwrap())
    );

    // --- 3. The same scan, tuned by hand. -----------------------------
    let custom = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
        dev.spec(),
        dev.memory(),
        &m,
        McScanConfig {
            s: 64,
            blocks: 8,
            kind: ScanKind::Exclusive,
        },
    )
    .expect("custom mcscan");
    println!(
        "custom config (s = 64, 8 blocks): {:.1} us vs {:.1} us with the default",
        custom.report.time_us(),
        offs.report.time_us()
    );
}
