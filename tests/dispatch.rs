//! Dispatch gate for the size-adaptive scan entry point: at every size
//! of the 16K–16M sweep, for both dtype paths, `scan::scan` must take
//! no more simulated time than MCScan or the UB-filling ScanC
//! (`ScanCConfig::for_chip`), the two kernels it chooses between.
//!
//! Each kernel runs on a fresh `Device`: a report's `working_set` is
//! the device's allocation high-water, so a kernel's time depends on
//! what was allocated before it. Validation is off because only the
//! timing matters here (it is identical under every validation mode).

use ascend_scan::dtypes::F16;
use ascend_scan::scan::dispatch::plan;
use ascend_scan::scan::{mcscan, scan, scanc};
use ascend_scan::sim::ValidationMode;
use ascend_scan::{ChipSpec, Device, Element, GlobalTensor, McScanConfig, ScanCConfig, ScanKind};
use ascend_scan::{ScanRun, SimResult};

const SIZES: [usize; 8] = [
    1 << 14,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 24,
];

fn spec() -> ChipSpec {
    ChipSpec::ascend_910b4().with_validation(ValidationMode::Off)
}

/// Simulated cycles of one scan of `n` copies of `one` on a fresh
/// device.
fn cycles<T: Element, O: Element>(
    n: usize,
    one: T,
    kernel: impl FnOnce(&Device, &GlobalTensor<T>) -> SimResult<ScanRun<O>>,
) -> u64 {
    let dev = Device::with_spec(spec());
    let x = dev.tensor(&vec![one; n]).unwrap();
    kernel(&dev, &x).unwrap().report.cycles
}

#[test]
fn entry_point_is_never_slower_than_either_kernel_fp16() {
    let spec = spec();
    for n in SIZES {
        let mc = cycles(n, F16::ONE, |d, x| {
            mcscan::<F16, F16, F16>(d.spec(), d.memory(), x, McScanConfig::for_chip(&spec))
        });
        let sc = cycles(n, F16::ONE, |d, x| {
            let cfg = ScanCConfig::for_chip::<F16, F16>(&spec);
            scanc::<F16, F16, F16>(d.spec(), d.memory(), x, cfg)
        });
        let entry = cycles(n, F16::ONE, |d, x| {
            scan::<F16, F16, F16>(d.spec(), d.memory(), x, ScanKind::Inclusive)
        });
        let kernel = plan::<F16, F16, F16>(&spec, n, ScanKind::Inclusive).kernel();
        assert!(
            entry <= mc.min(sc),
            "fp16 n={n}: entry ({kernel}) {entry} cycles > min(MCScan {mc}, ScanC {sc})"
        );
    }
}

#[test]
fn entry_point_is_never_slower_than_either_kernel_int8() {
    let spec = spec();
    for n in SIZES {
        let mc = cycles(n, 1u8, |d, x| {
            mcscan::<u8, i16, i32>(d.spec(), d.memory(), x, McScanConfig::for_chip(&spec))
        });
        let sc = cycles(n, 1u8, |d, x| {
            let cfg = ScanCConfig::for_chip::<i16, i32>(&spec);
            scanc::<u8, i16, i32>(d.spec(), d.memory(), x, cfg)
        });
        let entry = cycles(n, 1u8, |d, x| {
            scan::<u8, i16, i32>(d.spec(), d.memory(), x, ScanKind::Inclusive)
        });
        let kernel = plan::<u8, i16, i32>(&spec, n, ScanKind::Inclusive).kernel();
        assert!(
            entry <= mc.min(sc),
            "int8 n={n}: entry ({kernel}) {entry} cycles > min(MCScan {mc}, ScanC {sc})"
        );
    }
}

#[test]
fn device_scans_take_the_entry_points_path() {
    // `Device::cumsum` and `Device::mask_exclusive_scan` are the entry
    // point: ScanC below V/5 tiles and from 2M elements up, MCScan in
    // between (910B4: V = 40 vector cores, 16K-element tiles).
    let dev = Device::with_spec(spec());
    for (n, kernel) in [(1 << 16, "ScanC"), (1 << 18, "MCScan"), (1 << 22, "ScanC")] {
        let x = dev.tensor(&vec![F16::ONE; n]).unwrap();
        assert_eq!(dev.cumsum(&x).unwrap().report.name, kernel, "cumsum n={n}");
        let m = dev.tensor(&vec![1u8; n]).unwrap();
        let run = dev.mask_exclusive_scan(&m).unwrap();
        assert_eq!(run.report.name, kernel, "mask scan n={n}");
        assert_eq!(run.y.read_range(n - 1, 1).unwrap()[0], n as i32 - 1);
    }
}
