//! Host-side wall-clock accounting of the simulator's own launch phases.
//!
//! Every launch adds the host time of each of its phases, the simulated
//! cycles it modelled and one to the launch count into process-wide
//! counters. A caller takes a [`snapshot`] before and after a piece of
//! work and reports the difference ([`HostPhases::since`]). The numbers
//! are wall-clock and run-dependent, so they never enter a
//! [`KernelReport`](crate::report::KernelReport) or any other
//! deterministic output: only a report's `host` section carries them.
//!
//! Concurrent launches (a `--jobs` pool) add concurrently; each phase's
//! total is then a sum over the threads that ran launches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One host phase of a launch, in the order a launch runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostPhase {
    /// Block threads running the kernel closures, each block then
    /// collecting its own cores' records.
    Blocks,
    /// Merging the blocks' outcomes into the launch report and streams.
    Harvest,
    /// The `Full`-mode audits: trace events, physical occupancy, report
    /// accounting, stall partition and the happens-before schedule.
    Audits,
    /// Critical-path extraction (the makespan-identity audit).
    CritPath,
}

impl HostPhase {
    /// Every phase, in launch order.
    pub const ALL: [HostPhase; 4] = [
        HostPhase::Blocks,
        HostPhase::Harvest,
        HostPhase::Audits,
        HostPhase::CritPath,
    ];

    /// Key stem used in reports (`<name>_seconds`).
    pub const fn name(self) -> &'static str {
        match self {
            HostPhase::Blocks => "block_exec",
            HostPhase::Harvest => "harvest",
            HostPhase::Audits => "audit",
            HostPhase::CritPath => "critpath",
        }
    }
}

static PHASE_NANOS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static LAUNCHES: AtomicU64 = AtomicU64::new(0);
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Times one launch's phases: each [`LaunchClock::lap`] charges the time
/// since the previous lap (or since [`LaunchClock::start`]) to a phase.
pub struct LaunchClock {
    last: Instant,
}

impl LaunchClock {
    /// Starts timing a launch.
    pub fn start() -> Self {
        LaunchClock {
            last: Instant::now(),
        }
    }

    /// Charges the time since the last lap to `phase`.
    pub fn lap(&mut self, phase: HostPhase) {
        let now = Instant::now();
        let nanos = now.duration_since(self.last).as_nanos() as u64;
        PHASE_NANOS[phase as usize].fetch_add(nanos, Ordering::Relaxed);
        self.last = now;
    }

    /// Counts the launch and the simulated cycles it modelled.
    pub fn finish(self, cycles: u64) {
        LAUNCHES.fetch_add(1, Ordering::Relaxed);
        SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
    }
}

/// Totals of the process-wide launch counters at one moment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostPhases {
    /// Launches that completed. A failed launch adds the phases it
    /// finished but is not counted.
    pub launches: u64,
    /// Simulated cycles of those launches.
    pub sim_cycles: u64,
    /// Host seconds per phase, indexed like [`HostPhase::ALL`].
    pub seconds: [f64; 4],
}

impl HostPhases {
    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &HostPhases) -> HostPhases {
        let mut seconds = [0.0; 4];
        for (i, s) in seconds.iter_mut().enumerate() {
            *s = (self.seconds[i] - earlier.seconds[i]).max(0.0);
        }
        HostPhases {
            launches: self.launches - earlier.launches,
            sim_cycles: self.sim_cycles - earlier.sim_cycles,
            seconds,
        }
    }

    /// Host seconds over all phases.
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Simulated cycles modelled per host second of launch time (0 when
    /// no time was spent).
    pub fn cycles_per_host_second(&self) -> f64 {
        let total = self.total_seconds();
        if total > 0.0 {
            self.sim_cycles as f64 / total
        } else {
            0.0
        }
    }
}

/// Reads the process-wide counters.
pub fn snapshot() -> HostPhases {
    let mut seconds = [0.0; 4];
    for (s, n) in seconds.iter_mut().zip(&PHASE_NANOS) {
        *s = n.load(Ordering::Relaxed) as f64 * 1e-9;
    }
    HostPhases {
        launches: LAUNCHES.load(Ordering::Relaxed),
        sim_cycles: SIM_CYCLES.load(Ordering::Relaxed),
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_into_their_phase() {
        let before = snapshot();
        let mut clock = LaunchClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.lap(HostPhase::Audits);
        clock.finish(1234);
        let d = snapshot().since(&before);
        // Other tests may launch concurrently, so only lower bounds hold.
        assert!(d.launches >= 1);
        assert!(d.sim_cycles >= 1234);
        assert!(d.seconds[HostPhase::Audits as usize] >= 0.002);
        assert!(d.cycles_per_host_second() > 0.0);
        assert_eq!(HostPhases::default().cycles_per_host_second(), 0.0);
    }
}
