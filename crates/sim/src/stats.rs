//! Execution reports.

/// Observe what `cycles` simulated cycles cost the host
/// (`sim.host_ns_per_cycle`), given the wall time they took. Host time is
/// a property of the host, not of the simulated machine, so it is never a
/// field of [`ExecReport`]: reports stay reproducible byte for byte.
pub fn record_host_time(
    telemetry: &cicero_telemetry::Telemetry,
    cycles: u64,
    host_time: std::time::Duration,
) {
    telemetry.observe("sim.host_ns_per_cycle", host_time.as_nanos() as f64 / cycles as f64);
}

/// The result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecReport {
    /// Total cycles until acceptance, exhaustion, or the cycle cap.
    pub cycles: u64,
    /// Whether the program accepted.
    pub accepted: bool,
    /// Input position at which acceptance fired (characters consumed).
    pub match_position: Option<usize>,
    /// RE identifier reported by `AcceptPartialId` (multi-matching sets).
    pub matched_id: Option<u16>,
    /// Instructions executed across all cores.
    pub instructions: u64,
    /// Instruction-cache hits across all cores.
    pub icache_hits: u64,
    /// Instruction-cache misses across all cores.
    pub icache_misses: u64,
    /// Extra cycles cores spent waiting on instruction-memory fills
    /// (including port contention).
    pub memory_stall_cycles: u64,
    /// Cycles cores spent blocked on the lockstep window.
    pub window_stall_cycles: u64,
    /// Threads moved across engines by the ring load balancer.
    pub cross_engine_transfers: u64,
    /// Threads dropped by the FIFO duplicate filter.
    pub deduplicated: u64,
    /// Peak number of live threads.
    pub peak_threads: usize,
    /// True if the run aborted at the cycle cap (pathological input).
    pub hit_cycle_limit: bool,
}

impl ExecReport {
    /// Execution time in microseconds at the given clock.
    ///
    /// A non-positive (or non-finite) clock is meaningless; it yields
    /// `NaN` rather than dividing by zero, and the telemetry layer drops
    /// non-finite observations, so a bad clock can never masquerade as a
    /// real measurement.
    pub fn time_us(&self, clock_mhz: f64) -> f64 {
        if clock_mhz > 0.0 {
            self.cycles as f64 / clock_mhz
        } else {
            f64::NAN
        }
    }

    /// Energy in W·µs given a power figure. `NaN` when the clock is
    /// non-positive (see [`ExecReport::time_us`]).
    pub fn energy_wus(&self, clock_mhz: f64, watts: f64) -> f64 {
        self.time_us(clock_mhz) * watts
    }

    /// Instruction-cache hit rate in `[0, 1]` (1.0 when no accesses).
    pub fn icache_hit_rate(&self) -> f64 {
        let total = self.icache_hits + self.icache_misses;
        if total == 0 {
            1.0
        } else {
            self.icache_hits as f64 / total as f64
        }
    }

    /// Fold this run into a telemetry collector: `sim.*` histograms for
    /// the distribution-shaped quantities (cycles, peak threads, i-cache
    /// hit rate, the stall-cycle breakdown) and counters for the monotone
    /// ones. Called once per [`Machine::run`](crate::Machine::run) when a
    /// collector is attached, so repeated runs build up distributions.
    pub fn record_into(&self, telemetry: &cicero_telemetry::Telemetry) {
        telemetry.counter_add("sim.runs", 1);
        telemetry.counter_add("sim.instructions", self.instructions);
        telemetry.counter_add("sim.icache_hits", self.icache_hits);
        telemetry.counter_add("sim.icache_misses", self.icache_misses);
        telemetry.counter_add("sim.cross_engine_transfers", self.cross_engine_transfers);
        telemetry.counter_add("sim.deduplicated", self.deduplicated);
        if self.accepted {
            telemetry.counter_add("sim.matches", 1);
        }
        if self.hit_cycle_limit {
            telemetry.counter_add("sim.cycle_limit_hits", 1);
        }
        telemetry.observe("sim.cycles", self.cycles as f64);
        telemetry.observe("sim.peak_threads", self.peak_threads as f64);
        telemetry.observe("sim.memory_stall_cycles", self.memory_stall_cycles as f64);
        telemetry.observe("sim.window_stall_cycles", self.window_stall_cycles as f64);
        telemetry.observe_with(
            "sim.icache_hit_rate",
            self.icache_hit_rate(),
            &[0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0],
        );
    }

    /// Accumulate another run's counters (used by benchmark drivers to
    /// aggregate over many REs/chunks). Verdict fields keep `self`'s.
    pub fn accumulate(&mut self, other: &ExecReport) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.icache_hits += other.icache_hits;
        self.icache_misses += other.icache_misses;
        self.memory_stall_cycles += other.memory_stall_cycles;
        self.window_stall_cycles += other.window_stall_cycles;
        self.cross_engine_transfers += other.cross_engine_transfers;
        self.deduplicated += other.deduplicated;
        self.peak_threads = self.peak_threads.max(other.peak_threads);
        self.hit_cycle_limit |= other.hit_cycle_limit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_and_energy() {
        let r = ExecReport { cycles: 1500, ..ExecReport::default() };
        assert!((r.time_us(150.0) - 10.0).abs() < 1e-9);
        assert!((r.energy_wus(150.0, 2.4) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn non_positive_clock_yields_nan_instead_of_dividing_by_zero() {
        let r = ExecReport { cycles: 1500, ..ExecReport::default() };
        assert!(r.time_us(0.0).is_nan());
        assert!(r.time_us(-150.0).is_nan());
        assert!(r.energy_wus(0.0, 2.4).is_nan());
        assert!(r.time_us(f64::NAN).is_nan());
    }

    #[test]
    fn record_into_builds_histograms_and_counters() {
        let telemetry = cicero_telemetry::Telemetry::new();
        let a = ExecReport {
            cycles: 100,
            accepted: true,
            instructions: 40,
            icache_hits: 30,
            icache_misses: 10,
            peak_threads: 6,
            ..ExecReport::default()
        };
        let b = ExecReport { cycles: 300, ..ExecReport::default() };
        a.record_into(&telemetry);
        b.record_into(&telemetry);
        assert_eq!(telemetry.counter("sim.runs"), 2);
        assert_eq!(telemetry.counter("sim.matches"), 1);
        assert_eq!(telemetry.counter("sim.instructions"), 40);
        let cycles = telemetry.histogram("sim.cycles").unwrap();
        assert_eq!(cycles.count, 2);
        assert_eq!(cycles.sum, 400.0);
        let hit_rate = telemetry.histogram("sim.icache_hit_rate").unwrap();
        assert_eq!(hit_rate.count, 2);
        assert_eq!(hit_rate.min, 0.75);
        assert_eq!(hit_rate.max, 1.0);
    }

    #[test]
    fn hit_rate() {
        let r = ExecReport { icache_hits: 3, icache_misses: 1, ..ExecReport::default() };
        assert!((r.icache_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(ExecReport::default().icache_hit_rate(), 1.0);
    }

    #[test]
    fn accumulate_sums_counters() {
        let mut a = ExecReport { cycles: 10, peak_threads: 4, ..ExecReport::default() };
        let b = ExecReport { cycles: 7, peak_threads: 9, instructions: 3, ..ExecReport::default() };
        a.accumulate(&b);
        assert_eq!(a.cycles, 17);
        assert_eq!(a.instructions, 3);
        assert_eq!(a.peak_threads, 9);
    }
}
