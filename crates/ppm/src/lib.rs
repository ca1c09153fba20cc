//! # ppm — price-theory based power management for heterogeneous multi-cores
//!
//! A full reproduction of *"Price Theory Based Power Management for
//! Heterogeneous Multi-Cores"* (Muthukaruppan, Pathania, Mitra —
//! ASPLOS 2014) as a Rust library stack:
//!
//! * [`platform`] — the ARM big.LITTLE hardware substrate (clusters, V-F
//!   tables, DVFS regulators, calibrated power model, migration costs).
//! * [`workload`] — tasks, heartbeats (HRM), and synthetic models of the
//!   paper's PARSEC / SPEC 2006 / SD-VBS benchmarks and workload sets.
//! * [`sched`] — the Linux-like scheduling substrate and the simulation
//!   executor with its pluggable [`sched::PowerManager`] hook.
//! * [`core`] — the paper's contribution: the market (task/core/cluster/
//!   chip agents, Eq. 1 bidding, inflation/deflation DVFS control, the
//!   TDP-driven money supply) and the LBT module.
//! * [`baselines`] — the evaluation's comparison schemes, HPM and HL.
//! * [`predict`] — the online power-performance estimator (the paper's
//!   stated future work, replacing off-line profiling).
//! * [`obs`] — the telemetry layer: per-quantum time-series
//!   recorder, manager phase profiler, and Chrome-trace/CSV/JSONL exporters.
//! * [`fleet`] — the multi-chip layer: N chip simulations under one
//!   datacenter power cap, traded per epoch on a price-theory
//!   power-budget exchange (the §3.2 money machinery one level up).
//!
//! ## Quick start
//!
//! ```
//! use ppm::core::config::PpmConfig;
//! use ppm::core::manager::tc2_ppm_system;
//! use ppm::platform::units::SimDuration;
//! use ppm::sched::Simulation;
//! use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
//! use ppm::workload::task::{Priority, Task, TaskId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = BenchmarkSpec::of(Benchmark::X264, Input::Large)?;
//! let (sys, mgr) = tc2_ppm_system(
//!     vec![Task::new(TaskId(0), spec, Priority(1))],
//!     PpmConfig::tc2(),
//! );
//! let mut sim = Simulation::new(sys, mgr);
//! sim.run_for(SimDuration::from_secs(5));
//! println!("avg power: {}", sim.metrics().average_power());
//! # Ok(())
//! # }
//! ```
//!
//! The runnable examples under `examples/` walk through the main scenarios;
//! the experiment binaries in the `ppm-bench` crate regenerate every table
//! and figure of the paper's evaluation (see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ppm_baselines as baselines;
pub use ppm_core as core;
pub use ppm_fleet as fleet;
pub use ppm_obs as obs;
pub use ppm_platform as platform;
pub use ppm_predict as predict;
pub use ppm_sched as sched;
pub use ppm_workload as workload;

/// Crate version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // One symbol per layer proves the facade compiles against the stack.
        let _chip = crate::platform::chip::Chip::tc2();
        let _cfg = crate::core::config::PpmConfig::tc2();
        let _sets = crate::workload::sets::table6_sets();
        let _nice = crate::sched::Nice::DEFAULT;
        let _hl = crate::baselines::hl::HlConfig::new();
        let _ex = crate::fleet::FleetExchange::new(crate::platform::units::Watts(10.0));
        assert!(!crate::VERSION.is_empty());
    }
}
