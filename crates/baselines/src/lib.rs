//! # ppm-baselines — the paper's comparison power managers
//!
//! The ASPLOS 2014 evaluation (§5.3) compares PPM against two schemes, both
//! reimplemented here on the same substrate:
//!
//! * [`hpm::HpmManager`] — the authors' earlier **H**ierarchical **P**ower
//!   **M**anagement framework: stacked PID controllers (per-task
//!   performance, per-cluster DVFS, chip power cap) with naive,
//!   non-speculative load balancing and migration.
//! * [`hl::HlManager`] — the **H**eterogeneity-aware **L**inux (Linaro)
//!   scheduler: PELT-activeness-threshold migration between clusters, CFS
//!   fair sharing within a core, the *ondemand* frequency governor, and a
//!   hard big-cluster cutoff under a TDP cap.
//!
//! ```
//! use ppm_baselines::hl::{HlConfig, HlManager};
//! use ppm_platform::chip::Chip;
//! use ppm_platform::core::CoreId;
//! use ppm_platform::units::SimDuration;
//! use ppm_sched::executor::{AllocationPolicy, Simulation, System};
//! use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
//! use ppm_workload::task::{Priority, Task, TaskId};
//!
//! # fn main() -> Result<(), ppm_workload::benchmarks::UnknownVariantError> {
//! let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
//! let spec = BenchmarkSpec::of(Benchmark::Texture, Input::Vga)?;
//! sys.add_task(Task::new(TaskId(0), spec, Priority(1)), CoreId(0));
//! let mut sim = Simulation::new(sys, HlManager::new(HlConfig::new()));
//! sim.run_for(SimDuration::from_secs(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hl;
pub mod hpm;
pub mod pid;

pub use crate::hl::{HlConfig, HlManager};
pub use crate::hpm::{HpmConfig, HpmManager};
pub use crate::pid::{Pid, PidConfig};
