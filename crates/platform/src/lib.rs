//! # ppm-platform — big.LITTLE hardware substrate
//!
//! A software model of the ARM big.LITTLE evaluation platform used by
//! *"Price Theory Based Power Management for Heterogeneous Multi-Cores"*
//! (ASPLOS 2014): heterogeneous clusters behind per-cluster V-F regulators,
//! a calibrated power model with `hwmon`-style sensors, and the paper's
//! measured migration-cost ranges.
//!
//! The higher layers (`ppm-sched`, `ppm-core`, `ppm-baselines`) only interact
//! with hardware through the observables this crate provides — supply (MHz),
//! cluster power, and migration latency — which is exactly the interface the
//! paper's kernel-module agents had on the real TC2 board.
//!
//! ## Quick start
//!
//! ```
//! use ppm_platform::chip::Chip;
//! use ppm_platform::cluster::ClusterId;
//! use ppm_platform::units::SimTime;
//! use ppm_platform::vf::VfLevel;
//!
//! let mut chip = Chip::tc2();
//! // Ask the LITTLE cluster for its top frequency...
//! let top = chip.cluster(ClusterId(0)).table().max_level();
//! chip.cluster_mut(ClusterId(0)).request_level(top, SimTime::ZERO);
//! // ...the regulator takes a little while.
//! chip.tick(SimTime::from_millis(1));
//! assert_eq!(chip.cluster(ClusterId(0)).level(), top);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod cluster;
pub mod core;
pub mod faults;
pub mod migration;
pub mod power;
pub mod thermal;
pub mod units;
pub mod vf;

pub use crate::chip::{Chip, ChipBuilder};
pub use crate::cluster::{Cluster, ClusterId, ClusterPowerState};
pub use crate::core::{CoreClass, CoreDescriptor, CoreId};
pub use crate::faults::{ActuationOutcome, FaultConfig, FaultPlan, FaultStats};
pub use crate::migration::MigrationModel;
pub use crate::power::{EnergyMeter, PowerModel};
pub use crate::thermal::{Celsius, ThermalModel, ThermalParams};
pub use crate::units::{
    Cycles, Joules, MegaHertz, MilliVolts, Money, Price, ProcessingUnits, SimDuration, SimTime,
    Watts,
};
pub use crate::vf::{VfLevel, VfPoint, VfTable};
