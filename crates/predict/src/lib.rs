//! # ppm-predict — online cross-class demand prediction
//!
//! The paper's LBT module speculates about migrations using *off-line
//! profiled* per-core-type demand and power (§5.2), and names its own
//! follow-up work as the fix: "we plan to include this estimation model
//! [power-performance prediction via program analysis, mechanistic
//! modeling, and empirical modeling — Pricopi et al., CASES 2013] within
//! our price theory based power management framework to eliminate the
//! off-line profiling step."
//!
//! This crate implements that online estimator in the same spirit:
//!
//! * **Empirical**: whenever a task runs, its observed cycles-per-heartbeat
//!   on the current core class is folded into a per-task, per-class EWMA
//!   ([`TaskProfile`]).
//! * **Mechanistic prior**: a class the task has never visited is predicted
//!   from its known class scaled by the *population speedup* — itself an
//!   EWMA over every task that has been observed on both classes — seeded
//!   with a mechanistic big/LITTLE prior (issue-width and window ratio of
//!   an OOO A15 vs an in-order A7, ≈ 1.8×).
//!
//! [`OnlineEstimator`] exposes the same `(task, class) → demand` query the
//! LBT snapshot builder needs, so the manager can run entirely without the
//! off-line tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use ppm_platform::core::CoreClass;
use ppm_platform::units::ProcessingUnits;
use ppm_workload::perclass::PerClass;
use ppm_workload::task::TaskId;

/// Mechanistic big/LITTLE speedup prior: the ratio of sustainable IPC of a
/// 3-wide out-of-order core over a 2-wide in-order core on mixed code, as a
/// mechanistic (interval) model estimates before any measurement exists.
pub const MECHANISTIC_SPEEDUP_PRIOR: f64 = 1.8;

/// EWMA smoothing factor for per-task cost observations.
const COST_ALPHA: f64 = 0.2;

/// EWMA smoothing factor for the population speedup.
const SPEEDUP_ALPHA: f64 = 0.05;

/// Per-task empirical state: smoothed cycles-per-heartbeat per class.
#[derive(Debug, Clone, Default)]
pub struct TaskProfile {
    cost: PerClass<Option<f64>>,
    /// Heart-rate target used to convert cost to demand.
    target_hr: f64,
}

impl TaskProfile {
    /// Smoothed cycles-per-heartbeat on `class`, if ever observed.
    pub fn cost(&self, class: CoreClass) -> Option<f64> {
        self.cost[class]
    }

    /// The task's own observed speedup, when it has run on both classes.
    pub fn own_speedup(&self) -> Option<f64> {
        match (self.cost.little, self.cost.big) {
            (Some(l), Some(b)) if b > 0.0 => Some(l / b),
            _ => None,
        }
    }
}

/// The online demand estimator.
///
/// ```
/// use ppm_platform::core::CoreClass;
/// use ppm_predict::OnlineEstimator;
/// use ppm_workload::task::TaskId;
///
/// let mut est = OnlineEstimator::new();
/// // A task observed on LITTLE at 30 hb/s target, costing 15e6 cycles/beat:
/// est.observe(TaskId(0), CoreClass::Little, 30.0, 15.0e6);
/// let d_little = est.demand(TaskId(0), CoreClass::Little).unwrap();
/// assert!((d_little.value() - 450.0).abs() < 1.0);
/// // The unseen big-core demand is extrapolated with the mechanistic prior.
/// let d_big = est.demand(TaskId(0), CoreClass::Big).unwrap();
/// assert!(d_big < d_little);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineEstimator {
    tasks: HashMap<TaskId, TaskProfile>,
    /// Population-level LITTLE/big cost ratio (empirical speedup).
    speedup: f64,
    speedup_samples: u64,
}

impl OnlineEstimator {
    /// An estimator with no observations, using the mechanistic prior.
    pub fn new() -> OnlineEstimator {
        OnlineEstimator {
            tasks: HashMap::new(),
            speedup: MECHANISTIC_SPEEDUP_PRIOR,
            speedup_samples: 0,
        }
    }

    /// Fold in an observation: `task` ran on `class` with heart-rate target
    /// `target_hr` (hb/s) and an observed cost of `cycles_per_beat`.
    ///
    /// Observations with non-positive cost or target are ignored.
    pub fn observe(
        &mut self,
        task: TaskId,
        class: CoreClass,
        target_hr: f64,
        cycles_per_beat: f64,
    ) {
        if cycles_per_beat <= 0.0 || target_hr <= 0.0 {
            return;
        }
        let profile = self.tasks.entry(task).or_default();
        profile.target_hr = target_hr;
        let slot = &mut profile.cost[class];
        *slot = Some(match *slot {
            Some(prev) => prev + COST_ALPHA * (cycles_per_beat - prev),
            None => cycles_per_beat,
        });
        // Any task seen on both classes refines the population speedup.
        if let Some(own) = profile.own_speedup() {
            self.speedup += SPEEDUP_ALPHA * (own - self.speedup);
            self.speedup_samples += 1;
        }
    }

    /// Predicted steady demand of `task` on `class`, in PU; `None` until
    /// the task has been observed at least once on *some* class.
    pub fn demand(&self, task: TaskId, class: CoreClass) -> Option<ProcessingUnits> {
        let profile = self.tasks.get(&task)?;
        let cost = self.predict_cost(profile, class)?;
        Some(ProcessingUnits(profile.target_hr * cost / 1e6))
    }

    /// Predicted cost for `class`: the task's own EWMA if observed there,
    /// otherwise its other-class EWMA scaled by the population speedup.
    fn predict_cost(&self, profile: &TaskProfile, class: CoreClass) -> Option<f64> {
        if let Some(c) = profile.cost(class) {
            return Some(c);
        }
        match class {
            CoreClass::Big => profile.cost(CoreClass::Little).map(|l| l / self.speedup),
            CoreClass::Little => profile.cost(CoreClass::Big).map(|b| b * self.speedup),
        }
    }

    /// Both-class demand prediction, when available.
    pub fn demand_per_class(&self, task: TaskId) -> Option<PerClass<ProcessingUnits>> {
        Some(PerClass::new(
            self.demand(task, CoreClass::Little)?,
            self.demand(task, CoreClass::Big)?,
        ))
    }

    /// The current population speedup estimate.
    pub fn speedup(&self) -> f64 {
        self.speedup
    }

    /// How many dual-class observations have refined the speedup.
    pub fn speedup_samples(&self) -> u64 {
        self.speedup_samples
    }

    /// Per-task profile, if any.
    pub fn profile(&self, task: TaskId) -> Option<&TaskProfile> {
        self.tasks.get(&task)
    }

    /// Drop a departed task's profile.
    pub fn remove_task(&mut self, task: TaskId) {
        self.tasks.remove(&task);
    }
}

impl Default for OnlineEstimator {
    fn default() -> Self {
        OnlineEstimator::new()
    }
}

impl fmt::Display for OnlineEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "estimator[{} tasks, speedup {:.2} ({} samples)]",
            self.tasks.len(),
            self.speedup,
            self.speedup_samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_the_true_cost() {
        let mut est = OnlineEstimator::new();
        for _ in 0..50 {
            est.observe(TaskId(0), CoreClass::Little, 30.0, 10.0e6);
        }
        let d = est.demand(TaskId(0), CoreClass::Little).expect("observed");
        assert!((d.value() - 300.0).abs() < 0.5, "{d}");
    }

    #[test]
    fn unseen_class_uses_the_prior() {
        let mut est = OnlineEstimator::new();
        est.observe(TaskId(0), CoreClass::Little, 30.0, 18.0e6);
        let big = est.demand(TaskId(0), CoreClass::Big).expect("extrapolated");
        let little = est.demand(TaskId(0), CoreClass::Little).expect("observed");
        assert!((little.value() / big.value() - MECHANISTIC_SPEEDUP_PRIOR).abs() < 1e-9);
    }

    #[test]
    fn population_speedup_is_learned_from_dual_class_tasks() {
        let mut est = OnlineEstimator::new();
        // Task 0 runs on both classes with a true speedup of 2.2.
        for _ in 0..500 {
            est.observe(TaskId(0), CoreClass::Little, 30.0, 22.0e6);
            est.observe(TaskId(0), CoreClass::Big, 30.0, 10.0e6);
        }
        assert!(
            (est.speedup() - 2.2).abs() < 0.05,
            "learned speedup {}",
            est.speedup()
        );
        // Task 1 has only been seen on LITTLE; its big-core prediction now
        // uses the learned 2.2, not the 1.8 prior.
        est.observe(TaskId(1), CoreClass::Little, 10.0, 44.0e6);
        let big = est.demand(TaskId(1), CoreClass::Big).expect("extrapolated");
        assert!((big.value() - 440.0 / 2.2).abs() < 5.0, "{big}");
    }

    #[test]
    fn unknown_task_predicts_nothing() {
        let est = OnlineEstimator::new();
        assert!(est.demand(TaskId(9), CoreClass::Little).is_none());
        assert!(est.demand_per_class(TaskId(9)).is_none());
    }

    #[test]
    fn bad_observations_are_ignored() {
        let mut est = OnlineEstimator::new();
        est.observe(TaskId(0), CoreClass::Little, 30.0, -5.0);
        est.observe(TaskId(0), CoreClass::Little, 0.0, 5.0e6);
        assert!(est.demand(TaskId(0), CoreClass::Little).is_none());
    }

    #[test]
    fn removal_forgets_the_task() {
        let mut est = OnlineEstimator::new();
        est.observe(TaskId(0), CoreClass::Little, 30.0, 10.0e6);
        est.remove_task(TaskId(0));
        assert!(est.demand(TaskId(0), CoreClass::Little).is_none());
    }

    #[test]
    fn ewma_tracks_phase_changes() {
        let mut est = OnlineEstimator::new();
        for _ in 0..50 {
            est.observe(TaskId(0), CoreClass::Little, 30.0, 10.0e6);
        }
        // Demand doubles (new phase); the estimate follows within ~20 obs.
        for _ in 0..20 {
            est.observe(TaskId(0), CoreClass::Little, 30.0, 20.0e6);
        }
        let d = est.demand(TaskId(0), CoreClass::Little).expect("observed");
        assert!(d.value() > 580.0, "estimate lags the phase change: {d}");
    }
}
