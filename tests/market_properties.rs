//! Property-based tests on the market's §3.2 invariants, driven by random
//! task populations, demand trajectories, and power curves.

use proptest::prelude::*;

use ppm::core::config::PpmConfig;
use ppm::core::market::{ClusterObs, CoreObs, Market, MarketObs, TaskObs, VfStep};
use ppm::core::PowerState;
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::CoreId;
use ppm::platform::units::{Money, ProcessingUnits, Watts};
use ppm::workload::task::TaskId;

/// A miniature chip: `clusters` clusters × 2 cores, tasks spread
/// round-robin, supplies from a fixed ladder per cluster.
#[derive(Debug, Clone)]
struct World {
    clusters: usize,
    levels: Vec<usize>,
    ladder: Vec<f64>,
    priorities: Vec<u32>,
    demands: Vec<f64>,
}

impl World {
    fn obs(&self) -> MarketObs {
        let cores: Vec<CoreObs> = (0..self.clusters * 2)
            .map(|i| CoreObs {
                id: CoreId(i),
                cluster: ClusterId(i / 2),
            })
            .collect();
        let tasks: Vec<TaskObs> = self
            .demands
            .iter()
            .enumerate()
            .map(|(i, &d)| TaskObs {
                id: TaskId(i),
                core: CoreId(i % (self.clusters * 2)),
                priority: self.priorities[i],
                demand: ProcessingUnits(d),
            })
            .collect();
        let power_per_cluster = 0.8;
        let clusters: Vec<ClusterObs> = (0..self.clusters)
            .map(|c| {
                let l = self.levels[c];
                ClusterObs {
                    id: ClusterId(c),
                    supply: ProcessingUnits(self.ladder[l]),
                    supply_up: self.ladder.get(l + 1).map(|&s| ProcessingUnits(s)),
                    supply_down: (l > 0).then(|| ProcessingUnits(self.ladder[l - 1])),
                    power: Watts(power_per_cluster),
                }
            })
            .collect();
        MarketObs {
            chip_power: Watts(power_per_cluster * self.clusters as f64),
            tasks,
            cores,
            clusters,
        }
    }

    fn apply(&mut self, decision: &ppm::core::MarketDecision) {
        for &(cl, step) in &decision.dvfs {
            match step {
                VfStep::Up => {
                    self.levels[cl.0] = (self.levels[cl.0] + 1).min(self.ladder.len() - 1)
                }
                VfStep::Down => self.levels[cl.0] = self.levels[cl.0].saturating_sub(1),
            }
        }
    }
}

/// One step of the incremental-equivalence drive: hold everything stable,
/// perturb a demand or the chip power (fault-shaped observation noise),
/// or churn the population (remove an agent / admit a new task).
#[derive(Debug, Clone)]
enum Churn {
    Stable,
    Demand(usize, f64),
    Power(f64),
    Remove(usize),
    Add(u32, f64),
}

fn churn_strategy() -> impl Strategy<Value = Churn> {
    // Weighted pick via a selector (the vendored proptest has no
    // `prop_oneof`): stable rounds dominate so replays actually happen.
    (0usize..9, 0usize..64, 20.0f64..900.0, 1u32..=8, 0.0f64..4.0).prop_map(|(sel, i, d, p, pw)| {
        match sel {
            0..=3 => Churn::Stable,
            4 | 5 => Churn::Demand(i, d),
            6 => Churn::Power(pw),
            7 => Churn::Remove(i),
            _ => Churn::Add(p, d),
        }
    })
}

fn world_strategy() -> impl Strategy<Value = World> {
    (1usize..=3, 2usize..=8).prop_flat_map(|(clusters, tasks)| {
        (
            proptest::collection::vec(1u32..=8, tasks),
            proptest::collection::vec(20.0f64..900.0, tasks),
        )
            .prop_map(move |(priorities, demands)| World {
                clusters,
                levels: vec![0; clusters],
                ladder: vec![300.0, 400.0, 500.0, 700.0, 1000.0],
                priorities,
                demands,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Price discovery sells exactly the core supply: on every core with at
    /// least one bidder, Σ s_t equals S_c.
    #[test]
    fn purchases_exhaust_each_core(world in world_strategy(), rounds in 1usize..30) {
        let mut w = world;
        let mut market = Market::new(PpmConfig::tc2());
        for _ in 0..rounds {
            let obs = w.obs();
            let d = market.round(&obs);
            // Group shares per core and compare against that core's supply.
            for core in 0..w.clusters * 2 {
                let total: f64 = d
                    .shares
                    .iter()
                    .filter(|(t, _)| t.0 % (w.clusters * 2) == core)
                    .map(|(_, s)| s.value())
                    .sum();
                if total > 0.0 {
                    let supply = w.ladder[w.levels[core / 2]];
                    prop_assert!((total - supply).abs() < 1e-6,
                        "core {core}: sold {total} of {supply}");
                }
            }
            w.apply(&d);
        }
    }

    /// Bids stay within [b_min, allowance + savings]; savings never go
    /// negative and never exceed the configured cap.
    #[test]
    fn money_invariants_hold(world in world_strategy(), rounds in 1usize..40) {
        let mut w = world;
        let config = PpmConfig::tc2();
        let cap = config.savings_cap_factor;
        let min_bid = config.min_bid;
        let mut market = Market::new(config);
        for _ in 0..rounds {
            let d = market.round(&w.obs());
            for t in &d.tasks {
                prop_assert!(t.bid >= min_bid * (1.0 - 1e-9), "bid {} below floor", t.bid);
                prop_assert!(t.savings >= Money::ZERO);
                prop_assert!(
                    t.savings.value() <= cap * t.allowance.value() + 1e-6,
                    "savings {} exceed cap at allowance {}", t.savings, t.allowance
                );
            }
            w.apply(&d);
        }
    }

    /// The distributed allowances sum to the global allowance A (no money
    /// leaks in the hierarchy), as long as every cluster hosts tasks.
    #[test]
    fn allowance_distribution_conserves_money(world in world_strategy()) {
        let mut w = world;
        // Make sure every cluster has at least one task: round-robin already
        // guarantees it when tasks >= cores; otherwise shrink the chip.
        if w.demands.len() < w.clusters * 2 {
            w.clusters = 1;
            w.levels = vec![0];
        }
        let mut market = Market::new(PpmConfig::tc2());
        let d0 = market.round(&w.obs());
        let previous_allowance = market.allowance().expect("initialised");
        let _ = d0;
        let d = market.round(&w.obs());
        let distributed: Money = d.tasks.iter().map(|t| t.allowance).sum();
        prop_assert!(
            (distributed.value() - previous_allowance.value()).abs()
                <= previous_allowance.value() * 1e-6 + 1e-9,
            "distributed {} of {}", distributed, previous_allowance
        );
    }

    /// With constant demand the market reaches a fixed point: no V-F
    /// requests and stable prices in the tail (§3.2.4 stability).
    #[test]
    fn constant_demand_converges(world in world_strategy()) {
        let mut w = world;
        let mut market = Market::new(PpmConfig::tc2());
        let mut last_dvfs_round = 0;
        for round in 0..200usize {
            let d = market.round(&w.obs());
            if !d.dvfs.is_empty() {
                last_dvfs_round = round;
            }
            w.apply(&d);
        }
        prop_assert!(
            last_dvfs_round < 150,
            "market still switching V-F levels at round {last_dvfs_round}"
        );
    }

    /// The incremental engine (the default) is bit-identical to an
    /// always-full-recompute market under random interleavings of task
    /// churn, fault-perturbed observations, and stable rounds: every
    /// decision renders byte-equal (`Debug` distinguishes `-0.0`/`NaN`)
    /// and the money books (per-agent savings and bids) match bitwise
    /// after every round. A long stable tail makes sure the fast path
    /// actually engages inside the property, not just in unit tests.
    #[test]
    fn incremental_equals_full_recompute(
        world in world_strategy(),
        ops in proptest::collection::vec(churn_strategy(), 0..40),
    ) {
        let mut w = world;
        let mut inc = Market::new(PpmConfig::tc2());
        prop_assert!(inc.incremental(), "incremental mode must be the default");
        let mut full = Market::new(PpmConfig::tc2());
        full.set_incremental(false);
        let mut power_bias = 0.0f64;
        let stable_tail = std::iter::repeat_n(Churn::Stable, 60);
        for (step, op) in ops.into_iter().chain(stable_tail).enumerate() {
            match op {
                Churn::Stable => {}
                Churn::Demand(i, d) => {
                    let n = w.demands.len();
                    w.demands[i % n] = d;
                }
                Churn::Power(p) => power_bias = p,
                Churn::Remove(i) => {
                    let id = TaskId(i % w.demands.len());
                    inc.remove_task(id);
                    full.remove_task(id);
                }
                Churn::Add(p, d) => {
                    w.priorities.push(p);
                    w.demands.push(d);
                }
            }
            let mut obs = w.obs();
            obs.chip_power = Watts(obs.chip_power.value() + power_bias);
            let di = inc.round(&obs);
            let df = full.round(&obs);
            prop_assert_eq!(
                format!("{di:?}"), format!("{df:?}"),
                "step {}: incremental decision diverged", step
            );
            for i in 0..w.demands.len() {
                let id = TaskId(i);
                prop_assert_eq!(
                    inc.savings_of(id).value().to_bits(),
                    full.savings_of(id).value().to_bits(),
                    "step {}: savings of task {} diverged", step, i
                );
                prop_assert_eq!(
                    inc.bid_of(id).value().to_bits(),
                    full.bid_of(id).value().to_bits(),
                    "step {}: bid of task {} diverged", step, i
                );
            }
            w.apply(&di);
        }
    }

    /// The chip agent's state classification matches the configured bands.
    #[test]
    fn state_tracks_power_bands(power in 0.0f64..12.0) {
        let config = PpmConfig::tc2(); // Wth 7, Wtdp 8
        let state = PowerState::classify(Watts(power), &config);
        if power > 8.0 {
            prop_assert_eq!(state, PowerState::Emergency);
        } else if power >= 7.0 {
            prop_assert_eq!(state, PowerState::Threshold);
        } else {
            prop_assert_eq!(state, PowerState::Normal);
        }
    }
}
