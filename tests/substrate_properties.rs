//! Property-based tests on the substrate invariants: allocation, heartbeat
//! accounting, V-F tables, PELT, the LBT estimator, exact snapshot
//! capture, and the platform step against a naive per-core oracle.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use ppm::core::lbt::{constrained_core_scan, RemoteCluster, TaskSnapshot};
use ppm::platform::chip::{synthetic_chip, Chip};
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::{CoreClass, CoreId};
use ppm::platform::thermal::{Celsius, ThermalModel};
use ppm::platform::units::{MegaHertz, Money, Price, ProcessingUnits, SimDuration, SimTime, Watts};
use ppm::platform::vf::linear_table;
use ppm::sched::runqueue::{fair_allocate, market_allocate, Claimant};
use ppm::sched::{AllocationPolicy, Nice, NullManager, PeltTracker, Simulation, SystemSnapshot};
use ppm::workload::arrivals::ArrivalKind;
use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm::workload::perclass::PerClass;
use ppm::workload::request::{OpenLoopSnap, OpenLoopSpec};
use ppm::workload::task::{Priority, Task, TaskId};

fn claimants() -> impl Strategy<Value = Vec<Claimant>> {
    proptest::collection::vec(
        (1u32..100_000, 0.0f64..1500.0, 1.0f64..2000.0).prop_map(|(w, s, c)| Claimant {
            task: TaskId(0),
            weight: w,
            share: ProcessingUnits(s),
            cap: ProcessingUnits(c),
        }),
        1..12,
    )
    .prop_map(|mut v| {
        for (i, c) in v.iter_mut().enumerate() {
            c.task = TaskId(i);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fair allocation never over-commits the supply and never exceeds a
    /// claimant's cap.
    #[test]
    fn fair_allocation_is_feasible(claims in claimants(), supply in 0.0f64..2000.0) {
        let grants = fair_allocate(ProcessingUnits(supply), &claims);
        let total: f64 = grants.iter().map(|g| g.value()).sum();
        prop_assert!(total <= supply + 1e-6, "over-committed: {total} > {supply}");
        for (g, c) in grants.iter().zip(&claims) {
            prop_assert!(g.value() <= c.cap.value() + 1e-9);
            prop_assert!(g.value() >= 0.0);
        }
    }

    /// Fair allocation is work-conserving: if any claimant still has cap
    /// headroom, the supply is fully consumed.
    #[test]
    fn fair_allocation_is_work_conserving(claims in claimants(), supply in 1.0f64..2000.0) {
        let grants = fair_allocate(ProcessingUnits(supply), &claims);
        let total: f64 = grants.iter().map(|g| g.value()).sum();
        let cap_total: f64 = claims.iter().map(|c| c.cap.value()).sum();
        let expected = supply.min(cap_total);
        prop_assert!((total - expected).abs() < 1e-6,
            "left supply on the table: {total} vs {expected}");
    }

    /// Market allocation scales proportionally under over-subscription.
    #[test]
    fn market_allocation_respects_shares(claims in claimants(), supply in 1.0f64..2000.0) {
        let grants = market_allocate(ProcessingUnits(supply), &claims);
        let share_total: f64 = claims.iter().map(|c| c.share.value()).sum();
        for (g, c) in grants.iter().zip(&claims) {
            prop_assert!(g.value() <= c.cap.value() + 1e-9);
            let entitled = if share_total > supply && share_total > 0.0 {
                c.share.value() * supply / share_total
            } else {
                c.share.value()
            };
            prop_assert!(g.value() <= entitled + 1e-6);
        }
    }

    /// Heartbeat accounting conserves work: executing C cycles in a steady
    /// phase yields exactly C / cycles-per-beat heartbeats.
    #[test]
    fn heartbeats_conserve_cycles(ms in 1u64..200, supply in 50.0f64..1200.0) {
        let spec = BenchmarkSpec::of(Benchmark::Blackscholes, Input::Native).unwrap();
        let cpb = spec.cycles_per_heartbeat(CoreClass::Little);
        let mut task = Task::new(TaskId(0), spec, Priority(1));
        let cycles = ProcessingUnits(supply).cycles_over(SimDuration::from_millis(ms));
        let beats = task.execute(cycles, CoreClass::Little, SimTime::from_millis(ms));
        prop_assert!((beats - cycles.value() / cpb).abs() < 1e-6);
        prop_assert!((task.total_cycles().value() - cycles.value()).abs() < 1e-9);
    }

    /// Work is class-consistent: the same cycles produce `speedup`× more
    /// beats on a big core.
    #[test]
    fn speedup_is_consistent(supply in 50.0f64..1000.0) {
        let spec = BenchmarkSpec::of(Benchmark::Swaptions, Input::Native).unwrap();
        let speedup = spec.speedup();
        let mut little = Task::new(TaskId(0), spec.clone(), Priority(1));
        let mut big = Task::new(TaskId(1), spec, Priority(1));
        let cycles = ProcessingUnits(supply).cycles_over(SimDuration::from_millis(50));
        let b_l = little.execute(cycles, CoreClass::Little, SimTime::from_millis(50));
        let b_b = big.execute(cycles, CoreClass::Big, SimTime::from_millis(50));
        prop_assert!((b_b / b_l - speedup).abs() / speedup < 0.05);
    }

    /// `level_for_demand` always returns a level whose supply covers the
    /// demand when one exists, and the smallest such level.
    #[test]
    fn vf_level_selection_rounds_up(lo in 100u32..500, span in 100u32..2000, steps in 2usize..10,
                                    demand in 0.0f64..3000.0) {
        let table = linear_table(MegaHertz(lo), MegaHertz(lo + span), steps);
        let level = table.level_for_demand(ProcessingUnits(demand));
        let supply = table.point(level).supply();
        let max = table.max().supply();
        if demand <= max.value() {
            prop_assert!(supply.value() >= demand);
            if level.0 > 0 {
                let below = table.point(ppm::platform::vf::VfLevel(level.0 - 1)).supply();
                prop_assert!(below.value() < demand, "not minimal");
            }
        } else {
            prop_assert_eq!(supply, max);
        }
    }

    /// PELT stays in [0, 1] and converges to a constant input.
    #[test]
    fn pelt_is_bounded_and_convergent(fraction in 0.0f64..1.0, steps in 1usize..3000) {
        let mut p = PeltTracker::new();
        for _ in 0..steps {
            p.update(SimDuration::from_millis(1), fraction);
            prop_assert!((0.0..=1.0).contains(&p.load()));
        }
        if steps > 1000 {
            prop_assert!((p.load() - fraction).abs() < 0.01);
        }
    }

    /// The constrained-core scan never invents a better-than-perfect ratio
    /// and always returns a task/cluster that exists.
    #[test]
    fn scan_results_are_well_formed(
        n_tasks in 1usize..16,
        n_clusters in 1usize..8,
        seed in 0u64..1000,
    ) {
        // Deterministic pseudo-random values from the seed (xorshift).
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64
        };
        let tasks: Vec<TaskSnapshot> = (0..n_tasks)
            .map(|i| TaskSnapshot {
                id: TaskId(i),
                priority: 1 + (next() as u32 % 8),
                demand: PerClass::new(
                    ProcessingUnits(10.0 + next() % 50.0),
                    ProcessingUnits(5.0 + next() % 30.0),
                ),
                supply: ProcessingUnits(10.0 + next() % 50.0),
                bid: Money(0.1 + next() / 1000.0),
            })
            .collect();
        let remotes: Vec<RemoteCluster> = (0..n_clusters)
            .map(|i| RemoteCluster {
                class: if i % 2 == 0 { CoreClass::Little } else { CoreClass::Big },
                price: Price(0.001 + next() / 1e5),
                level: 2,
                ladder: vec![
                    ProcessingUnits(300.0),
                    ProcessingUnits(500.0),
                    ProcessingUnits(700.0),
                    ProcessingUnits(900.0),
                ],
                cores: (0..4).map(|_| (ProcessingUnits(next() % 600.0), 4u32)).collect(),
            })
            .collect();
        let r = constrained_core_scan(&tasks, &remotes, 0.2).expect("non-empty inputs");
        prop_assert!(r.task.0 < n_tasks);
        prop_assert!(r.cluster < n_clusters);
        prop_assert!(r.core < 4);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.ratio));
        prop_assert!(r.spend.value() >= 0.0);
    }

    /// One snapshot recaptured after every step of a random sequence of
    /// share writes, gating, task churn, stepped quanta, and in-place
    /// perturbations of its own copies (as observation faults make) stays
    /// bit-identical to a fresh capture, and its counters advance exactly
    /// when a section differed from the snapshot's pre-capture copy.
    #[test]
    fn reused_capture_equals_fresh_capture(
        thermal in proptest::bool::ANY,
        ops in proptest::collection::vec(
            (0u8..8, 0usize..64, -50.0f64..50.0, 0usize..15),
            1..48,
        ),
    ) {
        let mut sys = ppm::sched::System::new(Chip::tc2(), AllocationPolicy::Market);
        if thermal {
            sys.attach_thermal(ThermalModel::mobile(2));
        }
        let mut sim = Simulation::new(sys, NullManager);
        let mut snap = SystemSnapshot::new();
        snap.capture(sim.system());
        for (op, arg, val, field) in ops {
            let odd = match arg % 3 {
                0 => -0.0,
                1 => f64::NAN,
                _ => val,
            };
            let sys = sim.system_mut();
            let active: Vec<_> = sys.task_iter().collect();
            match op {
                0 if !active.is_empty() => {
                    sys.set_share(active[arg % active.len()], ProcessingUnits(val.abs() * 20.0));
                }
                1 => sys.power_off(ClusterId(arg % 2)),
                2 => sys.power_on(ClusterId(arg % 2)),
                3 => {
                    let id = TaskId(sys.task_count());
                    let mut spec = BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large)
                        .expect("variant");
                    if arg % 2 == 1 {
                        let slo = SimDuration::from_millis(100);
                        let arrivals = ArrivalKind::Poisson { rate: 25.0 };
                        spec = spec.with_open_loop(OpenLoopSpec::new(arrivals, 7, 4.0, 1.5, slo));
                    }
                    sys.add_task(Task::new(id, spec, Priority(1)), CoreId(arg % 5));
                }
                4 if !active.is_empty() => sys.remove_task(active[arg % active.len()]),
                5 => sim.run_for(SimDuration::from_millis(1 + arg as u64 % 4)),
                6 => {
                    snap.chip_power = Watts(odd);
                    snap.clusters[arg % 2].power = Watts(val);
                    snap.hottest = if arg % 2 == 0 { Some(Celsius(odd)) } else { None };
                }
                7 if !snap.tasks.is_empty() => {
                    // A caller scribbling on the task copies is undone too.
                    let n = snap.tasks.len();
                    let t = &mut snap.tasks[arg % n];
                    match field {
                        0 => t.id = TaskId(t.id.0 + 100),
                        1 => t.core = CoreId(7),
                        2 => t.priority += 1,
                        3 => t.share = ProcessingUnits(odd),
                        4 => t.granted = ProcessingUnits(odd),
                        5 => t.pelt_load = odd,
                        6 => t.stalled = !t.stalled,
                        7 => t.heart_rate = odd,
                        8 => t.target_rate = odd,
                        9 => t.demand = ProcessingUnits(odd),
                        10 => t.demand_little = ProcessingUnits(odd),
                        11 => t.demand_big = ProcessingUnits(odd),
                        12 => t.cost_per_beat = t.cost_per_beat.map_or(Some(odd), |_| None),
                        13 => t.open_loop = None,
                        _ => {
                            let o = t.open_loop.get_or_insert(OpenLoopSnap {
                                queue_depth: 0,
                                p99_ms: 0.0,
                                slo_ms: 0.0,
                                shed: 0,
                            });
                            o.queue_depth += 1;
                            o.p99_ms = odd;
                            o.slo_ms = -odd;
                            o.shed += 1;
                        }
                    }
                }
                _ => {}
            }

            let dynamic = |s: &SystemSnapshot| {
                format!("{:?} {:?} {:?} {:?}", s.chip_power, s.hottest, s.cores, s.clusters)
            };
            let (rebuilds, refreshes) = (snap.task_rebuilds(), snap.dynamic_refreshes());
            let (before_tasks, before) = (format!("{:?}", snap.tasks), dynamic(&snap));
            snap.capture(sim.system());
            let mut fresh = SystemSnapshot::new();
            fresh.capture(sim.system());

            prop_assert_eq!(snap.now, fresh.now);
            prop_assert_eq!(dynamic(&snap), dynamic(&fresh));
            let tasks = format!("{:?}", fresh.tasks);
            prop_assert_eq!(format!("{:?}", snap.tasks), tasks.clone());
            prop_assert_eq!(snap.digest(), fresh.digest());
            prop_assert_eq!(
                snap.task_rebuilds() - rebuilds,
                u64::from(tasks != before_tasks)
            );
            prop_assert_eq!(
                snap.dynamic_refreshes() - refreshes,
                u64::from(before != dynamic(&fresh))
            );
        }
    }
}

/// Benchmark variants the step oracle draws its tasks from.
const STEP_ORACLE_VARIANTS: [(Benchmark, Input); 6] = [
    (Benchmark::Blackscholes, Input::Large),
    (Benchmark::Swaptions, Input::Large),
    (Benchmark::Texture, Input::Vga),
    (Benchmark::X264, Input::Native),
    (Benchmark::Bodytrack, Input::Native),
    (Benchmark::Tracking, Input::Vga),
];

/// The grant each runnable task should receive in the coming quantum,
/// recomputed core by core from the public surface with the policy's
/// allocator. Valid while nothing changes a cluster's V-F state before the
/// step (the oracle's manager plans nothing), so each core's supply holds.
fn predict_grants(sys: &ppm::sched::System) -> Vec<(TaskId, ProcessingUnits)> {
    let chip = sys.chip();
    let mut predicted = Vec::new();
    for desc in chip.cores() {
        let core = desc.id();
        let class = chip.cluster_of(core).class();
        let supply = chip.core_supply(core);
        let ids: Vec<TaskId> = sys
            .tasks_on(core)
            .into_iter()
            .filter(|&id| !sys.is_stalled(id))
            .collect();
        let claims: Vec<Claimant> = ids
            .iter()
            .map(|&id| Claimant {
                task: id,
                weight: sys.nice_of(id).weight(),
                share: sys.share_of(id),
                cap: sys.task(id).consumption_cap(class, supply),
            })
            .collect();
        let grants = match sys.policy() {
            AllocationPolicy::Market => market_allocate(supply, &claims),
            AllocationPolicy::FairWeights => fair_allocate(supply, &claims),
        };
        predicted.extend(ids.into_iter().zip(grants));
    }
    predicted
}

/// The step's results recomputed naively from the public surface: every
/// runnable task holds exactly its predicted grant, each core's utilization
/// is Σ granted over its tasks that are not stalled, in ascending id, over
/// the core's supply, clamped (a zero supply reads +0.0), and no stalled or
/// removed task holds a grant.
fn check_step_against_oracle(
    sys: &ppm::sched::System,
    predicted: &[(TaskId, ProcessingUnits)],
) -> Result<(), TestCaseError> {
    for &(id, grant) in predicted {
        prop_assert_eq!(
            sys.granted(id).value().to_bits(),
            grant.value().to_bits(),
            "task {} granted {}, oracle {}",
            id.0,
            sys.granted(id),
            grant
        );
    }
    let chip = sys.chip();
    for desc in chip.cores() {
        let core = desc.id();
        let mut used = ProcessingUnits::ZERO;
        for id in sys.tasks_on(core) {
            if !sys.is_stalled(id) {
                used += sys.granted(id);
            }
        }
        let supply = chip.core_supply(core);
        let expected = if supply.is_positive() {
            (used / supply).clamp(0.0, 1.0)
        } else {
            0.0
        };
        prop_assert_eq!(
            sys.core_utilization(core).to_bits(),
            expected.to_bits(),
            "core {}: step says {}, oracle {}",
            core.0,
            sys.core_utilization(core),
            expected
        );
    }
    for i in 0..sys.task_count() {
        let id = TaskId(i);
        if !sys.is_active(id) || sys.is_stalled(id) {
            prop_assert_eq!(
                sys.granted(id).value().to_bits(),
                ProcessingUnits::ZERO.value().to_bits(),
                "task {} is stalled or removed but holds {}",
                i,
                sys.granted(id)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The platform step matches a naive per-core oracle (grants and
    /// utilizations, bit for bit) after every quantum on synthetic chips whose tasks crowd a few cores (most cores
    /// empty), under both allocation policies, while shares, nice values,
    /// placements (with their migration stalls), task exits and cluster
    /// gating change between quanta.
    #[test]
    fn step_matches_naive_per_core_oracle(
        v in 1usize..6,
        c in 1usize..8,
        fair in proptest::bool::ANY,
        hot in proptest::collection::vec(0usize..64, 1..4),
        tasks in proptest::collection::vec((0usize..6, 0.0f64..600.0), 1..12),
        quanta in proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0.0f64..600.0), 0..4),
            1..24,
        ),
    ) {
        let chip = synthetic_chip(v, c);
        let n_cores = chip.cores().len();
        let hot: Vec<CoreId> = hot.iter().map(|&h| CoreId(h % n_cores)).collect();
        let policy = if fair {
            AllocationPolicy::FairWeights
        } else {
            AllocationPolicy::Market
        };
        let mut sys = ppm::sched::System::new(chip, policy);
        for (i, &(variant, share)) in tasks.iter().enumerate() {
            let (b, input) = STEP_ORACLE_VARIANTS[variant];
            let spec = BenchmarkSpec::of(b, input).expect("variant");
            sys.add_task(Task::new(TaskId(i), spec, Priority(1)), hot[i % hot.len()]);
            sys.set_share(TaskId(i), ProcessingUnits(share));
        }
        let mut sim = Simulation::new(sys, NullManager);
        for ops in quanta {
            let sys = sim.system_mut();
            for (op, a, b, val) in ops {
                let active: Vec<TaskId> = sys.task_iter().collect();
                let cluster = ClusterId(a % v);
                match op {
                    0 if !active.is_empty() => {
                        sys.set_share(active[a % active.len()], ProcessingUnits(val));
                    }
                    1 if !active.is_empty() => {
                        let nice = Nice::new((b % 40) as i8 - 20);
                        sys.set_nice(active[a % active.len()], nice);
                    }
                    2 if !active.is_empty() => {
                        // Half the moves stay among the crowded cores.
                        let to = if b % 2 == 0 {
                            hot[b / 2 % hot.len()]
                        } else {
                            CoreId(b % n_cores)
                        };
                        sys.migrate(active[a % active.len()], to);
                    }
                    3 if !active.is_empty() => sys.remove_task(active[a % active.len()]),
                    4 => sys.power_off(cluster),
                    5 => sys.power_on(cluster),
                    _ => {}
                }
            }
            let predicted = predict_grants(sim.system());
            let quantum = sim.quantum();
            sim.run_for(quantum);
            check_step_against_oracle(sim.system(), &predicted)?;
        }
    }
}
