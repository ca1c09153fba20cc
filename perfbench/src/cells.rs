//! The four workloads, built from the crates' public API, and their
//! untraced (timed) runs.
//!
//! A *cell* is one simulation run to a fixed simulated duration: one
//! (Table 6 set, scheme) pair of the Figure 6 grid, one synthetic chip, or
//! the whole fleet. Every cell is summarised into the exact bits of the
//! figure metrics, and the summary digest is the cell's output check.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ppm_baselines::hl::{HlConfig, HlManager};
use ppm_baselines::hpm::{HpmConfig, HpmManager};
use ppm_core::config::PpmConfig;
use ppm_core::manager::{place_on_little, PpmManager};
use ppm_fleet::scenario::{chip_peak, graded_chip};
use ppm_fleet::{ChipSpec, Fleet};
use ppm_obs::{SnapshotHub, Telemetry, DEFAULT_AGG_WINDOW_US};
use ppm_platform::chip::{synthetic_chip, Chip};
use ppm_platform::core::CoreId;
use ppm_platform::units::{SimDuration, Watts};
use ppm_sched::executor::{AllocationPolicy, PowerManager, Simulation, System};
use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm_workload::sets::{table6_sets, WorkloadSet};
use ppm_workload::task::{Priority, Task, TaskId};
use ppm_workload::OpenLoopFamily;

use crate::probe::Probe;
use crate::stats::{median, Fnv, SplitMix};

/// The benchmark's default seed: the pinned seed of the `ol2` family, so
/// `v64_ops` at the default seed is the repository's V64/C8/T16 cell.
pub const DEFAULT_SEED: u64 = OpenLoopFamily::PINNED_SEED;

/// Simulated length of one Figure 6 cell. The figure itself runs 120 s;
/// 30 s (25 s measured after the 5 s warm-up) keeps one pass of all 27
/// cells near two host seconds, so a run holds many passes.
pub const FIG6_CELL: SimDuration = SimDuration(30_000_000);
/// Warm-up excluded from the Figure 6 metrics (as in the figure).
pub const FIG6_WARMUP: SimDuration = SimDuration(5_000_000);
/// The Figure 6 TDP.
pub const FIG6_TDP: Watts = Watts(4.0);

/// `v64_ops`: the repository's V64/C8/T16 acceptance length and warm-up.
pub const V64_CELL: SimDuration = SimDuration(10_000_000);
const V64_WARMUP: SimDuration = SimDuration(2_000_000);
/// `ppm-sim --serve`'s telemetry ring when only serving/alerting is on.
const OPS_RING_ROWS: usize = 256;

/// `v16_dense`: simulated length and warm-up.
pub const V16_CELL: SimDuration = SimDuration(1_000_000);
const V16_WARMUP: SimDuration = SimDuration(200_000);
const V16_TASKS_PER_CORE: usize = 8;
/// Dense chips per pass, each with its own task draw from the seed: one
/// chip's host cost per quantum moves by about ±8 % with its draw, and the
/// mean of four halves that.
const V16_PARTS: u64 = 4;

/// `fleet64`: width, per-chip topology, tasks, cap and simulated length.
pub const FLEET_CHIPS: usize = 64;
const FLEET_TASKS: usize = 6;
const FLEET_CAP_PER_CHIP: Watts = Watts(3.0);
pub const FLEET_CELL: SimDuration = SimDuration(5_000_000);
/// Probe slices of the fleet's stepping loop: 500 ms each, whole trading
/// epochs, so slicing changes nothing the fleet does.
const FLEET_SLICES: u64 = 10;

/// The PARSEC variants the dense chip draws from.
const PARSEC: [(Benchmark, Input); 8] = [
    (Benchmark::Swaptions, Input::Large),
    (Benchmark::Swaptions, Input::Native),
    (Benchmark::Bodytrack, Input::Large),
    (Benchmark::Bodytrack, Input::Native),
    (Benchmark::X264, Input::Large),
    (Benchmark::X264, Input::Native),
    (Benchmark::Blackscholes, Input::Large),
    (Benchmark::Blackscholes, Input::Native),
];

/// The mix `synthetic_fleet` cycles through; `fleet64` draws from it.
const FLEET_MIX: [(Benchmark, Input); 3] = [
    (Benchmark::Blackscholes, Input::Large),
    (Benchmark::Swaptions, Input::Large),
    (Benchmark::Bodytrack, Input::Large),
];

/// The Table 6 sets, generated once: they are the benchmark's input, not
/// part of a cell's set-up.
fn fig6_sets() -> &'static [WorkloadSet] {
    static SETS: OnceLock<Vec<WorkloadSet>> = OnceLock::new();
    SETS.get_or_init(table6_sets)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tc2Fig6,
    V64Ops,
    V16Dense,
    Fleet64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Tc2Fig6,
        Workload::V64Ops,
        Workload::V16Dense,
        Workload::Fleet64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tc2Fig6 => "tc2_fig6",
            Workload::V64Ops => "v64_ops",
            Workload::V16Dense => "v16_dense",
            Workload::Fleet64 => "fleet64",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed changes the generated inputs.
    pub fn seeded(self) -> bool {
        self != Workload::Tc2Fig6
    }

    /// The cells of one pass, in run order.
    pub fn cells(self) -> Vec<CellId> {
        match self {
            Workload::Tc2Fig6 => {
                let mut cells = Vec::new();
                for set in 0..fig6_sets().len() {
                    for scheme in Scheme::ALL {
                        cells.push(CellId::Fig6 { set, scheme });
                    }
                }
                cells
            }
            Workload::V64Ops => vec![CellId::V64],
            Workload::V16Dense => (0..V16_PARTS).map(|part| CellId::V16 { part }).collect(),
            Workload::Fleet64 => vec![CellId::Fleet],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Ppm,
    Hpm,
    Hl,
}

impl Scheme {
    pub const ALL: [Scheme; 3] = [Scheme::Ppm, Scheme::Hpm, Scheme::Hl];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Ppm => "PPM",
            Scheme::Hpm => "HPM",
            Scheme::Hl => "HL",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellId {
    /// Table 6 set index × scheme.
    Fig6 {
        set: usize,
        scheme: Scheme,
    },
    V64,
    /// One of the `V16_PARTS` dense chips of a pass.
    V16 {
        part: u64,
    },
    Fleet,
}

impl CellId {
    pub fn name(self) -> String {
        match self {
            CellId::Fig6 { set, scheme } => {
                format!("{}/{}", fig6_sets()[set].name(), scheme.name())
            }
            CellId::V64 => "v64_ops".into(),
            CellId::V16 { part } => format!("v16_dense/{part}"),
            CellId::Fleet => "fleet64".into(),
        }
    }
}

/// The exact figure metrics of one cell (the fields of the repository's
/// `RunSummary` that a run determines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub any_miss: f64,
    pub avg_power_w: f64,
    pub above_tdp: f64,
    pub migrations_intra: u64,
    pub migrations_inter: u64,
    /// Worst open-loop p99 / SLO; `None` for closed-loop cells.
    pub p99_over_slo: Option<f64>,
    /// Requests shed; `None` for closed-loop cells.
    pub shed: Option<u64>,
}

impl Summary {
    pub fn of(sys: &System) -> Summary {
        let m = sys.metrics();
        let above_tdp = if m.total_time().is_zero() {
            0.0
        } else {
            m.time_above_tdp.as_secs_f64() / m.total_time().as_secs_f64()
        };
        let snaps: Vec<_> = sys
            .task_iter()
            .filter_map(|id| sys.task(id).open_loop_snap())
            .collect();
        let (p99_over_slo, shed) = if snaps.is_empty() {
            (None, None)
        } else {
            let worst = snaps
                .iter()
                .map(|o| {
                    if o.slo_ms > 0.0 {
                        o.p99_ms / o.slo_ms
                    } else {
                        0.0
                    }
                })
                .fold(0.0, f64::max);
            (Some(worst), Some(snaps.iter().map(|o| o.shed).sum()))
        };
        Summary {
            any_miss: m.any_miss_fraction(),
            avg_power_w: m.average_power().value(),
            above_tdp,
            migrations_intra: m.migrations_intra,
            migrations_inter: m.migrations_inter,
            p99_over_slo,
            shed,
        }
    }

    /// Digest of the exact bits of every field.
    pub fn digest(&self, h: Fnv) -> Fnv {
        h.word(self.any_miss.to_bits())
            .word(self.avg_power_w.to_bits())
            .word(self.above_tdp.to_bits())
            .word(self.migrations_intra)
            .word(self.migrations_inter)
            .word(self.p99_over_slo.map_or(u64::MAX, f64::to_bits))
            .word(self.shed.unwrap_or(u64::MAX))
    }
}

/// A cell's simulated outcome: one summary per chip (one chip except in
/// the fleet) and the auditor findings.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub chips: Vec<Summary>,
    pub violations: usize,
}

impl Outcome {
    pub fn digest(&self) -> u64 {
        self.chips
            .iter()
            .fold(Fnv::new(), |h, s| s.digest(h))
            .finish()
    }
}

/// One untraced cell run.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub outcome: Outcome,
    /// Chip-quanta simulated.
    pub quanta: u64,
    /// Build through manager `init`, up to the first quantum: the median of
    /// the cell run's set-ups.
    pub setup: Duration,
    /// The stepping loop, without the probe ticks between its slices.
    pub step: Duration,
    /// Total time of the probe ticks taken before set-up and between slices.
    pub probe: Duration,
    /// Probe ticks taken.
    pub ticks: u64,
}

/// What a cell's simulation carries besides the manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attach {
    pub tape: bool,
    /// Drop the workload's own telemetry (the `obs` overhead baseline).
    pub no_telemetry: bool,
}

/// Managers the cells run, for code generic over the manager type.
pub enum Manager {
    Ppm(Box<PpmManager>),
    Hpm(HpmManager),
    Hl(HlManager),
}

/// Build a single-chip cell (everything but the fleet).
pub fn build(cell: CellId, seed: u64) -> (System, Manager, CellCfg) {
    match cell {
        CellId::Fig6 { set, scheme } => {
            let set = &fig6_sets()[set];
            // Exactly the comparative-study setup: all tasks on the LITTLE
            // cluster at equal priority, TDP accounting on.
            let policy = match scheme {
                Scheme::Hl => AllocationPolicy::FairWeights,
                _ => AllocationPolicy::Market,
            };
            let mut sys = System::new(Chip::tc2(), policy);
            for task in set.spawn(0, Priority::NORMAL) {
                sys.add_task(task, CoreId(0));
            }
            place_on_little(&mut sys);
            sys.set_tdp_accounting(FIG6_TDP);
            let manager = match scheme {
                Scheme::Ppm => {
                    Manager::Ppm(Box::new(PpmManager::new(PpmConfig::tc2_with_tdp(FIG6_TDP))))
                }
                Scheme::Hpm => Manager::Hpm(HpmManager::new(HpmConfig::new().with_tdp(FIG6_TDP))),
                Scheme::Hl => Manager::Hl(HlManager::new(HlConfig::new().with_tdp(FIG6_TDP))),
            };
            (
                sys,
                manager,
                CellCfg {
                    warmup: FIG6_WARMUP,
                    slices: 1,
                    duration: FIG6_CELL,
                    audit: false,
                    ops_plane: false,
                },
            )
        }
        CellId::V64 => {
            let family = OpenLoopFamily {
                tasks: 16,
                ..ppm_workload::bursty_template()
            };
            let set = ppm_workload::openloop_family("ol2-v64", family, seed);
            let mut sys = System::new(synthetic_chip(64, 8), AllocationPolicy::Market);
            for task in set.spawn(0, Priority::NORMAL) {
                sys.add_task(task, CoreId(0));
            }
            let tdp = half_peak(&mut sys);
            (
                sys,
                Manager::Ppm(Box::new(PpmManager::new(PpmConfig::tc2_with_tdp(tdp)))),
                CellCfg {
                    warmup: V64_WARMUP,
                    slices: 20,
                    duration: V64_CELL,
                    audit: true,
                    ops_plane: true,
                },
            )
        }
        CellId::V16 { part } => {
            let chip = synthetic_chip(16, 8);
            let tasks = chip.cores().len() * V16_TASKS_PER_CORE;
            let mut sys = System::new(chip, AllocationPolicy::Market);
            let mut rng = SplitMix::new(seed.wrapping_mul(V16_PARTS).wrapping_add(part));
            for k in 0..tasks {
                sys.add_task(drawn_task(&mut rng, k, &PARSEC), CoreId(0));
            }
            let tdp = half_peak(&mut sys);
            (
                sys,
                Manager::Ppm(Box::new(PpmManager::new(PpmConfig::tc2_with_tdp(tdp)))),
                CellCfg {
                    warmup: V16_WARMUP,
                    slices: 20,
                    duration: V16_CELL,
                    audit: false,
                    ops_plane: false,
                },
            )
        }
        CellId::Fleet => unreachable!("the fleet is built by build_fleet"),
    }
}

/// Place on LITTLE, then cap at half the chip's physical peak.
fn half_peak(sys: &mut System) -> Watts {
    place_on_little(sys);
    let tdp = chip_peak(sys.chip()) * 0.5;
    sys.set_tdp_accounting(tdp);
    tdp
}

/// Task `k` with its variant drawn from `pool` and priority from 1–3.
fn drawn_task(rng: &mut SplitMix, k: usize, pool: &[(Benchmark, Input)]) -> Task {
    let (b, input) = pool[rng.below(pool.len())];
    let priority = Priority(1 + rng.below(3) as u32);
    let spec = BenchmarkSpec::of(b, input).expect("pool holds only existing variants");
    Task::new(TaskId(k), spec, priority)
}

/// Wrap a built cell in its simulation, with its attachments, and run the
/// manager's `init` (a zero-length `run_for`), so setup ends at the first
/// quantum.
pub fn simulation<M: PowerManager>(
    sys: System,
    manager: M,
    cfg: &CellCfg,
    attach: Attach,
) -> Simulation<M> {
    let mut sim = Simulation::new(sys, manager).with_warmup(cfg.warmup);
    if cfg.audit {
        sim = sim.with_auditor();
    }
    if cfg.ops_plane && !attach.no_telemetry {
        // What `ppm-sim --serve --alerts --audit` attaches, minus the HTTP
        // listener: a small ring, windowed rollups, the default burn-rate
        // rules and the snapshot hub.
        let tel = Telemetry::new(OPS_RING_ROWS)
            .with_aggregation(DEFAULT_AGG_WINDOW_US)
            .with_alerts()
            .with_hub(SnapshotHub::new());
        sim = sim.with_telemetry(tel);
    }
    if attach.tape {
        sim = sim.with_tape();
    }
    sim.run_for(SimDuration::ZERO);
    sim
}

/// How a single-chip cell runs.
#[derive(Debug, Clone, Copy)]
pub struct CellCfg {
    pub warmup: SimDuration,
    pub duration: SimDuration,
    /// Slices of the timed stepping loop, a probe tick after each: about
    /// 50 ms of host time per slice, each a whole number of quanta.
    pub slices: u64,
    pub audit: bool,
    pub ops_plane: bool,
}

/// Worker threads for fleet chip stepping: every host core, at most two
/// (more threads than cores only adds scheduler noise).
pub fn fleet_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Build the 64-chip fleet exactly as `ppm_fleet::scenario::synthetic_fleet`
/// does (graded V4/C2 chips, tariffs, TDP bounds, per-chip auditors, the
/// exchange with its auditor), with each chip's task mix drawn from `seed`.
/// `wrap` turns each chip's PPM manager into the manager the fleet runs.
pub fn build_fleet<M: PowerManager + Send>(
    seed: u64,
    tape: bool,
    wrap: impl Fn(PpmManager) -> M,
) -> Fleet<M> {
    let cap = FLEET_CAP_PER_CHIP * FLEET_CHIPS as f64;
    let mut fleet = Fleet::new()
        .with_exchange(cap)
        .with_fleet_auditor()
        .with_threads(fleet_threads());
    let mut rng = SplitMix::new(seed);
    for i in 0..FLEET_CHIPS {
        let spread = i as f64 / (FLEET_CHIPS - 1) as f64;
        let chip = graded_chip(4, 2, 0.75 + 0.5 * spread);
        let peak = chip_peak(&chip);
        let mut sys = System::new(chip, AllocationPolicy::Market);
        for k in 0..FLEET_TASKS {
            sys.add_task(drawn_task(&mut rng, k, &FLEET_MIX), CoreId(0));
        }
        place_on_little(&mut sys);
        let initial_tdp = peak * 0.5;
        let manager = wrap(PpmManager::new(PpmConfig::tc2_with_tdp(initial_tdp)));
        let mut sim = Simulation::new(sys, manager).with_auditor();
        if tape {
            sim = sim.with_tape();
        }
        fleet.add_chip(
            sim,
            ChipSpec {
                electricity_price: 0.8 + 0.5 * spread,
                tdp_min: peak * 0.1,
                tdp_max: peak,
            },
        );
    }
    // Manager `init` for every chip, so setup ends at the first quantum
    // (`Fleet::run_for` steps no chip for a zero duration).
    for chip in fleet.chips_mut() {
        chip.sim_mut().run_for(SimDuration::ZERO);
    }
    fleet
}

/// Every chip's summary plus the audit rollup of a fleet.
pub fn fleet_outcome<M: PowerManager>(fleet: &Fleet<M>) -> Outcome {
    Outcome {
        chips: fleet
            .chips()
            .iter()
            .map(|c| Summary::of(c.sim().system()))
            .collect(),
        violations: fleet.audit_rollup().violations().len(),
    }
}

/// Set-ups timed per cell run, back to back; the last one is stepped.
const SETUPS: usize = 3;

/// A built cell, at its first quantum.
enum Built {
    Ppm(Box<Simulation<PpmManager>>),
    Hpm(Box<Simulation<HpmManager>>),
    Hl(Box<Simulation<HlManager>>),
    Fleet(Box<Fleet<PpmManager>>),
}

impl Built {
    /// Build `cell`; also returns its simulated length and probe slices.
    fn new(cell: CellId, seed: u64) -> (Built, SimDuration, u64) {
        if cell == CellId::Fleet {
            let fleet = build_fleet(seed, false, |m| m);
            return (Built::Fleet(Box::new(fleet)), FLEET_CELL, FLEET_SLICES);
        }
        let (sys, manager, cfg) = build(cell, seed);
        let attach = Attach::default();
        let built = match manager {
            Manager::Ppm(m) => Built::Ppm(Box::new(simulation(sys, *m, &cfg, attach))),
            Manager::Hpm(m) => Built::Hpm(Box::new(simulation(sys, m, &cfg, attach))),
            Manager::Hl(m) => Built::Hl(Box::new(simulation(sys, m, &cfg, attach))),
        };
        (built, cfg.duration, cfg.slices)
    }

    fn run_for(&mut self, d: SimDuration) {
        match self {
            Built::Ppm(s) => s.run_for(d),
            Built::Hpm(s) => s.run_for(d),
            Built::Hl(s) => s.run_for(d),
            Built::Fleet(f) => f.run_for(d),
        }
    }

    /// The quantum of every chip.
    fn quantum(&self) -> SimDuration {
        match self {
            Built::Ppm(s) => s.quantum(),
            Built::Hpm(s) => s.quantum(),
            Built::Hl(s) => s.quantum(),
            Built::Fleet(f) => f.chip(0).sim().quantum(),
        }
    }

    fn chips(&self) -> u64 {
        match self {
            Built::Fleet(f) => f.len() as u64,
            _ => 1,
        }
    }

    fn outcome(&self) -> Outcome {
        fn single<M: PowerManager>(sim: &Simulation<M>) -> Outcome {
            Outcome {
                chips: vec![Summary::of(sim.system())],
                violations: sim.auditor().map_or(0, |a| a.violations().len()),
            }
        }
        match self {
            Built::Ppm(s) => single(s),
            Built::Hpm(s) => single(s),
            Built::Hl(s) => single(s),
            Built::Fleet(f) => fleet_outcome(f),
        }
    }
}

/// Build and run one cell untraced: the timed path. A probe tick, then
/// [`SETUPS`] timed set-ups back to back (the median counts, so set-up is
/// timed warm, as the steady state a change to it would move); the last
/// set-up is stepped in slices, with a probe tick after each. Slices are
/// whole quanta (whole trading epochs for the fleet), so slicing changes
/// nothing the program does.
pub fn run_untraced(cell: CellId, seed: u64, probe: &mut Probe) -> CellRun {
    let mut probed = probe.tick();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        // One built cell at a time, so the peak resident set is one cell's.
        drop(built.take());
        let t0 = Instant::now();
        let b = Built::new(cell, seed);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    let (mut sim, duration, slices) = built.expect("SETUPS > 0");
    let slice = SimDuration(duration.as_micros() / slices);
    assert_eq!(
        slice.as_micros() % sim.quantum().as_micros(),
        0,
        "a slice must be whole quanta"
    );
    let mut step = Duration::ZERO;
    for _ in 0..slices {
        let t1 = Instant::now();
        sim.run_for(slice);
        step += t1.elapsed();
        probed += probe.tick();
    }
    CellRun {
        outcome: sim.outcome(),
        quanta: duration.as_micros() / sim.quantum().as_micros() * sim.chips(),
        setup: Duration::from_secs_f64(median(&setups)),
        step,
        probe: probed,
        ticks: slices + 1,
    }
}
