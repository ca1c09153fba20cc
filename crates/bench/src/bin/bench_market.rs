//! Wall-clock cost of the full `Market::round` over the paper's §5.5
//! scalability grid (V clusters × C cores per cluster × T tasks per core),
//! up to 256 clusters, and a JSON record (`BENCH_market.json`) so future
//! changes have a perf trajectory to compare against.
//!
//! Four columns per grid cell, each the **median** of [`REPS`] timed reps:
//!
//! * `ns_per_round` — full recompute every round, stable observations
//!   (the historical column; incremental mode disabled).
//! * `churn_ns_per_round` — full recompute, one task's demand perturbed
//!   every round.
//! * `incremental_steady_ns_per_round` — incremental mode (the default) on
//!   stable observations: after convergence every round is a fast-path
//!   replay.
//! * `incremental_churn_ns_per_round` — incremental mode under per-round
//!   churn: every round pays the diff and recomputes in full.
//!
//! Run with `cargo run --release -p ppm-bench --bin bench_market
//! [out.json]`. Rounds run on one thread; the JSON records the host's
//! `host_cores` so a record reads against the machine that took it.
//!
//! `--check [quick]` runs no timing: it replays stable/churn interleavings
//! on every grid cell (`quick` stops at V64) through an incremental and an
//! always-full market side by side and asserts the decisions are
//! bit-identical (`Debug` rendering distinguishes `-0.0` and `NaN`).
//! Cells whose dynamics settle into a replayable
//! cycle additionally assert that the fast path engages; the cells marked
//! `None` below never do — their bid dynamics stay quasi-periodic at the
//! ULP level with no finite cycle (measured out to 20 000 stable rounds),
//! so every round is legitimately a full recompute there.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ppm_bench::sweep::default_threads;
use ppm_core::config::PpmConfig;
use ppm_core::market::{ClusterObs, CoreObs, Market, MarketDecision, MarketObs, TaskObs};
use ppm_platform::cluster::ClusterId;
use ppm_platform::core::CoreId;
use ppm_platform::units::{ProcessingUnits, Watts};
use ppm_workload::generator::ScalabilityWorkload;
use ppm_workload::task::TaskId;

/// The measured grid: the paper's Table 7 shapes plus the large
/// (V=256, C=16, T=32) point used as the acceptance target. The fourth
/// field is the stable-round horizon within which the fast path provably
/// engages (`None`: the cell never settles into a finite cycle — see the
/// module docs). V64/C8/T16 converges onto a *period-2* bid limit cycle
/// (caught by the lag-2 entry) at round ~844; with the exponential probe
/// back-off the first scheduled probe after that lands near round 1060.
const GRID: [(usize, usize, usize, Option<u64>); 7] = [
    (2, 4, 2, Some(64)),
    (4, 4, 8, Some(64)),
    (16, 8, 8, Some(64)),
    (16, 16, 32, None),
    (64, 8, 16, Some(2000)),
    (256, 8, 32, None),
    (256, 16, 32, None),
];

/// Timed reps per column; the median is reported (odd count → true median).
const REPS: usize = 5;
/// Per-rep time budget.
const REP_BUDGET: Duration = Duration::from_millis(100);
/// Warmup rounds before the first rep: enough for agent arenas and scratch
/// capacity.
const WARMUP_ROUNDS: u64 = 64;
/// Extra warmup cap for incremental steady mode: keep warming until the
/// fast path engages (V64/C8/T16 needs ~844 rounds to enter its limit
/// cycle) or this many rounds pass (cells that never cycle).
const CONVERGE_CAP: u64 = 2000;

/// An observation snapshot with `v` clusters × `c` cores × `t` tasks/core.
fn obs(v: usize, c: usize, t: usize) -> MarketObs {
    let mut gen = ScalabilityWorkload::new(11);
    let mut tasks = Vec::new();
    let mut cores = Vec::new();
    for cl in 0..v {
        for co in 0..c {
            let core = CoreId(cl * c + co);
            cores.push(CoreObs {
                id: core,
                cluster: ClusterId(cl),
            });
            for _ in 0..t {
                let s = gen.task();
                tasks.push(TaskObs {
                    id: TaskId(tasks.len()),
                    core,
                    priority: s.priority,
                    demand: s.demand,
                });
            }
        }
    }
    MarketObs {
        chip_power: Watts(2.0),
        tasks,
        cores,
        clusters: (0..v)
            .map(|cl| ClusterObs {
                id: ClusterId(cl),
                supply: ProcessingUnits(600.0),
                supply_up: Some(ProcessingUnits(700.0)),
                supply_down: Some(ProcessingUnits(500.0)),
                power: Watts(2.0 / v as f64),
            })
            .collect(),
    }
}

/// Deterministically wiggle one task's demand (a different task each call,
/// alternating sign so demands stay bounded) — enough to dirty the task
/// section and force a full recompute.
fn perturb(snapshot: &mut MarketObs, round: u64) {
    let n = snapshot.tasks.len();
    let k = (round as usize).wrapping_mul(17) % n;
    let delta = if round.is_multiple_of(2) { 1.0 } else { -1.0 };
    let t = &mut snapshot.tasks[k];
    t.demand = ProcessingUnits((t.demand.value() + delta).max(1.0));
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One (incremental?, churn?) timing context: its own market, observation,
/// and decision buffer so modes cannot contaminate each other.
struct ModeBench {
    snapshot: MarketObs,
    market: Market,
    out: MarketDecision,
    seq: u64,
    churn: bool,
}

impl ModeBench {
    fn new(v: usize, c: usize, t: usize, incremental: bool, churn: bool) -> ModeBench {
        let mut market = Market::new(PpmConfig::tc2());
        market.set_incremental(incremental);
        ModeBench {
            snapshot: obs(v, c, t),
            market,
            out: MarketDecision::default(),
            seq: 0,
            churn,
        }
    }

    fn round(&mut self) {
        if self.churn {
            perturb(&mut self.snapshot, self.seq);
            self.seq += 1;
        }
        self.market.round_into(&self.snapshot, &mut self.out);
    }

    /// Warm arenas and scratch capacity. Incremental steady mode measures
    /// the replay regime: keep warming until the fast path engages (or give
    /// up — some cells never cycle and honestly measure full-recompute cost).
    fn warm(&mut self) {
        for _ in 0..WARMUP_ROUNDS {
            self.round();
        }
        if self.market.incremental() && !self.churn {
            let mut extra = 0;
            while self.market.fast_path_hits() == 0 && extra < CONVERGE_CAP {
                self.round();
                extra += 1;
            }
        }
    }

    /// One timed rep: ns/round over a [`REP_BUDGET`] slice.
    fn rep(&mut self) -> f64 {
        let mut rounds: u64 = 0;
        let start = Instant::now();
        while start.elapsed() < REP_BUDGET || rounds < 10 {
            self.round();
            rounds += 1;
            if rounds >= 100_000 {
                break;
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / rounds as f64
    }
}

struct Sample {
    v: usize,
    c: usize,
    t: usize,
    tasks: usize,
    full_steady: f64,
    full_churn: f64,
    inc_steady: f64,
    inc_churn: f64,
}

fn bench_point(v: usize, c: usize, t: usize) -> Sample {
    // All four modes warm once, then reps interleave round-robin so slow
    // timing drift (frequency scaling, co-tenant load) lands on every
    // column equally instead of skewing whichever mode happened to run
    // last — the recorded *ratios* are what future changes compare against.
    let mut modes = [
        ModeBench::new(v, c, t, false, false),
        ModeBench::new(v, c, t, false, true),
        ModeBench::new(v, c, t, true, false),
        ModeBench::new(v, c, t, true, true),
    ];
    for m in &mut modes {
        m.warm();
    }
    let mut reps: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        for (m, r) in modes.iter_mut().zip(reps.iter_mut()) {
            r.push(m.rep());
        }
    }
    let [full_steady, full_churn, inc_steady, inc_churn] = reps.map(median);
    Sample {
        v,
        c,
        t,
        tasks: v * c * t,
        full_steady,
        full_churn,
        inc_steady,
        inc_churn,
    }
}

/// Replay a stable → churn-burst → stable interleaving through an
/// incremental and an always-full market and assert bit-identity per round.
/// When the cell is known to converge (`fast_horizon`), keep running
/// stable rounds (still asserting bit-identity) until the fast path engages.
fn check_cell(v: usize, c: usize, t: usize, fast_horizon: Option<u64>) {
    let mut snapshot = obs(v, c, t);
    let mut inc = Market::new(PpmConfig::tc2());
    assert!(inc.incremental(), "incremental mode must be the default");
    let mut full = Market::new(PpmConfig::tc2());
    full.set_incremental(false);
    let mut out_inc = MarketDecision::default();
    let mut out_full = MarketDecision::default();
    let mut lockstep = |inc: &mut Market, snapshot: &MarketObs, round: u64| {
        inc.round_into(snapshot, &mut out_inc);
        full.round_into(snapshot, &mut out_full);
        let a = format!("{out_inc:?}");
        let b = format!("{out_full:?}");
        assert_eq!(
            a, b,
            "V{v} C{c} T{t} round {round}: incremental decision diverged from full recompute"
        );
    };
    for round in 0..96u64 {
        // Stable prefix, a churn burst, then stable again.
        if (48..72).contains(&round) && round % 3 == 0 {
            perturb(&mut snapshot, round);
        }
        lockstep(&mut inc, &snapshot, round);
    }
    if let Some(horizon) = fast_horizon {
        let mut round = 96;
        while inc.fast_path_hits() == 0 && round < 96 + horizon {
            lockstep(&mut inc, &snapshot, round);
            round += 1;
        }
        assert!(
            inc.fast_path_hits() > 0,
            "V{v} C{c} T{t}: fast path never engaged within {horizon} stable rounds"
        );
    }
    println!(
        "  V{:<4} C{:<3} T{:<5} ok ({} fast-path, {} full rounds)",
        v,
        c,
        t,
        inc.fast_path_hits(),
        inc.full_recomputes()
    );
}

fn run_check(quick: bool) {
    println!("bench_market --check: incremental vs full, per-round bit-identity");
    for &(v, c, t, fast_horizon) in &GRID {
        if quick && v > 64 {
            continue;
        }
        check_cell(v, c, t, fast_horizon);
    }
    println!("bench_market --check: all cells bit-identical");
}

fn main() {
    let mut check = false;
    let mut quick = false;
    let mut out_path = "BENCH_market.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "quick" => quick = true,
            other => out_path = other.to_string(),
        }
    }
    if check {
        run_check(quick);
        return;
    }
    let host_cores = default_threads();
    let mut samples = Vec::new();
    println!("market round timings, {host_cores} host core(s)");
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "grid", "tasks", "full ns", "churn ns", "inc ns", "inc-churn", "speedup"
    );
    for &(v, c, t, _) in &GRID {
        let s = bench_point(v, c, t);
        println!(
            "V{:<4} C{:<3} T{:<5} {:>8} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>7.1}x",
            s.v,
            s.c,
            s.t,
            s.tasks,
            s.full_steady,
            s.full_churn,
            s.inc_steady,
            s.inc_churn,
            s.full_steady / s.inc_steady
        );
        samples.push(s);
    }

    let mut json = String::new();
    json.push_str(
        "{\n  \"bench\": \"market_round\",\n  \"unit\": \"ns_per_round\",\n  \"stat\": \"median_of_5_reps\",\n",
    );
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    json.push_str("  \"grid\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"v\": {}, \"c\": {}, \"t\": {}, \"tasks\": {}, \"ns_per_round\": {:.0}, \"churn_ns_per_round\": {:.0}, \"incremental_steady_ns_per_round\": {:.0}, \"incremental_churn_ns_per_round\": {:.0}}}{}",
            s.v,
            s.c,
            s.t,
            s.tasks,
            s.full_steady,
            s.full_churn,
            s.inc_steady,
            s.inc_churn,
            if i + 1 == samples.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
