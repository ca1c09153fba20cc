//! The traced pass: per-layer spans timed from the benchmark's own code
//! around public calls.
//!
//! A single-chip cell is stepped one quantum at a time with
//! `Simulation::run_for(quantum)`, which is byte-identical to one long
//! `run_for`. Around each quantum:
//!
//! * a replica `SystemSnapshot` runs `capture_gated(sys, true)` and
//!   `digest()` before the quantum, repeating the executor's own capture
//!   (its digest must equal the tape record of every actuating quantum);
//! * the [`Timed`] manager wrapper times `plan` and `audit` inside it;
//! * a replica `Auditor` runs `begin_quantum` + `check_system` after it,
//!   when the cell audits;
//! * the rest of the `run_for` wall time is the residual: apply, platform
//!   step, workload progress and telemetry.
//!
//! The fleet is stepped one epoch at a time with `Fleet::run_for(epoch)`
//! (partial epochs do not trade); a shadow `FleetExchange` fed the bids
//! rebuilt from each ledger row times `clear` and must reproduce the row.

use std::time::Instant;

use ppm_baselines::hl::HlManager;
use ppm_baselines::hpm::HpmManager;
use ppm_core::manager::PpmManager;
use ppm_fleet::{Fleet, FleetExchange};
use ppm_obs::{PhaseProfiler, PolicySample};
use ppm_platform::units::{SimDuration, Watts};
use ppm_sched::executor::{FleetBid, PowerManager, Simulation, System};
use ppm_sched::metrics::Degradation;
use ppm_sched::plan::ActuationPlan;
use ppm_sched::{Auditor, SystemSnapshot};

use crate::cells::{self, Attach, CellCfg, CellId, Manager, Outcome, Summary, FLEET_CELL};
use crate::stats::Fnv;

/// Counters the managers expose through their public API.
pub trait Probe {
    /// `(rounds, full recomputes, fast-path hits)` of the market.
    fn market_counts(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
    /// Moves the LBT module performed.
    fn lbt_moves(&self) -> u64 {
        0
    }
}

impl Probe for PpmManager {
    fn market_counts(&self) -> (u64, u64, u64) {
        let m = self.market();
        (m.rounds(), m.full_recomputes(), m.fast_path_hits())
    }
    fn lbt_moves(&self) -> u64 {
        self.moves().len() as u64
    }
}

impl Probe for HpmManager {}
impl Probe for HlManager {}

/// A forwarding [`PowerManager`] that times `plan` and `audit`.
pub struct Timed<M> {
    pub inner: M,
    pub plan_ns: Vec<u64>,
    pub audit_ns: Vec<u64>,
    pub actions: u64,
}

impl<M> Timed<M> {
    pub fn new(inner: M) -> Timed<M> {
        Timed {
            inner,
            plan_ns: Vec::new(),
            audit_ns: Vec::new(),
            actions: 0,
        }
    }

    fn planned(&mut self, t0: Instant, before: usize, plan: &ActuationPlan) {
        self.plan_ns.push(t0.elapsed().as_nanos() as u64);
        self.actions += (plan.ops().len() - before) as u64;
    }
}

impl<M: PowerManager> PowerManager for Timed<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, sys: &mut System) {
        self.inner.init(sys);
    }

    fn plan(&mut self, snap: &SystemSnapshot, dt: SimDuration, plan: &mut ActuationPlan) {
        let before = plan.ops().len();
        let t0 = Instant::now();
        self.inner.plan(snap, dt, plan);
        self.planned(t0, before, plan);
    }

    fn plan_profiled(
        &mut self,
        snap: &SystemSnapshot,
        dt: SimDuration,
        plan: &mut ActuationPlan,
        prof: &mut PhaseProfiler,
    ) {
        let before = plan.ops().len();
        let t0 = Instant::now();
        self.inner.plan_profiled(snap, dt, plan, prof);
        self.planned(t0, before, plan);
    }

    fn sample_policy(&self, out: &mut PolicySample) {
        self.inner.sample_policy(out);
    }

    fn degradation(&self) -> Degradation {
        self.inner.degradation()
    }

    fn audit(&mut self, snap: &SystemSnapshot, auditor: &mut Auditor) {
        let t0 = Instant::now();
        self.inner.audit(snap, auditor);
        self.audit_ns.push(t0.elapsed().as_nanos() as u64);
    }

    fn fleet_bid(&self) -> Option<FleetBid> {
        self.inner.fleet_bid()
    }

    fn set_power_budget(&mut self, tdp: Watts) -> bool {
        self.inner.set_power_budget(tdp)
    }
}

/// Raw span samples (nanoseconds) gathered over every traced pass.
#[derive(Debug, Default)]
pub struct Spans {
    pub capture: Vec<u64>,
    pub digest: Vec<u64>,
    pub quantum: Vec<u64>,
    pub residual: Vec<i64>,
    pub plan: Vec<u64>,
    pub audit_check: Vec<u64>,
    pub audit_manager: Vec<u64>,
    pub epoch: Vec<u64>,
    pub clear: Vec<u64>,
    /// Executor `run_for` wall of the cells with their telemetry, and of
    /// the same cells with it detached (only cells with an ops plane).
    pub ops_wall_ns: u64,
    pub no_ops_wall_ns: u64,
}

/// Work counts of one traced pass. Deterministic: they repeat exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub quanta: u64,
    pub task_rebuilds: u64,
    pub dynamic_refreshes: u64,
    pub digest_calls: u64,
    pub plan_calls: u64,
    pub actions: u64,
    pub market_rounds: u64,
    pub full_recomputes: u64,
    pub fast_path_hits: u64,
    pub lbt_moves: u64,
    pub migrations_intra: u64,
    pub migrations_inter: u64,
    pub audit_quanta: u64,
    pub obs_rows: u64,
    pub obs_dropped: u64,
    pub obs_alerts_firing: u64,
    pub epochs: u64,
}

/// A traced cell's outcome and its self-checks.
#[derive(Debug, Clone)]
pub struct Traced {
    pub outcome: Outcome,
    /// Digest of the rendered actuation tapes (and the fleet ledger).
    pub tape_digest: u64,
    /// Actuating quanta whose replica digest was compared / mismatched.
    pub replica_checked: u64,
    pub replica_mismatched: u64,
    /// Fleet epochs whose shadow ledger row was compared / mismatched.
    pub ledger_checked: u64,
    pub ledger_mismatched: u64,
    /// Stepping wall time of the traced loop, replicas included.
    pub wall_ns: u64,
}

impl Traced {
    pub fn checks_pass(&self) -> bool {
        self.replica_mismatched == 0 && self.ledger_mismatched == 0
    }
}

/// Step `sim` quantum by quantum to `duration`, recording spans.
fn trace_sim<M: PowerManager + Probe>(
    mut sim: Simulation<Timed<M>>,
    duration: SimDuration,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Traced {
    let q = sim.quantum();
    let steps = duration.as_micros() / q.as_micros();
    let audited = sim.auditor().is_some();
    let mut snap = SystemSnapshot::new();
    let mut auditor = Auditor::new();
    let (mut checked, mut mismatched, mut digests, mut stepped) = (0, 0, 0, 0);
    let t_start = Instant::now();
    for _ in 0..steps {
        let t0 = Instant::now();
        snap.capture_gated(sim.system(), true);
        let t1 = Instant::now();
        let digest = snap.digest();
        let t2 = Instant::now();
        let taped = sim.tape().map_or(0, |t| t.records().len());
        let plans = sim.manager().plan_ns.len();
        let audits = sim.manager().audit_ns.len();
        sim.run_for(q);
        let t3 = Instant::now();
        let mut inside = ns(t0, t1) + sim.manager().plan_ns[plans..].iter().sum::<u64>();
        inside += sim.manager().audit_ns[audits..].iter().sum::<u64>();
        let records = sim.tape().map_or(&[][..], |t| t.records());
        let actuated = records.len() > taped;
        if actuated {
            checked += 1;
            mismatched += u64::from(records[taped].snapshot_digest != digest);
        }
        // The executor digests every audited quantum and every taped one.
        if audited || actuated {
            digests += 1;
            inside += ns(t1, t2);
        }
        if audited {
            let t4 = Instant::now();
            auditor.begin_quantum(snap.now, digest);
            auditor.check_system(sim.system());
            let check = ns(t4, Instant::now());
            spans.audit_check.push(check);
            inside += check;
        }
        let quantum = ns(t2, t3);
        spans.capture.push(ns(t0, t1));
        spans.digest.push(ns(t1, t2));
        spans.quantum.push(quantum);
        stepped += quantum;
        spans.residual.push(quantum as i64 - inside as i64);
    }
    let wall_ns = ns(t_start, Instant::now());
    if sim.telemetry().is_some() {
        spans.ops_wall_ns += stepped;
    }

    let mgr = sim.manager();
    spans.plan.extend_from_slice(&mgr.plan_ns);
    spans.audit_manager.extend_from_slice(&mgr.audit_ns);
    let (rounds, full, fast) = mgr.inner.market_counts();
    let m = sim.system().metrics();
    counts.quanta += steps;
    counts.task_rebuilds += snap.task_rebuilds();
    counts.dynamic_refreshes += snap.dynamic_refreshes();
    counts.digest_calls += digests;
    counts.plan_calls += mgr.plan_ns.len() as u64;
    counts.actions += mgr.actions;
    counts.market_rounds += rounds;
    counts.full_recomputes += full;
    counts.fast_path_hits += fast;
    counts.lbt_moves += mgr.inner.lbt_moves();
    counts.migrations_intra += m.migrations_intra;
    counts.migrations_inter += m.migrations_inter;
    counts.audit_quanta += sim.auditor().map_or(0, Auditor::quanta_audited);
    if let Some(tel) = sim.telemetry() {
        counts.obs_rows += tel.recorder.total_rows();
        counts.obs_dropped += tel.recorder.dropped();
        counts.obs_alerts_firing += tel.alerts.as_ref().map_or(0, |a| a.firing_count());
    }
    let tape = sim.tape().map(|t| t.render()).unwrap_or_default();
    Traced {
        outcome: Outcome {
            chips: vec![Summary::of(sim.system())],
            violations: sim.auditor().map_or(0, |a| a.violations().len()),
        },
        tape_digest: Fnv::new().bytes(tape.as_bytes()).finish(),
        replica_checked: checked,
        replica_mismatched: mismatched,
        ledger_checked: 0,
        ledger_mismatched: 0,
        wall_ns,
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

fn trace_built<M: PowerManager + Probe>(
    sys: System,
    manager: M,
    cfg: CellCfg,
    attach: Attach,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Traced {
    let sim = cells::simulation(sys, Timed::new(manager), &cfg, attach);
    trace_sim(sim, cfg.duration, spans, counts)
}

/// Build and trace one cell, with its actuation tape recorded (the traced
/// pass pins the tape).
pub fn trace_cell(
    cell: CellId,
    seed: u64,
    no_telemetry: bool,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Traced {
    if cell == CellId::Fleet {
        return trace_fleet(seed, spans, counts);
    }
    let attach = Attach {
        tape: true,
        no_telemetry,
    };
    let (sys, manager, cfg) = cells::build(cell, seed);
    match manager {
        Manager::Ppm(m) => trace_built(sys, *m, cfg, attach, spans, counts),
        Manager::Hpm(m) => trace_built(sys, m, cfg, attach, spans, counts),
        Manager::Hl(m) => trace_built(sys, m, cfg, attach, spans, counts),
    }
}

/// The shadow exchange's inputs for one ledger row: the bids and power
/// readings the real exchange cleared. A chip without a market bid is
/// rebuilt as a zero-value bid desiring its own draw, which clears
/// identically.
fn replay_clear(shadow: &mut FleetExchange, fleet: &Fleet<Timed<PpmManager>>) -> (u64, bool) {
    let real = fleet
        .exchange()
        .and_then(|ex| ex.ledger().last())
        .expect("a traded epoch leaves a ledger row");
    let bids: Vec<_> = real
        .chips
        .iter()
        .zip(fleet.chips())
        .map(|(row, chip)| {
            let bid = FleetBid {
                value_per_watt: row.value_per_watt,
                power: row.power,
                desired: row.desired,
            };
            (Some(bid), chip.spec())
        })
        .collect();
    let powers: Vec<Watts> = real.chips.iter().map(|row| row.power).collect();
    let t0 = Instant::now();
    let idx = shadow.clear(real.at, &bids, &powers);
    let clear_ns = ns(t0, Instant::now());
    let same = format!("{:?}", shadow.ledger()[idx]) == format!("{real:?}");
    (clear_ns, same)
}

fn trace_fleet(seed: u64, spans: &mut Spans, counts: &mut Counts) -> Traced {
    let mut fleet = cells::build_fleet(seed, true, Timed::new);
    let cap = fleet.exchange().expect("fleet64 trades").cap();
    let mut shadow = FleetExchange::new(cap);
    let epoch = fleet.epoch();
    let epochs = FLEET_CELL.as_micros() / epoch.as_micros();
    let (mut checked, mut mismatched) = (0, 0);
    let t_start = Instant::now();
    for _ in 0..epochs {
        let t0 = Instant::now();
        fleet.run_for(epoch);
        spans.epoch.push(ns(t0, Instant::now()));
        let (clear, same) = replay_clear(&mut shadow, &fleet);
        spans.clear.push(clear);
        checked += 1;
        mismatched += u64::from(!same);
    }
    let wall_ns = ns(t_start, Instant::now());

    let mut tapes = Fnv::new();
    for chip in fleet.chips() {
        let sim = chip.sim();
        let mgr = sim.manager();
        spans.plan.extend_from_slice(&mgr.plan_ns);
        spans.audit_manager.extend_from_slice(&mgr.audit_ns);
        let (rounds, full, fast) = mgr.inner.market_counts();
        let m = sim.system().metrics();
        counts.quanta += FLEET_CELL.as_micros() / sim.quantum().as_micros();
        counts.plan_calls += mgr.plan_ns.len() as u64;
        counts.actions += mgr.actions;
        counts.market_rounds += rounds;
        counts.full_recomputes += full;
        counts.fast_path_hits += fast;
        counts.lbt_moves += mgr.inner.lbt_moves();
        counts.migrations_intra += m.migrations_intra;
        counts.migrations_inter += m.migrations_inter;
        counts.audit_quanta += sim.auditor().map_or(0, Auditor::quanta_audited);
        let tape = sim.tape().map(|t| t.render()).unwrap_or_default();
        tapes = tapes.bytes(tape.as_bytes());
    }
    counts.epochs += epochs;
    let ledger = fleet
        .exchange()
        .map(|ex| ex.render_ledger())
        .unwrap_or_default();
    Traced {
        outcome: cells::fleet_outcome(&fleet),
        tape_digest: tapes.bytes(ledger.as_bytes()).finish(),
        replica_checked: 0,
        replica_mismatched: 0,
        ledger_checked: checked,
        ledger_mismatched: mismatched,
        wall_ns,
    }
}

/// Trace a cell with its workload's telemetry detached and its auditor
/// kept, adding its executor `run_for` wall time to the `obs` overhead
/// baseline (`spans.no_ops_wall_ns`).
pub fn trace_without_telemetry(cell: CellId, seed: u64, spans: &mut Spans) -> Traced {
    let mut scratch_spans = Spans::default();
    let mut scratch_counts = Counts::default();
    let t = trace_cell(cell, seed, true, &mut scratch_spans, &mut scratch_counts);
    spans.no_ops_wall_ns += scratch_spans.quantum.iter().sum::<u64>();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{Scheme, DEFAULT_SEED};
    use crate::probe::Probe;

    fn trace(cell: CellId, seed: u64) -> Traced {
        trace_cell(
            cell,
            seed,
            false,
            &mut Spans::default(),
            &mut Counts::default(),
        )
    }

    #[test]
    fn replica_snapshot_digest_matches_every_tape_record() {
        let m1_ppm = CellId::Fig6 {
            set: 3,
            scheme: Scheme::Ppm,
        };
        for cell in [m1_ppm, CellId::V64] {
            let t = trace(cell, DEFAULT_SEED);
            assert!(t.replica_checked > 0, "{} never actuated", cell.name());
            assert_eq!(t.replica_mismatched, 0, "{}", cell.name());
        }
    }

    #[test]
    fn shadow_exchange_reproduces_every_ledger_row() {
        let t = trace(CellId::Fleet, DEFAULT_SEED);
        assert_eq!(t.ledger_checked, 50);
        assert_eq!(t.ledger_mismatched, 0);
    }

    #[test]
    fn observing_changes_nothing() {
        let h2_hl = CellId::Fig6 {
            set: 7,
            scheme: Scheme::Hl,
        };
        let m2_hpm = CellId::Fig6 {
            set: 4,
            scheme: Scheme::Hpm,
        };
        for cell in [h2_hl, m2_hpm, CellId::V64, CellId::Fleet] {
            let untraced = cells::run_untraced(cell, 7, &mut Probe::new())
                .outcome
                .digest();
            let traced = trace(cell, 7);
            assert_eq!(traced.outcome.digest(), untraced, "{}", cell.name());
            assert_eq!(traced.outcome.violations, 0, "{}", cell.name());
        }
        let bare = trace_without_telemetry(CellId::V64, 7, &mut Spans::default());
        assert_eq!(
            bare.outcome.digest(),
            trace(CellId::V64, 7).outcome.digest()
        );
    }
}
