//! `perfbench` — the simulator's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--host JSON]
//! perfbench --print-pins
//! ```
//!
//! `--trace 0` repeats whole passes of the workload's cells for `S` host
//! seconds and reports simulated chip-quanta per host second, set-up time
//! and peak memory. `--trace 1` alternates untraced and traced passes for
//! `S` seconds and reports the per-layer spans and counts. Both check every
//! cell's output and print one JSON object as the last line; the exit code
//! is non-zero when any cell failed. `--print-pins` prints the pinned
//! digest table for the default seed (see `pins.rs`). See `README.md`.

mod cells;
mod pins;
mod probe;
mod stats;
mod traced;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cells::{CellId, CellRun, Outcome, Workload, DEFAULT_SEED};
use probe::{slowdown, Probe, NOMINAL_TICK_NS};
use stats::{median, percentile};
use traced::{Counts, Spans, Traced};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: String,
}

fn parse() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut host = "{}".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--host" => host = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        host,
    }))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(a)) => a,
        Ok(None) => {
            pins::print_table();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = if args.workload == Workload::Fleet64 {
        cells::fleet_threads()
    } else {
        1
    };
    let host = args.host.trim();
    let rest = host.strip_prefix('{').unwrap_or("}").trim_start();
    let sep = if rest.starts_with('}') { "" } else { ", " };
    println!("host {{\"threads\": {threads}{sep}{rest}");
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // A panicking cell is reported as failed, not as a crash.
    std::panic::set_hook(Box::new(|info| eprintln!("cell panicked: {info}")));
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_timed(&args)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        report.metrics
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Report {
    attempted: u64,
    failed: u64,
    /// The JSON members of the `metrics` object.
    metrics: String,
}

/// Collects metrics for the final JSON line and the human-readable table.
#[derive(Default)]
struct Metrics {
    json: Vec<String>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<28} {value:>18} {unit}");
        self.json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    fn finish(self) -> String {
        self.json.join(", ")
    }
}

/// Whether the cells' digests are pinned: the Figure 6 cells are, at any
/// seed (their inputs are fixed); the others at the default seed. Other
/// runs must agree with the first run of the same cell instead.
fn pinned(args: &Args) -> bool {
    !args.workload.seeded() || args.seed == DEFAULT_SEED
}

fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// `--trace 0`: whole untraced passes until the time is up (at least two,
/// so seeded cells always have a second run to agree with).
fn run_timed(args: &Args) -> Report {
    let cells = args.workload.cells();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut probe = Probe::new();
    let mut passes: Vec<Vec<Option<CellRun>>> = Vec::new();
    while passes.len() < 2 || start.elapsed() < budget {
        let pass = cells
            .iter()
            .map(|&c| guarded(|| cells::run_untraced(c, args.seed, &mut probe)))
            .collect();
        passes.push(pass);
    }

    let mut failed = 0;
    let mut first: Vec<Option<u64>> = vec![None; cells.len()];
    for pass in &passes {
        for (i, run) in pass.iter().enumerate() {
            let ok = run.as_ref().is_some_and(|r| {
                let d = r.outcome.digest();
                let want = if pinned(args) {
                    pins::summary(cells[i])
                } else {
                    Some(*first[i].get_or_insert(d))
                };
                r.outcome.violations == 0 && want == Some(d)
            });
            if !ok {
                failed += 1;
                let why = run.as_ref().map_or("panicked".to_string(), |r| {
                    format!(
                        "digest {:#018x}, {} violations",
                        r.outcome.digest(),
                        r.outcome.violations
                    )
                });
                println!("FAILED {}: {why}", cells[i].name());
            }
        }
    }
    let attempted = (passes.len() * cells.len()) as u64;

    // The first pass warms caches and the allocator; time the rest.
    let timed = if passes.len() > 2 {
        &passes[1..]
    } else {
        &passes[..]
    };
    // Each pass's rate at the nominal probe speed: its wall rate times the
    // slowdown its probe ticks saw (see `probe.rs`).
    let (mut rates, mut wall_rates, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    for pass in timed {
        let runs: Vec<&CellRun> = pass.iter().flatten().collect();
        let quanta: u64 = runs.iter().map(|r| r.quanta).sum();
        let step: f64 = runs.iter().map(|r| r.step.as_secs_f64()).sum();
        let probed: Duration = runs.iter().map(|r| r.probe).sum();
        let slow = slowdown(probed, runs.iter().map(|r| r.ticks).sum());
        if step > 0.0 && slow.is_finite() {
            wall_rates.push(quanta as f64 / step);
            rates.push(quanta as f64 / step * slow);
            slowdowns.push(slow);
        }
    }
    // Each cell's median set-up over the passes, summed: one slow set-up
    // (a page fault, an interrupt) then moves no pass's figure. Scaled by
    // the slowdown of the same cell run's probe ticks.
    let setup: f64 = (0..cells.len())
        .map(|i| {
            let samples: Vec<f64> = timed
                .iter()
                .filter_map(|pass| pass[i].as_ref())
                .map(|r| r.setup.as_secs_f64() / slowdown(r.probe, r.ticks))
                .collect();
            median(&samples)
        })
        .sum();
    println!(
        "passes {} ({} timed), {} cells per pass, {:.1} s",
        passes.len(),
        timed.len(),
        cells.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "  wall.quanta_per_s            {} quanta/s (unscaled)",
        median(&wall_rates)
    );
    println!(
        "  probe.tick_ns                {} ns (nominal {NOMINAL_TICK_NS})",
        median(&slowdowns) * NOMINAL_TICK_NS
    );
    let mut m = Metrics::default();
    m.put("quanta_per_s", median(&rates), "quanta/s");
    m.put("setup_s", setup, "s");
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    let metrics = m.finish();

    // Deterministic figures and the failure share: printed, not gated here
    // (the digests gate them).
    println!(
        "  failed_frac                  {} ratio",
        failed as f64 / attempted as f64
    );
    if let Some(pass) = passes.iter().find(|p| p.iter().all(Option::is_some)) {
        let outcomes: Vec<&Outcome> = pass.iter().flatten().map(|r| &r.outcome).collect();
        print_sim(&outcomes);
    }
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// The simulated-time figures: means over cells (over chips in the fleet).
fn print_sim(outcomes: &[&Outcome]) {
    let chips: Vec<_> = outcomes.iter().flat_map(|o| o.chips.iter()).collect();
    let n = chips.len() as f64;
    let mean = |f: &dyn Fn(&cells::Summary) -> f64| chips.iter().map(|s| f(s)).sum::<f64>() / n;
    println!(
        "  sim.miss_frac                {} fraction",
        mean(&|s| s.any_miss)
    );
    println!(
        "  sim.avg_power_w              {} W",
        mean(&|s| s.avg_power_w)
    );
    println!(
        "  sim.above_tdp_frac           {} fraction",
        mean(&|s| s.above_tdp)
    );
    let p99: Vec<f64> = chips.iter().filter_map(|s| s.p99_over_slo).collect();
    if !p99.is_empty() {
        let worst = p99.iter().copied().fold(0.0, f64::max);
        let shed: u64 = chips.iter().filter_map(|s| s.shed).sum();
        println!("  sim.p99_over_slo             {worst} ratio");
        println!("  sim.shed                     {shed} requests");
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `--trace 1`: rounds of (untraced run, traced run, and for cells with an
/// ops plane a traced run without it) per cell until the time is up, at
/// least one round. Spans pool over rounds; counts come from the first.
fn run_traced(args: &Args) -> Report {
    let cells = args.workload.cells();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut spans = Spans::default();
    let mut counts: Option<Counts> = None;
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut replicas, mut ledgers) = ((0, 0), (0, 0));
    let mut probe = Probe::new();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        let mut round_counts = Counts::default();
        for &cell in &cells {
            attempted += 1;
            let untraced = guarded(|| cells::run_untraced(cell, args.seed, &mut probe));
            let traced = guarded(|| {
                traced::trace_cell(cell, args.seed, false, &mut spans, &mut round_counts)
            });
            let ops = matches!(cell, CellId::V64);
            let bare = ops
                .then(|| guarded(|| traced::trace_without_telemetry(cell, args.seed, &mut spans)));
            let verdict = match (&untraced, &traced, &bare) {
                (Some(u), Some(t), None | Some(Some(_))) => {
                    untraced_ns += u.step.as_nanos() as u64;
                    traced_ns += t.wall_ns;
                    replicas.0 += t.replica_checked;
                    replicas.1 += t.replica_mismatched;
                    ledgers.0 += t.ledger_checked;
                    ledgers.1 += t.ledger_mismatched;
                    traced_verdict(cell, args, u, t, bare.as_ref().and_then(Option::as_ref))
                }
                _ => Err("panicked".to_string()),
            };
            if let Err(why) = verdict {
                failed += 1;
                println!("FAILED {}: {why}", cell.name());
            }
        }
        counts.get_or_insert(round_counts);
        rounds += 1;
    }
    println!(
        "rounds {rounds}, {} cells per round, {:.1} s; replica digests {}/{} match, \
         shadow ledger rows {}/{} match",
        cells.len(),
        start.elapsed().as_secs_f64(),
        replicas.0 - replicas.1,
        replicas.0,
        ledgers.0 - ledgers.1,
        ledgers.0
    );
    let metrics = layer_metrics(
        &mut spans,
        &counts.unwrap_or_default(),
        traced_ns,
        untraced_ns,
    );
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// A traced cell passes when observing changed nothing (same summary as
/// the untraced run, and without telemetry too), its replicas agreed, its
/// auditor was clean, and, where pinned, summary and tape match the pins.
fn traced_verdict(
    cell: CellId,
    args: &Args,
    untraced: &CellRun,
    traced: &Traced,
    bare: Option<&Traced>,
) -> Result<(), String> {
    let digest = traced.outcome.digest();
    if digest != untraced.outcome.digest() {
        return Err(format!(
            "traced summary {digest:#018x} differs from untraced"
        ));
    }
    if bare.is_some_and(|b| b.outcome.digest() != digest || b.tape_digest != traced.tape_digest) {
        return Err("detaching telemetry changed the run".into());
    }
    if !traced.checks_pass() {
        return Err(format!(
            "replica digests {}/{} and shadow ledger rows {}/{} mismatched",
            traced.replica_mismatched,
            traced.replica_checked,
            traced.ledger_mismatched,
            traced.ledger_checked
        ));
    }
    if traced.outcome.violations > 0 || untraced.outcome.violations > 0 {
        return Err(format!("{} auditor violations", traced.outcome.violations));
    }
    if pinned(args) && pins::summary(cell) != Some(digest) {
        return Err(format!(
            "summary digest {digest:#018x} differs from the pin"
        ));
    }
    if pinned(args) && pins::tape(cell) != Some(traced.tape_digest) {
        return Err(format!(
            "tape digest {:#018x} differs from the pin",
            traced.tape_digest
        ));
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(spans: &mut Spans, c: &Counts, traced_ns: u64, untraced_ns: u64) -> String {
    for v in [
        &mut spans.capture,
        &mut spans.digest,
        &mut spans.quantum,
        &mut spans.plan,
        &mut spans.audit_check,
        &mut spans.audit_manager,
        &mut spans.epoch,
        &mut spans.clear,
    ] {
        v.sort_unstable();
    }
    spans.residual.sort_unstable();
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let quantum = sum(&spans.quantum);
    let epoch = sum(&spans.epoch);
    // Fleet chips step in parallel: their plan time is CPU time spread over
    // the stepping threads.
    let plan_den = if epoch > 0.0 {
        epoch * cells::fleet_threads() as f64
    } else {
        quantum
    };
    let mut m = Metrics::default();
    let p = |m: &mut Metrics, name: &str, v: &[u64], q: f64| {
        m.put(name, percentile(v, q) as f64, "ns");
    };
    p(&mut m, "snapshot.capture_ns.p50", &spans.capture, 0.50);
    p(&mut m, "snapshot.capture_ns.p99", &spans.capture, 0.99);
    m.put(
        "snapshot.capture_share",
        ratio(sum(&spans.capture), quantum),
        "ratio",
    );
    m.count("snapshot.task_rebuilds", c.task_rebuilds);
    m.count("snapshot.dynamic_refreshes", c.dynamic_refreshes);
    p(&mut m, "snapshot.digest_ns.p50", &spans.digest, 0.50);
    m.count("snapshot.digest_calls", c.digest_calls);
    p(&mut m, "manager.plan_ns.p50", &spans.plan, 0.50);
    p(&mut m, "manager.plan_ns.p99", &spans.plan, 0.99);
    m.put(
        "manager.plan_share",
        ratio(sum(&spans.plan), plan_den),
        "ratio",
    );
    m.count("manager.plan_calls", c.plan_calls);
    m.count("manager.actions", c.actions);
    m.count("market.rounds", c.market_rounds);
    m.count("market.full_recomputes", c.full_recomputes);
    m.count("market.fast_path_hits", c.fast_path_hits);
    m.put(
        "market.fast_ratio",
        ratio(c.fast_path_hits as f64, c.market_rounds as f64),
        "ratio",
    );
    m.count("lbt.moves", c.lbt_moves);
    m.count("platform.migrations_intra", c.migrations_intra);
    m.count("platform.migrations_inter", c.migrations_inter);
    p(&mut m, "audit.check_ns.p50", &spans.audit_check, 0.50);
    p(&mut m, "audit.manager_ns.p50", &spans.audit_manager, 0.50);
    m.count("audit.quanta", c.audit_quanta);
    m.put(
        "obs.overhead_frac",
        if spans.no_ops_wall_ns > 0 {
            spans.ops_wall_ns as f64 / spans.no_ops_wall_ns as f64 - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    m.count("obs.rows", c.obs_rows);
    m.count("obs.dropped", c.obs_dropped);
    m.count("obs.alerts_firing", c.obs_alerts_firing);
    p(&mut m, "executor.quantum_ns.p50", &spans.quantum, 0.50);
    p(&mut m, "executor.quantum_ns.p99", &spans.quantum, 0.99);
    m.put(
        "executor.residual_ns.p50",
        percentile(&spans.residual, 0.50) as f64,
        "ns",
    );
    let residual: i64 = spans.residual.iter().sum();
    m.put(
        "executor.residual_share",
        ratio(residual as f64, quantum),
        "ratio",
    );
    m.count("executor.quanta", c.quanta);
    p(&mut m, "fleet.epoch_ns.p50", &spans.epoch, 0.50);
    p(&mut m, "fleet.epoch_ns.p90", &spans.epoch, 0.90);
    p(&mut m, "fleet.clear_ns.p50", &spans.clear, 0.50);
    m.put(
        "fleet.clear_share",
        ratio(sum(&spans.clear), epoch),
        "ratio",
    );
    m.count("fleet.epochs", c.epochs);
    m.put(
        "trace.overhead_frac",
        ratio(traced_ns as f64, untraced_ns as f64) - 1.0,
        "ratio",
    );
    m.finish()
}
