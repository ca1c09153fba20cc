//! System snapshots: the *snapshot-in* half of the manager boundary.
//!
//! Once per quantum the executor captures the whole observable system state
//! — supplies, powers, utilizations, task telemetry — into a reused
//! [`SystemSnapshot`]. Managers read only this (never the live
//! [`System`](crate::executor::System)), which makes every policy a pure
//! `snapshot → plan` function: replayable, diffable, and safe to run while
//! the executor state is elsewhere. The snapshot is a strict superset of the
//! market's `MarketObs` and of what the HPM/HL baselines poll ad hoc.
//!
//! Capture reuses all buffers: after the first few quanta (static topology
//! vectors are built once) a steady-state capture performs **zero heap
//! allocation** — see `tests/zero_alloc.rs`. It is a compare-and-copy:
//! every live value is read once and compared with the snapshot's copy by
//! exact bits, and only differing entries are written, so a capture whose
//! telemetry has not moved writes nothing. No hash runs at capture; the
//! FNV-1a [`SystemSnapshot::digest`] is computed only when a tape record or
//! an audit violation needs it.

use ppm_platform::cluster::ClusterId;
use ppm_platform::core::{CoreClass, CoreId};
use ppm_platform::thermal::Celsius;
use ppm_platform::units::{ProcessingUnits, SimTime, Watts};
use ppm_workload::request::OpenLoopSnap;
use ppm_workload::task::TaskId;

use crate::executor::System;

/// Per-task telemetry, as the paper's agents observe it.
#[derive(Debug, Clone, Copy)]
pub struct TaskSnap {
    /// Task id.
    pub id: TaskId,
    /// The core the task is mapped to (`c_t`).
    pub core: CoreId,
    /// Scheduling priority.
    pub priority: u32,
    /// Explicit PU share currently set (Market policy).
    pub share: ProcessingUnits,
    /// PU supply granted in the last quantum (`s_t`).
    pub granted: ProcessingUnits,
    /// PELT load average in `[0, 1]`.
    pub pelt_load: f64,
    /// True while the task pays a migration penalty.
    pub stalled: bool,
    /// Observed heart rate (0 until the monitor window fills).
    pub heart_rate: f64,
    /// Reference heart-rate target.
    pub target_rate: f64,
    /// Demand on the task's *current* core class, from its telemetry there.
    pub demand: ProcessingUnits,
    /// Off-line profiled demand on a LITTLE core.
    pub demand_little: ProcessingUnits,
    /// Off-line profiled demand on a big core.
    pub demand_big: ProcessingUnits,
    /// Measured cost per heartbeat, when telemetry is warm.
    pub cost_per_beat: Option<f64>,
    /// Request-queue state, for open-loop tasks only.
    pub open_loop: Option<OpenLoopSnap>,
}

impl TaskSnap {
    /// Profiled demand for `class`.
    pub fn profiled_demand(&self, class: CoreClass) -> ProcessingUnits {
        match class {
            CoreClass::Little => self.demand_little,
            CoreClass::Big => self.demand_big,
        }
    }

    /// Exact equality of every field, floats by bit pattern (see [`Bits`]).
    fn same_bits(&self, o: &TaskSnap) -> bool {
        self.id == o.id
            && self.core == o.core
            && self.priority == o.priority
            && self.share.bits() == o.share.bits()
            && self.granted.bits() == o.granted.bits()
            && self.pelt_load.bits() == o.pelt_load.bits()
            && self.stalled == o.stalled
            && self.heart_rate.bits() == o.heart_rate.bits()
            && self.target_rate.bits() == o.target_rate.bits()
            && self.demand.bits() == o.demand.bits()
            && self.demand_little.bits() == o.demand_little.bits()
            && self.demand_big.bits() == o.demand_big.bits()
            && self.cost_per_beat.map(Bits::bits) == o.cost_per_beat.map(Bits::bits)
            && match (self.open_loop, o.open_loop) {
                (Some(a), Some(b)) => {
                    a.queue_depth == b.queue_depth
                        && a.p99_ms.bits() == b.p99_ms.bits()
                        && a.slo_ms.bits() == b.slo_ms.bits()
                        && a.shed == b.shed
                }
                (a, b) => a.is_none() && b.is_none(),
            }
    }
}

/// Per-core state.
#[derive(Debug, Clone, Copy)]
pub struct CoreSnap {
    /// Core id.
    pub id: CoreId,
    /// Owning cluster.
    pub cluster: ClusterId,
    /// Core class.
    pub class: CoreClass,
    /// Last quantum's utilization in `[0, 1]`.
    pub utilization: f64,
    /// Supply at the cluster's current level (0 when gated).
    pub supply: ProcessingUnits,
    /// Supply at the cluster's top level (static).
    pub max_supply: ProcessingUnits,
}

/// Per-cluster state, with the V-F ladder for level arithmetic.
#[derive(Debug, Clone)]
pub struct ClusterSnap {
    /// Cluster id.
    pub id: ClusterId,
    /// Class of the cluster's cores.
    pub class: CoreClass,
    /// Settled V-F level index.
    pub level: usize,
    /// The level currently in force or in flight (pending transition wins).
    pub effective_target: usize,
    /// True when power-gated.
    pub off: bool,
    /// Per-core supply at the current level (0 when gated).
    pub supply_per_core: ProcessingUnits,
    /// Last sampled cluster power (managers see the noisy sensor).
    pub power: Watts,
    /// Per-core supply at each ladder level, ascending (static).
    pub ladder: Vec<ProcessingUnits>,
    /// The cluster's cores (static).
    pub cores: Vec<CoreId>,
}

impl ClusterSnap {
    /// Highest level index.
    pub fn max_level(&self) -> usize {
        self.ladder.len() - 1
    }

    /// One level up from the current one, saturating at the top
    /// (mirrors `VfTable::step_up`).
    pub fn step_up(&self) -> usize {
        (self.level + 1).min(self.max_level())
    }

    /// One level down from the current one, saturating at the bottom.
    pub fn step_down(&self) -> usize {
        self.level.saturating_sub(1)
    }

    /// Per-core supply one level up, if not already at the top.
    pub fn supply_up(&self) -> Option<ProcessingUnits> {
        (self.level < self.max_level()).then(|| self.ladder[self.level + 1])
    }

    /// Per-core supply one level down, if not already at the bottom.
    pub fn supply_down(&self) -> Option<ProcessingUnits> {
        (self.level > 0).then(|| self.ladder[self.level - 1])
    }

    /// Lowest level whose supply covers `demand`, else the top level
    /// (mirrors `VfTable::level_for_demand`).
    pub fn level_for_demand(&self, demand: ProcessingUnits) -> usize {
        self.ladder
            .iter()
            .position(|&s| s >= demand)
            .unwrap_or(self.max_level())
    }
}

/// Everything a power manager may observe, captured at one instant.
#[derive(Debug, Default)]
pub struct SystemSnapshot {
    /// Capture time (start of the quantum being planned).
    pub now: SimTime,
    /// Last sampled chip power (noisy sensor, like `System::chip_power`).
    pub chip_power: Watts,
    /// Hottest junction temperature, when a thermal model is attached.
    pub hottest: Option<Celsius>,
    /// Active tasks, ascending by id.
    pub tasks: Vec<TaskSnap>,
    /// All cores, indexed by core id.
    pub cores: Vec<CoreSnap>,
    /// All clusters, indexed by cluster id.
    pub clusters: Vec<ClusterSnap>,
    /// How many captures found the task section changed (stat).
    task_rebuilds: u64,
    /// How many captures found any of the chip/core/cluster dynamic
    /// sections changed (stat).
    dynamic_refreshes: u64,
}

impl SystemSnapshot {
    /// An empty snapshot (fill with [`SystemSnapshot::capture`]).
    pub fn new() -> SystemSnapshot {
        SystemSnapshot::default()
    }

    /// Capture `sys` into this snapshot, reusing all buffers.
    ///
    /// Every live value is read once and compared with the snapshot's copy
    /// by exact bits; only differing entries are written. The result is
    /// bit-identical to a capture into a fresh snapshot, whatever was
    /// written into this one since the previous capture — in particular,
    /// observation faults that perturb the copies in place are simply seen
    /// as differences and overwritten.
    pub fn capture(&mut self, sys: &System) {
        let chip = sys.chip();
        self.now = sys.now();

        // Static topology: built once, then only dynamic fields refresh. A
        // fresh build counts as a change of every section.
        let new_clusters = self.clusters.len() != chip.clusters().len();
        let new_cores = self.cores.len() != chip.cores().len();
        if new_clusters {
            self.clusters = chip
                .clusters()
                .iter()
                .map(|cl| ClusterSnap {
                    id: cl.id(),
                    class: cl.class(),
                    level: 0,
                    effective_target: 0,
                    off: false,
                    supply_per_core: ProcessingUnits::ZERO,
                    power: Watts::ZERO,
                    ladder: cl.table().iter().map(|(_, p)| p.supply()).collect(),
                    cores: cl.cores().to_vec(),
                })
                .collect();
        }
        if new_cores {
            self.cores = chip
                .cores()
                .iter()
                .map(|d| CoreSnap {
                    id: d.id(),
                    cluster: d.cluster(),
                    class: d.class(),
                    utilization: 0.0,
                    supply: ProcessingUnits::ZERO,
                    max_supply: chip.core_max_supply(d.id()),
                })
                .collect();
        }

        let fresh = new_clusters || new_cores;

        // Dynamic sections. `|` (not `||`) so every field is written.
        let mut dynamic = fresh | put(&mut self.chip_power, sys.chip_power());
        let hottest = sys.thermal().map(|t| t.hottest());
        if hottest.map(Bits::bits) != self.hottest.map(Bits::bits) {
            self.hottest = hottest;
            dynamic = true;
        }
        for (snap, cl) in self.clusters.iter_mut().zip(chip.clusters()) {
            dynamic |= put(&mut snap.level, cl.level().0)
                | put(&mut snap.effective_target, cl.effective_target().0)
                | put(&mut snap.off, cl.is_off())
                | put(&mut snap.supply_per_core, cl.supply_per_core())
                | put(&mut snap.power, sys.cluster_power(cl.id()));
        }
        for (snap, d) in self.cores.iter_mut().zip(chip.cores()) {
            dynamic |= put(&mut snap.utilization, sys.core_utilization(d.id()))
                | put(&mut snap.supply, chip.core_supply(d.id()));
        }
        self.dynamic_refreshes += u64::from(dynamic);

        // Task section, membership changes included: overwrite differing
        // entries in place, push arrivals, truncate departures. The buffer's
        // capacity is reused, so steady state allocates nothing.
        let mut tasks = fresh;
        let mut n = 0;
        for id in sys.task_iter() {
            let live = Self::task_snap(sys, id);
            match self.tasks.get_mut(n) {
                Some(snap) if snap.same_bits(&live) => {}
                Some(snap) => {
                    *snap = live;
                    tasks = true;
                }
                None => {
                    self.tasks.push(live);
                    tasks = true;
                }
            }
            n += 1;
        }
        if self.tasks.len() > n {
            self.tasks.truncate(n);
            tasks = true;
        }
        self.task_rebuilds += u64::from(tasks);
    }

    /// Forwards to [`SystemSnapshot::capture`] and ignores
    /// `sections_trusted`: the exact comparison needs no promise that the
    /// snapshot's copies were left untouched.
    pub fn capture_gated(&mut self, sys: &System, _sections_trusted: bool) {
        self.capture(sys);
    }

    /// The live telemetry of active task `id`, as the paper's agents see it.
    fn task_snap(sys: &System, id: TaskId) -> TaskSnap {
        let task = sys.task(id);
        let core = sys.core_of(id);
        let class = sys.chip().core(core).class();
        TaskSnap {
            id,
            core,
            priority: task.priority().value(),
            share: sys.share_of(id),
            granted: sys.granted(id),
            pelt_load: sys.pelt_load(id),
            stalled: sys.is_stalled(id),
            heart_rate: task.heart_rate(),
            target_rate: task.spec().target_range().target(),
            demand: task.demand(class, class),
            // Pressure-scaled for open-loop tasks (== raw profile for
            // closed-loop, so committed digests are untouched).
            demand_little: task.planning_demand(CoreClass::Little),
            demand_big: task.planning_demand(CoreClass::Big),
            cost_per_beat: task.measured_cost_per_beat(),
            open_loop: task.open_loop_snap(),
        }
    }

    /// How many captures so far found the task section changed (first
    /// capture included); the rest wrote nothing to it.
    pub fn task_rebuilds(&self) -> u64 {
        self.task_rebuilds
    }

    /// How many captures so far found any of the chip-scalar, core, or
    /// cluster dynamic sections changed (first capture included).
    pub fn dynamic_refreshes(&self) -> u64 {
        self.dynamic_refreshes
    }

    /// The snapshot of `task`, if active (binary search — tasks are sorted).
    pub fn task(&self, task: TaskId) -> Option<&TaskSnap> {
        self.tasks
            .binary_search_by_key(&task, |t| t.id)
            .ok()
            .map(|i| &self.tasks[i])
    }

    /// The snapshot of `core`.
    pub fn core(&self, core: CoreId) -> &CoreSnap {
        &self.cores[core.0]
    }

    /// The snapshot of `cluster`.
    pub fn cluster(&self, cluster: ClusterId) -> &ClusterSnap {
        &self.clusters[cluster.0]
    }

    /// Tasks mapped to `core`, ascending by id.
    pub fn tasks_on(&self, core: CoreId) -> impl Iterator<Item = &TaskSnap> + '_ {
        self.tasks.iter().filter(move |t| t.core == core)
    }

    /// Whether any task is mapped to a core of `cluster`.
    pub fn cluster_has_tasks(&self, cluster: ClusterId) -> bool {
        self.tasks
            .iter()
            .any(|t| self.core(t.core).cluster == cluster)
    }

    /// FNV-1a digest over the full observable state, for tape records.
    /// Stable across platforms and hasher seeds (unlike `DefaultHasher`).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.now.as_micros());
        h.f64(self.chip_power.value());
        match self.hottest {
            Some(c) => {
                h.u64(1);
                h.f64(c.value());
            }
            None => h.u64(0),
        }
        h.u64(self.tasks.len() as u64);
        for t in &self.tasks {
            h.u64(t.id.0 as u64);
            h.u64(t.core.0 as u64);
            h.u64(u64::from(t.priority));
            h.f64(t.share.value());
            h.f64(t.granted.value());
            h.f64(t.pelt_load);
            h.u64(u64::from(t.stalled));
            h.f64(t.heart_rate);
            h.f64(t.target_rate);
            h.f64(t.demand.value());
            h.f64(t.demand_little.value());
            h.f64(t.demand_big.value());
            match t.cost_per_beat {
                Some(c) => {
                    h.u64(1);
                    h.f64(c);
                }
                None => h.u64(0),
            }
            if let Some(o) = t.open_loop {
                h.u64(1);
                h.u64(u64::from(o.queue_depth));
                h.f64(o.p99_ms);
                h.f64(o.slo_ms);
                h.u64(o.shed);
            }
        }
        for c in &self.cores {
            h.f64(c.utilization);
            h.f64(c.supply.value());
        }
        for cl in &self.clusters {
            h.u64(cl.level as u64);
            h.u64(cl.effective_target as u64);
            h.u64(u64::from(cl.off));
            h.f64(cl.supply_per_core.value());
            h.f64(cl.power.value());
        }
        h.finish()
    }
}

/// A value's identity as the digest sees it: floats by bit pattern, so
/// `-0.0` differs from `0.0` and a NaN equals itself.
trait Bits: Copy {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for ProcessingUnits {
    fn bits(self) -> u64 {
        self.0.to_bits()
    }
}

impl Bits for Watts {
    fn bits(self) -> u64 {
        self.0.to_bits()
    }
}

impl Bits for Celsius {
    fn bits(self) -> u64 {
        self.0.to_bits()
    }
}

impl Bits for usize {
    fn bits(self) -> u64 {
        self as u64
    }
}

impl Bits for bool {
    fn bits(self) -> u64 {
        u64::from(self)
    }
}

/// Store `value` in `slot` unless the two are bit-identical; true when it
/// wrote.
fn put<T: Bits>(slot: &mut T, value: T) -> bool {
    let differs = slot.bits() != value.bits();
    if differs {
        *slot = value;
    }
    differs
}

/// Minimal FNV-1a, enough for stable tape digests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::AllocationPolicy;
    use ppm_platform::chip::Chip;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task};

    fn sys_with_tasks(n: usize) -> System {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
        for i in 0..n {
            sys.add_task(
                Task::new(
                    TaskId(i),
                    BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large).expect("variant"),
                    Priority(1),
                ),
                CoreId(i % 3),
            );
        }
        sys
    }

    #[test]
    fn capture_mirrors_system_state() {
        let mut sys = sys_with_tasks(3);
        sys.set_share(TaskId(1), ProcessingUnits(99.0));
        sys.power_off(ClusterId(1));
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);

        assert_eq!(snap.tasks.len(), 3);
        assert_eq!(
            snap.task(TaskId(1)).expect("t1").share,
            ProcessingUnits(99.0)
        );
        assert_eq!(snap.task(TaskId(2)).expect("t2").core, CoreId(2));
        assert!(snap.task(TaskId(7)).is_none());
        assert!(snap.cluster(ClusterId(1)).off);
        assert!(!snap.cluster(ClusterId(0)).off);
        assert_eq!(snap.cores.len(), sys.chip().cores().len());
        assert_eq!(snap.tasks_on(CoreId(0)).count(), 1);
        assert!(snap.cluster_has_tasks(ClusterId(0)));
        assert!(!snap.cluster_has_tasks(ClusterId(1)));
    }

    #[test]
    fn ladder_arithmetic_mirrors_vf_table() {
        let sys = sys_with_tasks(1);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        let cl = snap.cluster(ClusterId(0));
        let table = sys.chip().cluster(ClusterId(0)).table();
        assert_eq!(cl.max_level(), table.max_level().0);
        assert_eq!(
            cl.step_up(),
            table.step_up(sys.chip().cluster(ClusterId(0)).level()).0
        );
        for d in [0.0, 200.0, 349.0, 351.0, 999.0, 1000.0, 5000.0] {
            assert_eq!(
                cl.level_for_demand(ProcessingUnits(d)),
                table.level_for_demand(ProcessingUnits(d)).0,
                "demand {d}"
            );
        }
        assert_eq!(
            cl.supply_up(),
            Some(
                table
                    .point(table.step_up(ppm_platform::vf::VfLevel(0)))
                    .supply()
            )
        );
        assert_eq!(cl.supply_down(), None);
    }

    #[test]
    fn digest_is_sensitive_and_reproducible() {
        let mut sys = sys_with_tasks(2);
        let mut a = SystemSnapshot::new();
        a.capture(&sys);
        let mut b = SystemSnapshot::new();
        b.capture(&sys);
        assert_eq!(a.digest(), b.digest());
        sys.set_share(TaskId(0), ProcessingUnits(1.0));
        b.capture(&sys);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn steady_recapture_skips_the_task_rebuild() {
        let mut sys = sys_with_tasks(3);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        assert_eq!(snap.task_rebuilds(), 1, "first capture always rebuilds");
        let frozen = format!("{:?}", snap.tasks);

        snap.capture(&sys);
        snap.capture(&sys);
        assert_eq!(snap.task_rebuilds(), 1, "identical recaptures are gated");
        assert_eq!(format!("{:?}", snap.tasks), frozen);

        sys.set_share(TaskId(2), ProcessingUnits(17.0));
        snap.capture(&sys);
        assert_eq!(snap.task_rebuilds(), 2, "a task change forces a rebuild");
        assert_eq!(
            snap.task(TaskId(2)).expect("t2").share,
            ProcessingUnits(17.0)
        );

        sys.remove_task(TaskId(0));
        snap.capture(&sys);
        assert_eq!(
            snap.task_rebuilds(),
            3,
            "membership change forces a rebuild"
        );
        assert_eq!(snap.tasks.len(), 2);
    }

    #[test]
    fn trusted_recapture_skips_the_dynamic_refresh() {
        let mut sys = sys_with_tasks(2);
        let mut snap = SystemSnapshot::new();
        snap.capture_gated(&sys, true);
        assert_eq!(
            snap.dynamic_refreshes(),
            1,
            "first capture always refreshes"
        );
        let frozen = format!("{:?} {:?}", snap.cores, snap.clusters);

        snap.capture_gated(&sys, true);
        snap.capture_gated(&sys, true);
        assert_eq!(
            snap.dynamic_refreshes(),
            1,
            "steady trusted recaptures are gated"
        );
        assert_eq!(format!("{:?} {:?}", snap.cores, snap.clusters), frozen);

        sys.power_off(ClusterId(1));
        snap.capture_gated(&sys, true);
        assert_eq!(snap.dynamic_refreshes(), 2, "gating forces a refresh");
        assert!(snap.cluster(ClusterId(1)).off);
    }

    #[test]
    fn recapture_reuses_buffers() {
        let sys = sys_with_tasks(3);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        let tasks_cap = snap.tasks.capacity();
        let d0 = snap.digest();
        snap.capture(&sys);
        assert_eq!(snap.tasks.capacity(), tasks_cap);
        assert_eq!(snap.digest(), d0);
    }
}
