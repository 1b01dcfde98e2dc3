//! The infer stage: shard jobs and the persistent pool that runs them.
//!
//! The assembly stage hands over one [`EpochCtx`] per epoch;
//! [`ShardExecutor::submit`] queues one [`ShardJob`] per shard over it
//! and returns the channel its [`TaskDone`]s arrive on. A job is data —
//! the shard, the epoch, the reply sender — and [`run_job`] is the one
//! function that runs it. Nothing outside this module knows the job
//! format.
//!
//! The pool is a fixed set of workers over per-shard queues:
//!
//! * **Shard-affine, steal on idle** — worker `k` scans its home shards
//!   (`k`, `k + workers`, …) first and steals from the rest only when
//!   its own are empty or claimed, so a shard's engine stays with its
//!   home worker under even load while uneven epochs still spread
//!   across the pool.
//! * **Per-shard serialization and FIFO order** — each shard's jobs run
//!   one at a time, in submission order, whichever workers run them.
//!   That is the property pipelining leans on: epoch `N + 1`'s job for
//!   shard `i` can sit queued while `N` is still running, and shard `i`
//!   starts `N + 1` the moment *its own* `N` finishes — no cross-shard
//!   join barrier between epochs.
//! * **One panic boundary** — [`run_job`] runs the shard's inference
//!   inside `catch_unwind`, resets the shard's engine on a panic and
//!   reports the failure as the shard's result, so a poisoned epoch
//!   never takes a worker down.
//!
//! Plain `Mutex`/`Condvar` signalling, safe Rust only.

use crate::pipeline::{
    Provenance, ShardChaos, ShardFailure, ShardOutcome, StreamConfig, PROVENANCE_SETS_CAP,
};
use crate::shard::Shard;
use flock_core::{CompIdx, Engine, EpochFlowTable, FlockGreedy};
use flock_telemetry::ObservationSet;
use flock_topology::Topology;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One epoch's immutable inputs, shared by every shard job of that
/// epoch. Taken apart (its buffers reclaimed) when the epoch is collected.
pub(crate) struct EpochCtx {
    pub(crate) obs: ObservationSet,
    /// Per shard: ascending indices of the observations it accepts —
    /// computed once on the assembly stage so shard binding is a
    /// replay, not a filter scan.
    pub(crate) accept: Vec<Vec<u32>>,
    /// Each observation's score and ladder offset, plus a snapshot of the
    /// directory's ladder store: every shard engine reads its evidence
    /// keys from here instead of hashing and scoring them again.
    pub(crate) flow_table: EpochFlowTable,
    pub(crate) deadline: Option<Instant>,
    pub(crate) epoch_index: u64,
}

/// One shard job's result, sent back over the epoch's channel.
pub(crate) struct TaskDone {
    pub(crate) shard: usize,
    pub(crate) run: ShardRun,
}

pub(crate) type ShardRun = Result<ShardOutcome, ShardFailure>;

/// One shard's run over one epoch. Field order is drop order: a job
/// dropped unrun at shutdown releases its epoch before its sender.
struct ShardJob {
    shard: usize,
    ectx: Arc<EpochCtx>,
    done: mpsc::Sender<TaskDone>,
}

/// Per-shard persistent inference state.
struct ShardState {
    engine: Option<Engine>,
    /// Previous epoch's hypothesis, as [`flock_core::ComponentSpace`]
    /// ids (stable across engine rebuilds): the seed of the next bind.
    prev: Vec<CompIdx>,
}

/// Immutable context every shard job reads, owned by the pool.
struct TaskCtx {
    topo: Topology,
    cfg: StreamConfig,
    shards: Vec<Shard>,
}

/// One shard's slot: its pending jobs, its state, and a claim flag that
/// serializes execution (the queue can hold the next epoch's job while
/// the current one runs).
struct ShardCell {
    queue: Mutex<VecDeque<ShardJob>>,
    state: Mutex<ShardState>,
    /// Claimed by the worker currently running (or about to run) this
    /// shard's job — per-shard mutual exclusion and FIFO order.
    busy: AtomicBool,
}

struct ExecShared {
    ctx: TaskCtx,
    cells: Vec<ShardCell>,
    stop: AtomicBool,
    /// Wakeup channel for workers: a new job, or a shard freed with
    /// queued work.
    signal: Mutex<()>,
    cond: Condvar,
}

/// Lock, surviving poisoning: [`run_job`] catches every shard panic, so
/// none unwinds through a held lock; a poisoned mutex would still be
/// safe to re-enter (queues hold plain jobs; a shard's state is reset
/// whenever its job panics).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ExecShared {
    /// Try to run one queued job for shard `i`. Returns whether a job ran.
    fn try_run(&self, i: usize) -> bool {
        let cell = &self.cells[i];
        // Claim the shard first: between the claim and the queue pop no
        // other worker can run this shard, so FIFO order holds.
        if cell.busy.swap(true, Ordering::Acquire) {
            return false; // someone else is running this shard
        }
        let job = lock(&cell.queue).pop_front();
        let Some(job) = job else {
            cell.busy.store(false, Ordering::Release);
            return false;
        };
        run_job(&self.ctx, &mut lock(&cell.state), job);
        cell.busy.store(false, Ordering::Release);
        // Wake any worker that should pick up this shard's next queued
        // job (or work we stole from).
        let _g = lock(&self.signal);
        self.cond.notify_all();
        true
    }

    fn has_runnable(&self) -> bool {
        self.cells
            .iter()
            .any(|c| !c.busy.load(Ordering::Acquire) && !lock(&c.queue).is_empty())
    }
}

fn worker_loop(shared: Arc<ExecShared>, worker: usize, pool_size: usize) {
    let n = shared.cells.len();
    loop {
        let mut ran = false;
        // Home shards first (stride partition), then steal the rest.
        let mut i = worker;
        while i < n {
            ran |= shared.try_run(i);
            i += pool_size;
        }
        for i in 0..n {
            if i % pool_size != worker {
                ran |= shared.try_run(i);
            }
        }
        if ran {
            continue;
        }
        let guard = lock(&shared.signal);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        if shared.has_runnable() {
            continue; // raced a submit between scan and lock
        }
        // Timeout is robustness against a lost wakeup, not the schedule.
        let _ = shared
            .cond
            .wait_timeout(guard, Duration::from_millis(50))
            .unwrap_or_else(|e| e.into_inner());
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// A fixed pool of workers running shard jobs against per-shard state,
/// with per-shard FIFO serialization and idle-time stealing. See the
/// module docs for the scheduling contract.
pub(crate) struct ShardExecutor {
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardExecutor {
    /// Build a pool over one cold state per shard. `workers == 0` sizes
    /// the pool to `min(available_parallelism, shards)`; any other value
    /// (unit tests pin 1 or 2) is taken as-is, capped at the shard count
    /// — extra workers could never find work.
    pub(crate) fn new(
        topo: &Topology,
        cfg: &StreamConfig,
        shards: &[Shard],
        workers: usize,
    ) -> Self {
        let n_shards = shards.len().max(1);
        let pool_size = if workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(n_shards)
        } else {
            workers.min(n_shards)
        }
        .max(1);
        let shared = Arc::new(ExecShared {
            ctx: TaskCtx {
                topo: topo.clone(),
                cfg: cfg.clone(),
                shards: shards.to_vec(),
            },
            cells: shards
                .iter()
                .map(|_| ShardCell {
                    queue: Mutex::new(VecDeque::new()),
                    state: Mutex::new(ShardState {
                        engine: None,
                        prev: Vec::new(),
                    }),
                    busy: AtomicBool::new(false),
                })
                .collect(),
            stop: AtomicBool::new(false),
            signal: Mutex::new(()),
            cond: Condvar::new(),
        });
        let workers = (0..pool_size)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flock-shard-{k}"))
                    .spawn(move || worker_loop(shared, k, pool_size))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardExecutor { shared, workers }
    }

    /// Queue one job per shard over `ectx` and return the channel their
    /// [`TaskDone`]s arrive on. Jobs for one shard run serialized, in
    /// submission order; jobs for different shards run concurrently.
    pub(crate) fn submit(&self, ectx: &Arc<EpochCtx>) -> mpsc::Receiver<TaskDone> {
        let (tx, rx) = mpsc::channel();
        for (shard, cell) in self.shared.cells.iter().enumerate() {
            let job = ShardJob {
                shard,
                ectx: Arc::clone(ectx),
                done: tx.clone(),
            };
            // Push under the cell lock, notify under the signal lock —
            // never both at once (workers take signal → cell; taking
            // cell → signal here would be an ABBA deadlock).
            lock(&cell.queue).push_back(job);
            let _g = lock(&self.shared.signal);
            self.shared.cond.notify_all();
        }
        rx
    }
}

impl Drop for ShardExecutor {
    /// Shutdown: workers stop at the next idle scan; jobs still queued
    /// are dropped unrun (their `TaskDone` senders drop with them, which
    /// is how a collecting caller learns the epoch died). The running
    /// job, if any, completes first — state is never torn mid-job.
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        {
            let _g = lock(&self.shared.signal);
            self.shared.cond.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Run one shard job: [`run_shard`] inside the shard path's only
/// `catch_unwind`, so a panicking shard degrades its own slice of the
/// verdict instead of taking the epoch with it. The failed shard's state
/// resets to a valid initial state: no engine (a half-bound one may hold
/// a partially extended epoch); `prev` is kept — component ids survive
/// the rebuild, so the recovered shard re-seeds its warm search from its
/// last good hypothesis (a seed without evidence in the epoch moves no
/// count, and the warm search removes it). The job releases its epoch
/// *before* reporting, so once the collector holds every report it holds
/// the epoch's only handle.
fn run_job(tctx: &TaskCtx, state: &mut ShardState, job: ShardJob) {
    let ShardJob { shard, ectx, done } = job;
    let run = catch_unwind(AssertUnwindSafe(|| run_shard(tctx, shard, state, &ectx))).map_err(
        |payload| {
            state.engine = None;
            ShardFailure {
                shard: tctx.shards[shard].label.clone(),
                panic_message: panic_message(payload.as_ref()),
            }
        },
    );
    drop(ectx);
    let _ = done.send(TaskDone { shard, run });
}

/// Localize one epoch on one shard: bind the shard's persistent engine
/// (made on first use) to the epoch's accepted observations (the accept
/// list computed on the assembly stage) *at* the shard's previous
/// verdict, reading the epoch's flow table, continue the warm search
/// from there, and report what the shard owns of the result. The seed
/// and every reported component are [`flock_core::ComponentSpace`] ids —
/// stable across engine rebuilds, and what the merge speaks. Runs on a
/// pool worker, inside [`run_job`].
///
/// # Panics
/// If the engine refuses the epoch's arena. The pipeline has one
/// assembler — one lineage, snapshots that only grow — so a
/// [`flock_core::BindError`] here is a pipeline bug, contained by
/// [`run_job`] like any other shard panic.
fn run_shard(tctx: &TaskCtx, idx: usize, state: &mut ShardState, ectx: &EpochCtx) -> ShardOutcome {
    let started = Instant::now();
    let (topo, cfg, obs) = (&tctx.topo, &tctx.cfg, &ectx.obs);
    let shard = &tctx.shards[idx];
    let epoch_index = ectx.epoch_index;
    if let Some(chaos) = &cfg.chaos {
        match chaos.call(&shard.label, epoch_index) {
            Some(ShardChaos::Panic) => panic!(
                "chaos: injected panic in shard `{}` (epoch {epoch_index})",
                shard.label
            ),
            Some(ShardChaos::Stall(d)) => chaos_stall(d, ectx.deadline),
            None => {}
        }
    }
    let warm = state.engine.is_some();
    let rebind_started = Instant::now();
    let engine = state
        .engine
        .get_or_insert_with(|| Engine::unbound(topo, cfg.params));
    if let Err(e) = engine.try_bind(topo, obs, &ectx.accept[idx], &ectx.flow_table, &state.prev) {
        panic!("shard `{}` cannot bind the epoch: {e}", shard.label);
    }
    let search_started = Instant::now();
    let rebind = search_started - rebind_started;

    // The bind entered the seed; the search only has to move on from it.
    let search = FlockGreedy::new(cfg.params).search_warm_deadline(engine, &[], ectx.deadline);
    let search_time = search_started.elapsed();
    let kept: Vec<(CompIdx, f64)> = search
        .picked
        .iter()
        .copied()
        .filter(|&(c, _)| shard.owns(c))
        .collect();
    let provenance = collect_provenance(engine, &shard.label, &kept);
    let outcome = ShardOutcome {
        label: shard.label.clone(),
        kind: shard.kind,
        kept: kept.len(),
        flows: engine.n_flows(),
        raw_flows: engine.n_observations(),
        warm,
        hypotheses_scanned: search.scanned,
        log_likelihood: engine.log_likelihood(),
        state: engine.state_sizes(),
        elapsed: started.elapsed(),
        rebind,
        search: search_time,
        timed_out: search.timed_out,
        provenance,
    };
    // A deadline-truncated hypothesis still seeds the next epoch: every
    // pick in it improved the posterior, and the warm search removes
    // seeds that stop paying.
    state.prev = search.picked.iter().map(|&(c, _)| c).collect();
    outcome
}

/// Stringify a caught panic payload (panics raised by `panic!` carry a
/// `&str` or `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sleep for an injected stall, clamped to the epoch deadline when one
/// is set — a stalled shard then surfaces as a deadline truncation (the
/// degraded-mode contract) instead of holding the epoch hostage for the
/// stall's full length.
fn chaos_stall(stall: Duration, deadline: Option<Instant>) {
    let now = Instant::now();
    let mut until = now + stall;
    if let Some(dl) = deadline {
        until = until.min(dl);
    }
    if let Some(left) = until.checked_duration_since(now) {
        if !left.is_zero() {
            std::thread::sleep(left);
        }
    }
}

/// Capture [`Provenance`] for each kept component (in `kept` order) from
/// the engine that convicted them.
fn collect_provenance(
    engine: &Engine,
    shard_label: &str,
    kept: &[(CompIdx, f64)],
) -> Vec<Provenance> {
    kept.iter()
        .map(|&(c, score)| {
            let ev = engine.convicting_evidence(c);
            Provenance {
                component: engine.component(c),
                shard: shard_label.to_string(),
                score,
                super_flows: ev.super_flows as u32,
                raw_weight: ev.weight,
                sets: ev
                    .sets
                    .iter()
                    .take(PROVENANCE_SETS_CAP)
                    .map(|&(set, _)| set.0)
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ChaosHook;
    use crate::shard::ShardPlan;
    use flock_core::TermDirectory;
    use flock_telemetry::Assembler;
    use flock_topology::clos::{three_tier, ClosParams};
    use flock_topology::Router;

    /// Two pods: shards `pod0`, `pod1`, `spine`, in that order.
    fn pods2() -> Topology {
        three_tier(ClosParams {
            pods: 2,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        })
    }

    fn pool(topo: &Topology, chaos: Option<ChaosHook>, workers: usize) -> ShardExecutor {
        let cfg = StreamConfig {
            shard_by_pod: true,
            chaos,
            ..StreamConfig::paper_default()
        };
        ShardExecutor::new(topo, &cfg, &ShardPlan::by_pod(topo).shards, workers)
    }

    /// An epoch without records: every shard binds an empty accept list.
    fn empty_epoch(topo: &Topology, n_shards: usize) -> Arc<EpochCtx> {
        let cfg = StreamConfig::paper_default();
        let obs = Assembler::new().assemble(topo, &Router::new(topo), &[], &cfg.kinds, cfg.mode);
        let mut flow_table = EpochFlowTable::new();
        flow_table.rebuild(&mut TermDirectory::new(&cfg.params), &obs);
        Arc::new(EpochCtx {
            obs,
            accept: vec![Vec::new(); n_shards],
            flow_table,
            deadline: None,
            epoch_index: 0,
        })
    }

    /// Two workers over three shards: `pod0` and `spine` share worker 0
    /// as their home, `pod1` is worker 1's. Stalling both of worker 0's
    /// shards, the idle worker 1 must run `pod1` and then steal one of
    /// them, so the two stalls overlap instead of running back to back.
    #[test]
    fn idle_worker_steals_from_a_stalled_home() {
        const STALL: Duration = Duration::from_millis(200);
        let topo = pods2();
        let chaos =
            ChaosHook::new(|label: &str, _| (label != "pod1").then_some(ShardChaos::Stall(STALL)));
        let exec = pool(&topo, Some(chaos), 2);
        let started = Instant::now();
        let rx = exec.submit(&empty_epoch(&topo, 3));
        let first = rx.recv().unwrap();
        assert_eq!(first.shard, 1, "the unstalled shard reports first");
        assert!(started.elapsed() < STALL, "pod1 waited for a stall");
        for _ in 0..2 {
            assert!(rx.recv().unwrap().run.is_ok());
        }
        let took = started.elapsed();
        assert!(
            took < STALL * 3 / 2,
            "the stalls ran back to back ({took:?}): nobody stole"
        );
    }

    #[test]
    fn pool_size_is_capped_at_the_shard_count_and_never_zero() {
        let topo = pods2();
        let auto = pool(&topo, None, 0);
        assert!((1..=3).contains(&auto.workers.len()));
        assert_eq!(pool(&topo, None, 64).workers.len(), 3);
        assert_eq!(pool(&topo, None, 1).workers.len(), 1);
        let single = ShardPlan::single(&topo).shards;
        let one = ShardExecutor::new(&topo, &StreamConfig::paper_default(), &single, 0);
        assert_eq!(one.workers.len(), 1);
    }
}
