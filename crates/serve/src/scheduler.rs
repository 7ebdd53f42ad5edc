//! The multi-query scheduler: a bounded pool of worker threads behind a
//! two-class (high/normal) FIFO queue.
//!
//! Each worker owns its own simulator: it builds a fresh
//! [`ExecContext`] per query over the shared `Arc<TpchDb>`, so a
//! query's simulated cycle count is a pure function of the request —
//! never of which worker ran it, what ran before it, or how many
//! workers exist. That is the scheduler's determinism contract
//! (`tests/determinism.rs` pins it): concurrency changes wall-clock
//! latencies only.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::PlanCache;
use crate::report::BatchReport;
use crate::request::{KernelRows, Priority, QueryRequest, QueryResponse, QueryResult, ServeError};
use crate::telemetry::BreakerTransition;
use gpl_core::shard::{try_run_query_sharded, DevicePool, ShardFaults, ShardPlan};
use gpl_core::{try_run_query_recovering, ExecContext, ExecError, ExecLimits, RecoveryPolicy};
use gpl_model::GammaTable;
use gpl_obs::Recorder;
use gpl_sim::{DeviceSpec, FaultPlan, FaultSpec};
use gpl_tpch::TpchDb;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Seeded fault injection for every query the server runs. The
/// per-query plan seed is `seed ^ (id * φ64)`, so a query's fault
/// schedule is a pure function of (config seed, request id) —
/// independent of worker count and arrival order, like every other
/// deterministic per-query fact.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    pub seed: u64,
    pub spec: FaultSpec,
}

/// Per-query fault-plan seed: splitmix-style id mixing keeps nearby ids'
/// PCG streams uncorrelated.
pub(crate) fn per_query_seed(seed: u64, id: u64) -> u64 {
    seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Multi-device serving: run every query sharded across a heterogeneous
/// [`DevicePool`] instead of on the single worker device. The placement
/// pass (cached with the plan) picks CPU vs GPU per stage; shards
/// round-robin over live devices of the chosen class.
#[derive(Debug, Clone)]
pub struct ShardServeConfig {
    pub pool: DevicePool,
    /// One calibrated Γ table per pool device, in pool order.
    pub gammas: Vec<GammaTable>,
    /// Shard count + sharder, applied to every query.
    pub plan: ShardPlan,
    /// Straggler hedging: shards observed past `modeled × threshold`
    /// cycles get a speculative backup on the modeled-cheapest other
    /// live device (the modeled costs come from the cached placement).
    /// Per-query cycle budgets ([`QueryRequest::max_cycles`]) gate the
    /// duplicate launch. `None` disables hedging.
    pub hedge_threshold: Option<f64>,
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one simulator at a time).
    pub workers: usize,
    /// [`PlanCache`] capacity in entries.
    pub plan_cache_capacity: usize,
    /// Attach a per-query recorder and ship its dump in the response
    /// (merged into a multi-track trace by the batch report).
    pub record_traces: bool,
    /// Load shedding: reject submissions once the admission queue holds
    /// this many jobs ([`ExecError::Rejected`]). `None` = unbounded.
    pub max_queue_depth: Option<usize>,
    /// Inject seeded faults into every query's simulator.
    pub faults: Option<FaultConfig>,
    /// Recovery stack applied to every query (retries / degradation /
    /// last-resort KBE). `None` = first fault surfaces as an error.
    pub recovery: Option<RecoveryPolicy>,
    /// Per-worker circuit breaker over device faults. Under
    /// [`ServeConfig::sharding`] the same config instead seeds one
    /// breaker *per pool device* per worker; a tripped device is
    /// excluded from that worker's next sharded runs until it cools
    /// down.
    pub breaker: Option<BreakerConfig>,
    /// Run queries sharded over a heterogeneous device pool. `None`
    /// (the default) keeps the classic single-device path — and its
    /// pinned fingerprints — untouched.
    pub sharding: Option<ShardServeConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            plan_cache_capacity: 64,
            record_traces: false,
            max_queue_depth: None,
            faults: None,
            recovery: None,
            breaker: None,
            sharding: None,
        }
    }
}

struct Job {
    req: QueryRequest,
    submitted: Instant,
}

struct Queue {
    high: VecDeque<Job>,
    normal: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    spec: DeviceSpec,
    db: Arc<TpchDb>,
    gamma: Arc<GammaTable>,
    plans: Arc<PlanCache>,
    queue: Mutex<Queue>,
    available: Condvar,
    record_traces: bool,
    faults: Option<FaultConfig>,
    recovery: Option<RecoveryPolicy>,
    breaker: Option<BreakerConfig>,
    sharding: Option<ShardServeConfig>,
    /// `serve.queued/running/done` gauge backing (snapshot into the
    /// metrics registry by [`BatchReport::metrics`]).
    queued: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    /// Requests rejected by load shedding / an open breaker (the
    /// response stream carries the structured errors; these are the
    /// cheap aggregate gauges).
    sheds: AtomicU64,
    breaker_rejections: AtomicU64,
    breaker_opens: AtomicU64,
    /// Cumulative wall-clock nanoseconds workers spent processing jobs
    /// (the wall-clock plane: non-deterministic, never fingerprinted —
    /// the denominator for worker-utilization telemetry).
    busy_wall_ns: AtomicU64,
    /// Breaker state changes across all workers, each stamped with the
    /// owning worker's device clock (telemetry; fully deterministic with
    /// one worker).
    breaker_transitions: Mutex<Vec<BreakerTransition>>,
}

/// The query server: owns the worker pool, the admission queue and the
/// shared [`PlanCache`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    max_queue_depth: Option<usize>,
    /// Producer side of the response stream, for responses that never
    /// reach a worker (shed at admission, drained at shutdown).
    tx: Sender<QueryResponse>,
    results: Mutex<Receiver<QueryResponse>>,
}

/// A response manufactured outside any worker (shed / drained).
fn synthetic_response(req: QueryRequest, err: ExecError) -> QueryResponse {
    QueryResponse {
        id: req.id,
        mode: req.mode,
        result: Err(ServeError::Exec(err)),
        plan_cache_hit: false,
        plan_wall: Default::default(),
        queue_wall: Default::default(),
        exec_wall: Default::default(),
        worker: usize::MAX,
        trace: None,
        recovery: Default::default(),
    }
}

impl Server {
    /// Start `config.workers` workers over a shared database and
    /// calibrated Γ table.
    pub fn start(
        config: ServeConfig,
        spec: DeviceSpec,
        db: Arc<TpchDb>,
        gamma: Arc<GammaTable>,
    ) -> Self {
        if let Some(sc) = &config.sharding {
            assert_eq!(
                sc.gammas.len(),
                sc.pool.len(),
                "one gamma table per pool device"
            );
        }
        let shared = Arc::new(Shared {
            spec,
            db,
            gamma,
            plans: Arc::new(PlanCache::new(config.plan_cache_capacity)),
            queue: Mutex::new(Queue {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            record_traces: config.record_traces,
            faults: config.faults,
            recovery: config.recovery,
            breaker: config.breaker,
            sharding: config.sharding,
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            breaker_rejections: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            busy_wall_ns: AtomicU64::new(0),
            breaker_transitions: Mutex::new(Vec::new()),
        });
        let (tx, rx) = channel();
        let workers = (0..config.workers.max(1))
            .map(|idx| {
                let shared = shared.clone();
                let tx: Sender<QueryResponse> = tx.clone();
                std::thread::Builder::new()
                    .name(format!("gpl-serve-{idx}"))
                    .spawn(move || worker_loop(idx, &shared, &tx))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            workers,
            max_queue_depth: config.max_queue_depth,
            tx,
            results: Mutex::new(rx),
        }
    }

    /// The shared plan cache (for stats and tests).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.plans
    }

    /// Current `(queued, running, done)` gauge values.
    pub fn gauges(&self) -> (u64, u64, u64) {
        (
            self.shared.queued.load(Ordering::Relaxed),
            self.shared.running.load(Ordering::Relaxed),
            self.shared.done.load(Ordering::Relaxed),
        )
    }

    /// Enqueue one request.
    pub fn submit(&self, req: QueryRequest) {
        self.submit_all(std::iter::once(req));
    }

    /// Enqueue a batch atomically: the queue lock is held across every
    /// push, so no worker observes a partially-admitted batch. With one
    /// worker this makes the *execution order* of a batch fully
    /// deterministic: all high-priority requests in submit order, then
    /// all normal ones.
    ///
    /// Load shedding happens here, under the same lock: once the queue
    /// holds [`ServeConfig::max_queue_depth`] jobs, further requests are
    /// answered immediately with [`ExecError::Rejected`] instead of
    /// queueing unboundedly. A shed response still arrives on the
    /// response stream, so `collect(n)` accounts for every submission.
    pub fn submit_all(&self, reqs: impl IntoIterator<Item = QueryRequest>) {
        let mut n = 0u64;
        let mut sheds = 0u64;
        {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            for req in reqs {
                let depth = q.high.len() + q.normal.len();
                if let Some(bound) = self.max_queue_depth {
                    if depth >= bound {
                        sheds += 1;
                        let resp = synthetic_response(
                            req,
                            ExecError::Rejected {
                                queue_depth: depth as u64,
                                bound: bound as u64,
                            },
                        );
                        let _ = self.tx.send(resp);
                        continue;
                    }
                }
                let job = Job {
                    req,
                    submitted: Instant::now(),
                };
                match job.req.priority {
                    Priority::High => q.high.push_back(job),
                    Priority::Normal => q.normal.push_back(job),
                }
                n += 1;
            }
        }
        self.shared.queued.fetch_add(n, Ordering::Relaxed);
        self.shared.sheds.fetch_add(sheds, Ordering::Relaxed);
        self.shared.available.notify_all();
    }

    /// Collect `n` responses, blocking until all have arrived. Responses
    /// arrive in completion order (worker-count dependent).
    pub fn collect(&self, n: usize) -> Vec<QueryResponse> {
        let rx = self.results.lock().expect("results poisoned");
        (0..n)
            .map(|_| rx.recv().expect("worker pool alive"))
            .collect()
    }

    /// Submit a batch, wait for every response, and return them sorted
    /// by request id — the deterministic view of a workload.
    pub fn run_batch(&self, reqs: Vec<QueryRequest>) -> Vec<QueryResponse> {
        let n = reqs.len();
        self.submit_all(reqs);
        let mut responses = self.collect(n);
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// [`Server::run_batch`] wrapped into a [`BatchReport`] with
    /// throughput/latency aggregates and cache statistics.
    pub fn run_batch_report(&self, reqs: Vec<QueryRequest>) -> BatchReport {
        let workers = self.workers.len();
        let t0 = Instant::now();
        let responses = self.run_batch(reqs);
        BatchReport {
            responses,
            workers,
            wall: t0.elapsed(),
            plan_cache: self.shared.plans.stats(),
            search_cache: self.shared.plans.search_stats(),
            sheds: self.shed_count(),
            breaker: self.breaker_counts(),
            breaker_transitions: self.breaker_transitions(),
            busy_wall: self.busy_wall(),
        }
    }

    /// Cumulative wall-clock time workers have spent processing jobs
    /// (across all workers, so it can exceed elapsed wall time).
    /// Wall-clock plane: host-dependent, never part of a fingerprint.
    pub fn busy_wall(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.shared.busy_wall_ns.load(Ordering::Relaxed))
    }

    /// Requests rejected so far by load shedding.
    pub fn shed_count(&self) -> u64 {
        self.shared.sheds.load(Ordering::Relaxed)
    }

    /// `(rejections, opens)` across every worker's circuit breaker.
    pub fn breaker_counts(&self) -> (u64, u64) {
        (
            self.shared.breaker_rejections.load(Ordering::Relaxed),
            self.shared.breaker_opens.load(Ordering::Relaxed),
        )
    }

    /// Every breaker state change so far, sorted by (device cycle,
    /// worker) for a stable view.
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        let mut v = self
            .shared
            .breaker_transitions
            .lock()
            .expect("transitions poisoned")
            .clone();
        v.sort_by_key(|t| (t.cycle, t.worker));
        v
    }

    /// Stop accepting work, cancel whatever is still queued, join every
    /// worker, and return *all* outstanding responses — completed ones
    /// still buffered in the response stream plus a structured
    /// [`ExecError::Cancelled`] response for each drained job — sorted
    /// by id. Callers who submitted more than they collected therefore
    /// get an answer for every request instead of a hang.
    pub fn shutdown(mut self) -> Vec<QueryResponse> {
        let drained = self.shutdown_inner();
        let mut responses: Vec<QueryResponse> = drained
            .into_iter()
            .map(|job| synthetic_response(job.req, ExecError::Cancelled))
            .collect();
        {
            let rx = self.results.lock().expect("results poisoned");
            responses.extend(rx.try_iter());
        }
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// Flip the shutdown flag and drain the queue *atomically* (one lock
    /// scope): a worker either popped a job before this ran, or finds an
    /// empty queue with the flag set and exits — no job is both drained
    /// here and executed there.
    fn shutdown_inner(&mut self) -> Vec<Job> {
        let drained: Vec<Job> = {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            q.shutdown = true;
            let mut d: Vec<Job> = q.high.drain(..).collect();
            d.extend(q.normal.drain(..));
            d
        };
        self.shared
            .queued
            .fetch_sub(drained.len() as u64, Ordering::Relaxed);
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        drained
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(idx: usize, shared: &Shared, tx: &Sender<QueryResponse>) {
    // The worker's circuit breaker and its device clock: the sum of
    // simulated cycles this worker's device has executed (plus reject
    // costs), driving the breaker's deterministic cool-down timer.
    // Under sharding the single breaker is replaced by one breaker and
    // one clock *per pool device*: a tripped device is excluded from
    // this worker's next sharded runs while it cools down, instead of
    // rejecting whole queries.
    let mut breaker = if shared.sharding.is_none() {
        shared.breaker.clone().map(CircuitBreaker::new)
    } else {
        None
    };
    let mut device_cycles = 0u64;
    let mut device_breakers: Option<Vec<CircuitBreaker>> = match (&shared.sharding, &shared.breaker)
    {
        (Some(sc), Some(cfg)) => Some(
            (0..sc.pool.len())
                .map(|_| CircuitBreaker::new(cfg.clone()))
                .collect(),
        ),
        _ => None,
    };
    let mut device_clocks: Vec<u64> = shared
        .sharding
        .as_ref()
        .map(|sc| vec![0; sc.pool.len()])
        .unwrap_or_default();
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = q.high.pop_front().or_else(|| q.normal.pop_front()) {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).expect("queue poisoned");
            }
        };
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        shared.running.fetch_add(1, Ordering::Relaxed);
        let busy_t0 = Instant::now();
        let resp = answer(idx, job, |job| {
            if let Some(sc) = &shared.sharding {
                run_sharded_job(
                    idx,
                    shared,
                    sc,
                    job,
                    device_breakers.as_mut(),
                    &mut device_clocks,
                )
            } else {
                let admitted = match breaker.as_mut() {
                    Some(b) => {
                        let before = b.state();
                        let admitted = b.admit(device_cycles);
                        record_transition(shared, idx, None, device_cycles, before, b.state());
                        admitted
                    }
                    None => true,
                };
                if !admitted {
                    let cfg = shared.breaker.as_ref().expect("breaker configured");
                    device_cycles += cfg.reject_cost_cycles;
                    shared.breaker_rejections.fetch_add(1, Ordering::Relaxed);
                    synthetic_response_on(idx, job, ServeError::CircuitOpen)
                } else {
                    let (resp, spent) = process(idx, shared, job);
                    device_cycles += spent;
                    if let Some(b) = breaker.as_mut() {
                        let opens_before = b.stats().opens;
                        let before = b.state();
                        match &resp.result {
                            Err(ServeError::Exec(e)) if e.is_device_fault() => {
                                b.on_fault(device_cycles)
                            }
                            Err(_) => {} // query problem: no breaker signal
                            Ok(_) => b.on_success(),
                        }
                        record_transition(shared, idx, None, device_cycles, before, b.state());
                        shared
                            .breaker_opens
                            .fetch_add(b.stats().opens - opens_before, Ordering::Relaxed);
                    }
                    resp
                }
            }
        });
        shared
            .busy_wall_ns
            .fetch_add(busy_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared.done.fetch_add(1, Ordering::Relaxed);
        if tx.send(resp).is_err() {
            // Server dropped the receiver; nothing left to report to.
            return;
        }
    }
}

/// Answer `job` with `run`'s response — or, when `run` panics, with
/// [`ServeError::Internal`] carrying the panic message. Either way the
/// job is answered exactly once and the worker survives to serve the
/// next one.
fn answer(idx: usize, job: Job, run: impl FnOnce(Job) -> QueryResponse) -> QueryResponse {
    let (id, mode, submitted) = (job.req.id, job.req.mode, job.submitted);
    catch_unwind(AssertUnwindSafe(|| run(job))).unwrap_or_else(|payload| {
        let msg = match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or("non-string panic payload", |s| s)
                .to_string(),
        };
        let job = Job {
            req: QueryRequest::new(id, String::new(), mode),
            submitted,
        };
        synthetic_response_on(idx, job, ServeError::Internal { msg })
    })
}

/// What one sharded query did on one pool device, as seen by that
/// device's breaker.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceOutcome {
    cycles: u64,
    lost: bool,
    /// Whether the device participated (breakers only hear from devices
    /// that actually ran or died; an idle device's streak is untouched).
    ran: bool,
}

/// One sharded job end to end: per-device breaker admission (a tripped
/// device is excluded, the query only rejects when *every* device is
/// open), execution across the pool, and per-device breaker feedback
/// from each device's outcome.
fn run_sharded_job(
    idx: usize,
    shared: &Shared,
    sc: &ShardServeConfig,
    job: Job,
    mut breakers: Option<&mut Vec<CircuitBreaker>>,
    clocks: &mut [u64],
) -> QueryResponse {
    let excluded: Option<Vec<bool>> = breakers.as_deref_mut().map(|bs| {
        bs.iter_mut()
            .enumerate()
            .map(|(d, b)| {
                let before = b.state();
                let ok = b.admit(clocks[d]);
                record_transition(shared, idx, Some(d), clocks[d], before, b.state());
                !ok
            })
            .collect()
    });
    if excluded.as_ref().is_some_and(|e| e.iter().all(|&x| x)) {
        let cfg = shared.breaker.as_ref().expect("breaker configured");
        for c in clocks.iter_mut() {
            *c += cfg.reject_cost_cycles;
        }
        shared.breaker_rejections.fetch_add(1, Ordering::Relaxed);
        return synthetic_response_on(idx, job, ServeError::CircuitOpen);
    }
    let (resp, outcomes) = process_sharded(idx, shared, sc, job, excluded.as_deref());
    if let Some(bs) = breakers {
        for (d, b) in bs.iter_mut().enumerate() {
            clocks[d] += outcomes[d].cycles;
            if !outcomes[d].ran {
                continue;
            }
            let opens_before = b.stats().opens;
            let before = b.state();
            if outcomes[d].lost {
                b.on_fault(clocks[d]);
            } else {
                b.on_success();
            }
            record_transition(shared, idx, Some(d), clocks[d], before, b.state());
            shared
                .breaker_opens
                .fetch_add(b.stats().opens - opens_before, Ordering::Relaxed);
        }
    } else {
        for (d, o) in outcomes.iter().enumerate() {
            clocks[d] += o.cycles;
        }
    }
    resp
}

/// Log one breaker state change (no-op when the state did not move).
fn record_transition(
    shared: &Shared,
    worker: usize,
    device: Option<usize>,
    cycle: u64,
    from: crate::breaker::BreakerState,
    to: crate::breaker::BreakerState,
) {
    if from != to {
        shared
            .breaker_transitions
            .lock()
            .expect("transitions poisoned")
            .push(BreakerTransition {
                worker,
                device,
                cycle,
                from,
                to,
            });
    }
}

/// A breaker rejection, attributed to the worker whose breaker is open.
fn synthetic_response_on(idx: usize, job: Job, err: ServeError) -> QueryResponse {
    QueryResponse {
        id: job.req.id,
        mode: job.req.mode,
        result: Err(err),
        plan_cache_hit: false,
        plan_wall: Default::default(),
        queue_wall: job.submitted.elapsed(),
        exec_wall: Default::default(),
        worker: idx,
        trace: None,
        recovery: Default::default(),
    }
}

/// Run one job; returns the response plus the simulated device cycles
/// the attempt consumed (successful or not — wasted cycles count toward
/// the worker's device clock).
fn process(idx: usize, shared: &Shared, job: Job) -> (QueryResponse, u64) {
    let queue_wall = job.submitted.elapsed();
    let req = job.req;
    let plan_t0 = Instant::now();
    let planned =
        shared
            .plans
            .get_or_plan(&shared.db, &shared.spec, &shared.gamma, &req.sql, req.mode);
    let plan_wall = plan_t0.elapsed();
    let (entry, hit) = match planned {
        Ok(v) => v,
        Err(msg) => {
            return (
                QueryResponse {
                    id: req.id,
                    mode: req.mode,
                    result: Err(ServeError::Plan(msg)),
                    plan_cache_hit: false,
                    plan_wall,
                    queue_wall,
                    exec_wall: Default::default(),
                    worker: idx,
                    trace: None,
                    recovery: Default::default(),
                },
                0,
            )
        }
    };
    // A fresh context per query: fresh simulator clock, cold data cache,
    // private memory map — the isolation that makes cycles per-query
    // pure. Layout installation is cheap (region bookkeeping, no copy).
    let exec_t0 = Instant::now();
    let mut ctx = ExecContext::with_shared(shared.spec.clone(), shared.db.clone());
    let rec = shared.record_traces.then(Recorder::new);
    if let Some(r) = &rec {
        ctx.sim.attach_recorder(r.clone());
    }
    if let Some(fc) = &shared.faults {
        // Seeded per query id, not per worker: the fault schedule a
        // query sees is part of its deterministic identity.
        ctx.sim.attach_faults(FaultPlan::new(
            fc.spec.clone(),
            per_query_seed(fc.seed, req.id),
        ));
    }
    let limits = ExecLimits {
        max_cycles: req.max_cycles,
        cancel: req.cancel.clone(),
    };
    let mut recovery = Default::default();
    let result = try_run_query_recovering(
        &mut ctx,
        &entry.plan,
        req.mode,
        &entry.config,
        &limits,
        shared.recovery.as_ref(),
    )
    .map(|run| {
        recovery = run.recovery;
        // The observed-λ plane, as served: per-kernel row flow keyed by
        // the shared lowered-IR kernel names, in stage launch order.
        let kernel_rows = run
            .per_stage
            .iter()
            .flat_map(|s| s.kernels.iter())
            .map(|k| KernelRows {
                name: k.name.to_string(),
                rows_in: k.rows_in,
                rows_out: k.rows_out,
            })
            .collect();
        QueryResult {
            output: run.output,
            cycles: run.cycles,
            kernel_rows,
        }
    })
    .map_err(ServeError::Exec);
    let spent = ctx.sim.clock();
    (
        QueryResponse {
            id: req.id,
            mode: req.mode,
            result,
            plan_cache_hit: hit,
            plan_wall,
            queue_wall,
            exec_wall: exec_t0.elapsed(),
            worker: idx,
            trace: rec.map(|r| r.dump()),
            recovery,
        },
        spent,
    )
}

/// Run one job across the device pool; returns the response plus each
/// pool device's outcome (cycles it advanced, whether it was lost) for
/// the caller's per-device breakers.
///
/// `record_traces` applies to the single-device path only: a sharded
/// run builds one internal simulator per pool device and per-query
/// tracing is not threaded through them.
fn process_sharded(
    idx: usize,
    shared: &Shared,
    sc: &ShardServeConfig,
    job: Job,
    excluded: Option<&[bool]>,
) -> (QueryResponse, Vec<DeviceOutcome>) {
    let queue_wall = job.submitted.elapsed();
    let req = job.req;
    let plan_t0 = Instant::now();
    let planned = shared.plans.get_or_place(
        &shared.db, &sc.pool, &sc.gammas, &req.sql, req.mode, &sc.plan,
    );
    let plan_wall = plan_t0.elapsed();
    let mut outcomes = vec![DeviceOutcome::default(); sc.pool.len()];
    let (entry, hit) = match planned {
        Ok(v) => v,
        Err(msg) => {
            return (
                QueryResponse {
                    id: req.id,
                    mode: req.mode,
                    result: Err(ServeError::Plan(msg)),
                    plan_cache_hit: false,
                    plan_wall,
                    queue_wall,
                    exec_wall: Default::default(),
                    worker: idx,
                    trace: None,
                    recovery: Default::default(),
                },
                outcomes,
            )
        }
    };
    let exec_t0 = Instant::now();
    // Same per-query fault identity as the single-device path; the
    // sharded runner further mixes the pool index in, so each device
    // draws an independent but reproducible fault stream.
    let faults = shared.faults.as_ref().map(|fc| ShardFaults {
        spec: fc.spec.clone(),
        seed: per_query_seed(fc.seed, req.id),
    });
    let limits = ExecLimits {
        max_cycles: req.max_cycles,
        cancel: req.cancel.clone(),
    };
    // Straggler defense: the cached placement already scored every
    // stage on every device, so the hedge plan is a free projection of
    // it. The query's own cycle budget rides in via `limits`.
    let hedge = sc
        .hedge_threshold
        .map(|t| gpl_model::hedge_plan(&entry.placement, t));
    let mut recovery = Default::default();
    let result = try_run_query_sharded(
        &sc.pool,
        &shared.db,
        &entry.plan,
        req.mode,
        &sc.plan,
        &entry.placement.assignment,
        &limits,
        shared.recovery.as_ref(),
        faults.as_ref(),
        hedge.as_ref(),
        excluded,
    )
    .map(|run| {
        recovery = run.recovery.clone();
        for (d, dr) in run.per_device.iter().enumerate() {
            outcomes[d] = DeviceOutcome {
                cycles: dr.cycles,
                lost: dr.lost,
                ran: dr.cycles > 0 || dr.lost,
            };
        }
        // The observed-λ plane, keyed `(kernel, device)`: the same
        // kernel running on two pool devices yields two distinct rows.
        let kernel_rows = run
            .per_device
            .iter()
            .flat_map(|dr| {
                dr.per_stage.iter().flat_map(|s| {
                    s.kernels.iter().map(|k| KernelRows {
                        name: format!("{}@{}", k.name, dr.device),
                        rows_in: k.rows_in,
                        rows_out: k.rows_out,
                    })
                })
            })
            .collect();
        QueryResult {
            output: run.output,
            cycles: run.cycles,
            kernel_rows,
        }
    })
    .map_err(|e| {
        if e.is_device_fault() {
            // The run died before producing per-device facts; charge
            // the fault to every device that was eligible to run —
            // conservative, but a sticky pool-wide failure should trip
            // the whole worker's pool anyway.
            for (d, o) in outcomes.iter_mut().enumerate() {
                if excluded.is_none_or(|x| !x[d]) {
                    o.lost = true;
                    o.ran = true;
                }
            }
        }
        ServeError::Exec(e)
    });
    (
        QueryResponse {
            id: req.id,
            mode: req.mode,
            result,
            plan_cache_hit: hit,
            plan_wall,
            queue_wall,
            exec_wall: exec_t0.elapsed(),
            worker: idx,
            trace: None,
            recovery,
        },
        outcomes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_core::ExecMode;

    fn job(id: u64) -> Job {
        Job {
            req: QueryRequest::new(id, "select 1", ExecMode::Gpl),
            submitted: Instant::now(),
        }
    }

    /// A panicking job is answered once, as `Internal` with its message,
    /// and the jobs after it are still served.
    #[test]
    fn a_panicking_job_is_answered_and_the_worker_serves_on() {
        let serve = |job: Job| {
            if job.req.id == 1 {
                panic!("executor invariant broken on q{}", job.req.id);
            }
            synthetic_response_on(0, job, ServeError::CircuitOpen)
        };
        let responses: Vec<QueryResponse> = (0..4).map(|id| answer(0, job(id), serve)).collect();
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "one response per submission");
        assert_eq!(
            responses[1].result,
            Err(ServeError::Internal {
                msg: "executor invariant broken on q1".into()
            })
        );
        assert_eq!(responses[1].mode, ExecMode::Gpl);
        for r in [&responses[0], &responses[2], &responses[3]] {
            assert_eq!(r.result, Err(ServeError::CircuitOpen), "q{} served", r.id);
        }
    }
}
