//! The traced run: the same request stream, sent sequentially through
//! the same public calls a worker makes, with a span around each call.
//!
//! Spans are recorded by the benchmark, around its calls into each
//! crate; nothing inside the program is timed. They stay in memory and
//! are written out when the run ends.

use crate::check::Answers;
use crate::drive::done;
use crate::workload::{Env, Kind, Request, Workload};
use gpl_core::{
    try_run_query_recovering, try_run_query_sharded, ExecContext, ExecLimits, QueryConfig,
    QueryPlan, RecoveryStats, SegmentIr, ShardFaults,
};
use gpl_model::{
    attach_overlap, build_models, drift_for_run, estimate_stats, hedge_plan, optimize_join_order,
    optimize_models_cached, place_query, Placement, SearchCache,
};
use gpl_obs::{DriftReport, DriftSummary};
use gpl_serve::PlanCache;
use gpl_sim::{FaultPlan, LaunchProfile, RegionClass};
use gpl_tpch::QueryOutput;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Id of the request the call served.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end = self.t0.elapsed();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Per span name: (self time, calls). A span's self time is its
    /// duration minus the durations of its child spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, u64)> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start).saturating_sub(c);
            e.1 += 1;
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, the request id in its arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"span\":{i},\"parent\":{parent}}}}}{sep}\n",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.request,
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Deterministic work counts of one pass of the stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub events: u64,
    pub launches: u64,
    pub cache_lines: u64,
    pub hit_lines: u64,
    pub writeback_lines: u64,
    pub intermediate_bytes: u64,
    pub channel_bytes: u64,
    pub retries: u64,
    pub fallbacks: u64,
    pub resumed_slices: u64,
    pub wasted_cycles: u64,
    pub cycles: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub search_evals: u64,
}

impl Counts {
    fn add(&mut self, done: &Done) {
        for p in &done.profiles {
            self.add_profile(p);
        }
        let r = &done.recovery;
        self.retries += r.retries;
        self.fallbacks += r.fallbacks;
        self.resumed_slices += r.resumed_slices;
        self.wasted_cycles += r.wasted_cycles;
        self.hedges += r.hedges;
        self.hedge_wins += r.hedge_wins;
        self.cycles += done.cycles;
        self.search_evals += done.evals;
    }

    fn add_profile(&mut self, p: &LaunchProfile) {
        self.events += p.kernels.iter().map(|k| k.units).sum::<u64>();
        self.launches += p.kernels.len() as u64;
        self.cache_lines += p.cache.total();
        self.hit_lines += p.cache.hit_lines;
        self.writeback_lines += p.cache.writebacks;
        self.intermediate_bytes += p.intermediate_bytes();
        self.channel_bytes += p
            .bytes_written
            .get(&RegionClass::ChannelBuf)
            .copied()
            .unwrap_or(0);
    }

    /// Every count, for the across-run guard.
    pub fn words(&self) -> [u64; 15] {
        [
            self.events,
            self.launches,
            self.cache_lines,
            self.hit_lines,
            self.writeback_lines,
            self.intermediate_bytes,
            self.channel_bytes,
            self.retries,
            self.fallbacks,
            self.resumed_slices,
            self.wasted_cycles,
            self.cycles,
            self.hedges,
            self.hedge_wins,
            self.search_evals,
        ]
    }
}

/// What the traced run did.
pub struct Traced {
    pub tracer: Tracer,
    pub wall: Duration,
    pub requests: usize,
    /// Counts of the first pass (every pass repeats them exactly).
    pub counts: Counts,
    /// Counts of every pass: the denominators of the per-unit times.
    pub all: Counts,
    /// Per traced request: its stream index and whether it succeeded
    /// with the untraced run's cycles and rows.
    pub outcomes: Vec<(usize, bool)>,
    /// Drift reports of the first pass (single-device served path).
    pub drift: Vec<DriftReport>,
}

impl Traced {
    /// Mean Eq. 8 error per kernel: |predicted − observed| / observed.
    pub fn eq8_err(&self) -> f64 {
        DriftSummary::from_reports(&self.drift).mean_cycles_err
    }
}

/// Per-query fault-plan seed, as the server derives it from the
/// configured seed and the request id.
fn per_query_seed(seed: u64, id: u64) -> u64 {
    seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run the stream sequentially, in whole passes, for at least
/// `seconds`.
pub fn run(w: &Workload, env: &Env, stream: &[Request], seconds: f64, answers: &Answers) -> Traced {
    let config = env.config.as_ref();
    let search = SearchCache::new(config.map_or(1, |c| c.plan_cache_capacity));
    let mut placed: HashMap<String, (QueryPlan, Placement)> = HashMap::new();
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let mut all = Counts::default();
    let mut drift = Vec::new();
    let mut outcomes = Vec::new();
    let n = stream.len();
    let t0 = Instant::now();
    let mut sent = 0;
    while !done(sent, n, t0, seconds) {
        let index = sent % n;
        let req = &stream[index];
        let first_pass = sent < n;
        tr.request = req.id;
        let root = tr.begin("request");
        let result = match w.kind {
            Kind::TpchDirect | Kind::AdhocServe => single_device(&mut tr, w, env, req, &search),
            Kind::ShardChaos => sharded(&mut tr, env, req, &mut placed),
        };
        tr.end(root);
        let ok = match result {
            Ok(done) => {
                all.add(&done);
                if first_pass {
                    counts.add(&done);
                    drift.extend(done.drift.clone());
                }
                answers
                    .get(index)
                    .is_some_and(|a| a.cycles == done.cycles && a.output == done.output)
            }
            Err(_) => false,
        };
        outcomes.push((index, ok));
        sent += 1;
    }
    Traced {
        tracer: tr,
        wall: t0.elapsed(),
        requests: sent,
        counts,
        all,
        outcomes,
        drift,
    }
}

/// One traced request's result.
struct Done {
    cycles: u64,
    output: QueryOutput,
    profiles: Vec<LaunchProfile>,
    recovery: RecoveryStats,
    evals: u64,
    drift: Option<DriftReport>,
}

/// The single-device path: `gpl_sql::run_sql`'s calls for
/// `tpch-direct`, the server worker's planning and execution calls for
/// `adhoc-serve`.
fn single_device(
    tr: &mut Tracer,
    w: &Workload,
    env: &Env,
    req: &Request,
    search: &SearchCache,
) -> Result<Done, String> {
    let (db, spec) = (&env.db, &env.spec);
    let plan = tr
        .time("sql.compile", || gpl_sql::compile(db, &req.sql))
        .map_err(|e| e.to_string())?;
    let plan = tr.time("model.joinopt", || optimize_join_order(db, &plan));
    let mut evals = 0;
    let mut planned = None;
    let config = match w.kind {
        Kind::AdhocServe => {
            let gamma = env.gamma.as_deref().expect("served workloads calibrate Γ");
            let stats = tr.time("model.stats", || estimate_stats(db, &plan));
            let models = tr.time("model.build", || build_models(db, &plan, &stats, spec));
            let key = format!(
                "{}\u{1f}{}",
                req.mode.name(),
                PlanCache::normalize(&req.sql)
            );
            let out = tr.time("model.search", || {
                optimize_models_cached(spec, gamma, &plan, &models, search, &key)
            });
            evals = out.evaluated as u64;
            let mut config = out.config;
            if req.mode == gpl_core::ExecMode::GplPipelined {
                tr.time("model.overlap", || {
                    attach_overlap(spec, gamma, &plan, &models, &mut config)
                });
            }
            planned = Some((gamma, models));
            config
        }
        _ => QueryConfig::default_for(spec, &plan),
    };
    let serve = env.config.as_ref();
    let mut ctx = tr.time("core.ctx", || {
        let mut ctx = ExecContext::with_shared(spec.clone(), db.clone());
        if let Some(fc) = serve.and_then(|c| c.faults.as_ref()) {
            ctx.sim.attach_faults(FaultPlan::new(
                fc.spec.clone(),
                per_query_seed(fc.seed, req.id),
            ));
        }
        ctx
    });
    // A probe beside the executor's own lowering, which is not timed
    // separately from execution.
    for stage in &plan.stages {
        tr.time("core.lower", || {
            SegmentIr::lower(stage, db.table(&stage.driver), spec.wavefront_size)
        });
    }
    let recovery = serve.and_then(|c| c.recovery.as_ref());
    let run = tr
        .time("core.exec", || {
            try_run_query_recovering(
                &mut ctx,
                &plan,
                req.mode,
                &config,
                &ExecLimits::none(),
                recovery,
            )
        })
        .map_err(|e| e.to_string())?;
    let drift = planned.map(|(gamma, models)| {
        tr.time("model.drift", || {
            drift_for_run(
                spec,
                gamma,
                &models,
                &config,
                &run,
                &format!("q{}", req.id),
                req.mode.name(),
            )
        })
    });
    Ok(Done {
        cycles: run.cycles,
        output: run.output,
        profiles: run.per_stage,
        recovery: run.recovery,
        evals,
        drift,
    })
}

/// The server worker's sharded path: plan and place on a plan-cache
/// miss (keyed, like the server's, by the SQL text), then run across
/// the pool with faults and hedging.
fn sharded(
    tr: &mut Tracer,
    env: &Env,
    req: &Request,
    placed: &mut HashMap<String, (QueryPlan, Placement)>,
) -> Result<Done, String> {
    let config = env.config.as_ref().expect("sharded workloads are served");
    let sc = config.sharding.as_ref().expect("sharding configured");
    let db = &env.db;
    let key = PlanCache::normalize(&req.sql);
    if !placed.contains_key(&key) {
        let plan = tr
            .time("sql.compile", || gpl_sql::compile(db, &req.sql))
            .map_err(|e| e.to_string())?;
        let plan = tr.time("model.joinopt", || optimize_join_order(db, &plan));
        let placement = tr.time("model.place", || {
            place_query(&sc.pool, &sc.gammas, db, &plan, None)
        });
        placed.insert(key.clone(), (plan, placement));
    }
    let (plan, placement) = &placed[&key];
    let hedge = sc.hedge_threshold.map(|t| hedge_plan(placement, t));
    let faults = config.faults.as_ref().map(|fc| ShardFaults {
        spec: fc.spec.clone(),
        seed: per_query_seed(fc.seed, req.id),
    });
    let run = tr
        .time("shard.exec", || {
            try_run_query_sharded(
                &sc.pool,
                db,
                plan,
                req.mode,
                &sc.plan,
                &placement.assignment,
                &ExecLimits::none(),
                config.recovery.as_ref(),
                faults.as_ref(),
                hedge.as_ref(),
                None,
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(Done {
        cycles: run.cycles,
        output: run.output,
        profiles: run
            .per_device
            .into_iter()
            .flat_map(|d| d.per_stage)
            .collect(),
        recovery: run.recovery,
        evals: 0,
        drift: None,
    })
}
