//! Query execution: context, configuration, and the three execution
//! modes of Section 5.1 — KBE, GPL (w/o CE), and full GPL.

use crate::error::ExecError;
use crate::gpl;
use crate::ht::{GroupStore, SimHashTable};
use crate::ops::sort_rows;
use crate::plan::{QueryPlan, Stage, Terminal};
use crate::recover::{self, drive, last_resort, Driven, RecoveryPolicy, RecoveryStats};
use crate::segment::{overlap_pairs, InterSegmentEdge, SegmentIr};
use crate::shard::{run_shard_attempt, ShardOut, Sharder};
use gpl_obs::Value;
use gpl_sim::{DeviceSpec, KernelDesc, LaunchProfile, ResourceUsage, Simulator, Work, WorkUnit};
use gpl_storage::TableLayout;
use gpl_tpch::{QueryOutput, TpchDb};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How a plan is executed (Section 5.1's three systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Kernel-based execution: one kernel at a time over the whole input,
    /// intermediates materialized in global memory.
    Kbe,
    /// GPL with tiling but neither concurrent kernels nor channels:
    /// kernels run one at a time per tile (the ablation of Figure 16).
    GplNoCe,
    /// Full GPL: concurrent kernels connected by channels, tiled input.
    Gpl,
    /// Full GPL plus cross-segment pipelining: an eligible build→probe
    /// stage pair runs as one fused launch, the shared hash table
    /// installed and published slice by slice so the probe segment's
    /// leaf (and the early slices' probes) overlap the build terminal.
    /// Stages outside an eligible pair — or pairs whose
    /// [`StageConfig::overlap_slices`] is 0 — run exactly as [`Gpl`].
    GplPipelined,
}

impl ExecMode {
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Kbe => "KBE",
            ExecMode::GplNoCe => "GPL (w/o CE)",
            ExecMode::Gpl => "GPL",
            ExecMode::GplPipelined => "GPL (pipelined)",
        }
    }
}

/// Tunable parameters for one stage's pipelined execution — the knobs the
/// analytical model of Section 4 optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct StageConfig {
    /// Tile size Δ in bytes of the driving relation.
    pub tile_bytes: u64,
    /// Channels per producer→consumer edge (`n`).
    pub n_channels: u32,
    /// Packet size in bytes (`p`; fixed on NVIDIA).
    pub packet_bytes: u32,
    /// Work-groups per GPL kernel (scan, ops…, terminal). Must have one
    /// entry per kernel of [`Stage::gpl_kernel_names`].
    pub wg_counts: Vec<u32>,
    /// Cross-segment overlap slices (K) when this stage's hash-build
    /// terminal is the producer of an eligible [`InterSegmentEdge`] and
    /// the query runs under [`ExecMode::GplPipelined`]: 0 disables the
    /// overlap (the pair runs sequentially — the default), K ≥ 1 splits
    /// the installation into K published slices. Ignored elsewhere.
    pub overlap_slices: u32,
}

impl StageConfig {
    /// The paper's default configuration: 1 MB tiles (Section 5.2 notes
    /// the default tile size is 1 MB), 4 channels, 16-byte packets, and a
    /// uniform work-group allocation.
    pub fn default_for(spec: &DeviceSpec, stage: &Stage) -> Self {
        let kernels = stage.gpl_kernel_names().len();
        StageConfig {
            tile_bytes: 1 << 20,
            n_channels: 4,
            packet_bytes: spec.channel.fixed_packet_bytes,
            wg_counts: vec![4 * spec.num_cus; kernels],
            overlap_slices: 0,
        }
    }
}

/// Per-stage configuration for a whole plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryConfig {
    pub stages: Vec<StageConfig>,
}

impl QueryConfig {
    pub fn default_for(spec: &DeviceSpec, plan: &QueryPlan) -> Self {
        QueryConfig {
            stages: plan
                .stages
                .iter()
                .map(|s| StageConfig::default_for(spec, s))
                .collect(),
        }
    }

    /// Set the overlap-slice knob on every stage (the scheduler only
    /// reads it on the build stage of an eligible pair). Builder-style,
    /// for tests and benchmarks.
    pub fn with_overlap_slices(mut self, k: u32) -> Self {
        for s in &mut self.stages {
            s.overlap_slices = k;
        }
        self
    }
}

/// Device + installed database: the execution context shared by all
/// engines. Table columns are mapped into simulated memory once.
pub struct ExecContext {
    pub sim: Simulator,
    pub db: Arc<TpchDb>,
    layouts: HashMap<String, TableLayout>,
}

impl ExecContext {
    pub fn new(spec: DeviceSpec, db: TpchDb) -> Self {
        Self::with_shared(spec, Arc::new(db))
    }

    /// Build a context over an already-shared database. Worker threads in
    /// the serving layer each call this with a clone of one `Arc<TpchDb>`:
    /// the (large, immutable) column data is shared, while the simulator
    /// and its memory map — the mutable, per-query state — stay private
    /// to the worker. `TableLayout::install` only allocates simulated
    /// regions; it copies no data, so per-worker setup is cheap.
    pub fn with_shared(spec: DeviceSpec, db: Arc<TpchDb>) -> Self {
        let mut sim = Simulator::new(spec);
        let mut layouts = HashMap::new();
        for t in db.tables() {
            layouts.insert(t.name().to_string(), TableLayout::install(&mut sim.mem, t));
        }
        ExecContext { sim, db, layouts }
    }

    pub fn layout(&self, table: &str) -> &TableLayout {
        self.layouts
            .get(table)
            .unwrap_or_else(|| panic!("table {table:?} not installed"))
    }

    pub fn spec(&self) -> DeviceSpec {
        self.sim.spec().clone()
    }

    /// Launch a set of kernels on this context's simulator, surfacing a
    /// pipeline stall as a structured [`ExecError::Deadlock`] instead of
    /// panicking. This is the seam the GPL engine and the failure-mode
    /// tests use to exercise the error path.
    pub fn run_kernels(&mut self, kernels: Vec<KernelDesc>) -> Result<LaunchProfile, ExecError> {
        self.sim.try_run(kernels).map_err(ExecError::from)
    }
}

/// Runtime limits for one query execution, checked at stage boundaries.
///
/// Both limits are expressed in *deterministic* units — simulated device
/// cycles and an explicit flag — never wall-clock time, so a limited run
/// produces the same outcome on a loaded laptop and an idle server.
#[derive(Debug, Clone, Default)]
pub struct ExecLimits {
    /// Abort with [`ExecError::Timeout`] once the query's simulated
    /// cycles exceed this budget. `None` = unlimited.
    pub max_cycles: Option<u64>,
    /// Abort with [`ExecError::Cancelled`] when this flag is raised.
    /// Checked before every stage, so cancellation latency is bounded by
    /// one stage, not one query.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ExecLimits {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn with_max_cycles(max_cycles: u64) -> Self {
        ExecLimits {
            max_cycles: Some(max_cycles),
            cancel: None,
        }
    }

    pub(crate) fn check(&self, spent: u64) -> Result<(), ExecError> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(ExecError::Cancelled);
            }
        }
        if let Some(budget) = self.max_cycles {
            if spent > budget {
                return Err(ExecError::Timeout {
                    budget_cycles: budget,
                    spent_cycles: spent,
                });
            }
        }
        Ok(())
    }
}

/// The result of running a query on the simulator.
#[derive(Debug, Clone)]
pub struct QueryRun {
    pub output: QueryOutput,
    /// Simulated cycles for the whole query: all successful launches
    /// plus any cycles wasted on failed attempts and backoff
    /// (`recovery.wasted_cycles`; zero on a fault-free run).
    pub cycles: u64,
    /// Merged profile across all successful launches.
    pub profile: LaunchProfile,
    /// Per-stage merged profiles, in stage order (the final sort, if any,
    /// is appended as an extra entry).
    pub per_stage: Vec<LaunchProfile>,
    /// What the recovery stack did (default on a fault-free run).
    pub recovery: RecoveryStats,
}

impl QueryRun {
    /// Wall-clock milliseconds at the device clock rate.
    pub fn ms(&self, spec: &DeviceSpec) -> f64 {
        spec.cycles_to_ms(self.cycles)
    }
}

/// Run `plan` under `mode` with `config`, panicking on execution errors.
///
/// This is the single-query entry point used by benchmarks and tests,
/// where a deadlock is a bug worth aborting on. Servers should call
/// [`try_run_query`], which keeps the process alive and the diagnostic
/// intact.
pub fn run_query(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    mode: ExecMode,
    config: &QueryConfig,
) -> QueryRun {
    try_run_query(ctx, plan, mode, config, &ExecLimits::none()).unwrap_or_else(|e| panic!("{e}"))
}

/// Run `plan` under `mode` with `config`, subject to `limits`, with no
/// recovery: the first injected fault (if a fault plan is attached)
/// surfaces as an error. See [`try_run_query_recovering`].
///
/// Errors leave the context usable for the next query: the simulator's
/// clock and memory map survive, and the serving layer discards the
/// per-query state (hash tables, aggregate stores) with the locals here.
pub fn try_run_query(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    mode: ExecMode,
    config: &QueryConfig,
    limits: &ExecLimits,
) -> Result<QueryRun, ExecError> {
    try_run_query_recovering(ctx, plan, mode, config, limits, None)
}

/// Everything one attempt at a stage reads: the plan it belongs to, the
/// stage and its lowering, its configuration, and the hash tables
/// earlier stages installed.
#[derive(Clone, Copy)]
pub(crate) struct StageJob<'a> {
    pub plan: &'a QueryPlan,
    pub ir: &'a SegmentIr,
    pub stage: &'a Stage,
    pub cfg: &'a StageConfig,
    pub hts: &'a [Option<Rc<RefCell<SimHashTable>>>],
}

/// A fused pair's blocking output: both stages' built tables and the
/// probe side's aggregate store, if any.
type PairOut = (
    LaunchProfile,
    Vec<(usize, SimHashTable)>,
    Option<GroupStore>,
);

/// One single-device query run: its fixed inputs, and what it
/// accumulates stage by stage.
struct QueryState<'a> {
    plan: &'a QueryPlan,
    recovery: Option<&'a RecoveryPolicy>,
    limits: &'a ExecLimits,
    hts: Vec<Option<Rc<RefCell<SimHashTable>>>>,
    agg_rows: Option<Vec<Vec<i64>>>,
    merged: LaunchProfile,
    per_stage: Vec<LaunchProfile>,
    stats: RecoveryStats,
}

impl QueryState<'_> {
    /// Simulated cycles charged so far: launches plus recovery waste.
    fn spent(&self) -> u64 {
        self.merged.elapsed_cycles + self.stats.wasted_cycles
    }

    /// Install blocking outputs — only ever from a successful attempt, so
    /// a failed attempt's partial hash table or aggregate store drops
    /// with its locals and can never leak into a retry.
    fn install(
        &mut self,
        built: impl IntoIterator<Item = (usize, SimHashTable)>,
        agg: Option<GroupStore>,
    ) {
        for (slot, ht) in built {
            self.hts[slot] = Some(Rc::new(RefCell::new(ht)));
        }
        if let Some(store) = agg {
            self.agg_rows = Some(store.into_rows());
        }
    }

    /// Run `stage` (lowered to `ir`) through [`recover::drive`] down the
    /// ladder from `mode` — slice by slice when the policy checkpoints
    /// (see [`drive_checkpointed`]) — and install its outputs. The
    /// exhaust rule of a stage: the disarmed last-resort KBE attempt when
    /// `policy.fallback` is set, otherwise the last fault. Returns the
    /// stage's cycles and the mode it finally ran on.
    fn run_stage(
        &mut self,
        ctx: &mut ExecContext,
        stage: &Stage,
        ir: &SegmentIr,
        cfg: &StageConfig,
        mode: ExecMode,
    ) -> Result<(u64, ExecMode), ExecError> {
        let job = StageJob {
            plan: self.plan,
            ir,
            stage,
            cfg,
            hts: &self.hts,
        };
        let whole = 0..ctx.db.table(&stage.driver).rows();
        let attempt =
            |ctx: &mut ExecContext, m| run_shard_attempt(ctx, job, m, std::slice::from_ref(&whole));
        let rec = ctx.sim.recorder().cloned();
        let (spent, limits, rec) = (self.merged.elapsed_cycles, self.limits, rec.as_ref());
        let stats = &mut self.stats;
        let ((profile, built, agg), ran_on) = match self.recovery {
            None => (attempt(ctx, mode)?, mode),
            Some(p) if p.checkpoint_slices >= 2 => {
                drive_checkpointed(ctx, job, mode, p, limits, spent, stats)?
            }
            Some(p) => {
                let ladder = p.ladder(mode);
                match drive(
                    ctx,
                    &ladder,
                    p,
                    limits,
                    spent,
                    stats,
                    rec,
                    attempt,
                    |_, _| {},
                )? {
                    Driven::Ran(out, m) => (out, m),
                    Driven::Exhausted { last, .. } if !p.fallback => return Err(last),
                    Driven::Exhausted { .. } => {
                        (last_resort(ctx, stats, rec, attempt)?, ExecMode::Kbe)
                    }
                }
            }
        };
        self.install(built, agg);
        let cycles = profile.elapsed_cycles;
        self.merged.merge(&profile);
        self.per_stage.push(profile);
        Ok((cycles, ran_on))
    }

    /// Run one eligible pair through the pipelined scheduler: fused
    /// attempts through [`recover::drive`], then — the pair's exhaust
    /// rule — degradation to the *sequential* pair, the two stages one
    /// after the other through [`QueryState::run_stage`] starting at
    /// GPL (or, without `fallback`, the last fault). The fused launch is
    /// split back into per-stage views by segment tag so
    /// `QueryRun::per_stage` keeps one entry per stage.
    fn run_pair(
        &mut self,
        ctx: &mut ExecContext,
        pair: &InterSegmentEdge,
        config: &QueryConfig,
    ) -> Result<(), ExecError> {
        let plan = self.plan;
        let (bi, pi) = (pair.build_stage, pair.probe_stage);
        let (stage_b, stage_p) = (&plan.stages[bi], &plan.stages[pi]);
        let (cfg_b, cfg_p) = (&config.stages[bi], &config.stages[pi]);
        let wf = ctx.sim.spec().wavefront_size;
        let ir_b = SegmentIr::lower(stage_b, ctx.db.table(&stage_b.driver), wf);
        let ir_p = SegmentIr::lower(stage_p, ctx.db.table(&stage_p.driver), wf);
        // Slice volume: the expected table size split K ways.
        let Terminal::HashBuild { payloads, .. } = &stage_b.terminal else {
            unreachable!("pair build stage must end in a hash build");
        };
        let expected = estimate_build_rows(ctx, stage_b) as u64;
        let table_bytes = expected * 8 * (1 + payloads.len() as u64);
        let edge = pair.clone().with_slices(cfg_b.overlap_slices, table_bytes);

        let rec = ctx.sim.recorder().cloned();
        let span = rec.as_ref().map(|r| {
            let t = r.track("exec");
            let s = r.begin(
                t,
                "stage",
                format!("stage{bi}+{pi}:{}+{}", ir_b.driver, ir_p.driver),
                ctx.sim.clock(),
            );
            r.arg(s, "overlap_slices", edge.slices);
            r.arg(s, "slice_bytes", edge.slice_bytes);
            r.arg(s, "kernels", ir_b.nodes.len() + ir_p.nodes.len());
            s
        });
        let build = StageJob {
            plan,
            ir: &ir_b,
            stage: stage_b,
            cfg: cfg_b,
            hts: &self.hts,
        };
        let probe = StageJob {
            ir: &ir_p,
            stage: stage_p,
            cfg: cfg_p,
            ..build
        };
        let fused = |ctx: &mut ExecContext, _| run_pair_attempt(ctx, &edge, build, probe);
        let out = match self.recovery {
            None => Some(fused(ctx, ExecMode::GplPipelined)?),
            Some(policy) => match drive(
                ctx,
                &[ExecMode::GplPipelined],
                policy,
                self.limits,
                self.merged.elapsed_cycles,
                &mut self.stats,
                rec.as_ref(),
                fused,
                |_, _| {},
            )? {
                Driven::Ran(out, _) => Some(out),
                Driven::Exhausted { last, .. } if !policy.fallback => return Err(last),
                Driven::Exhausted { .. } => None,
            },
        };
        if let Some((profile, built, agg)) = out {
            self.install(built, agg);
            if let Some(r) = rec.as_ref() {
                // The measured overlap window: where the two segments'
                // kernel activity intersects.
                if let (Some((a0, a1)), Some((b0, b1))) =
                    (profile.segment_window(0), profile.segment_window(1))
                {
                    let (lo, hi) = (a0.max(b0), a1.min(b1));
                    if lo < hi {
                        let t = r.track("exec");
                        r.span(
                            t,
                            "overlap",
                            format!("overlap:slices={}", edge.slices),
                            lo,
                            hi,
                            vec![("cycles", Value::from(hi - lo))],
                        );
                    }
                }
                if let Some(s) = span {
                    r.arg(s, "stage_cycles", profile.elapsed_cycles);
                    r.end(s, ctx.sim.clock());
                }
            }
            self.merged.merge(&profile);
            self.per_stage.extend(profile.split_by_segment(&[0, 1]));
            return Ok(());
        }
        self.stats.fallbacks += 1;
        self.stats.degraded_to = Some(ExecMode::Gpl);
        recover::instant(
            rec.as_ref(),
            ctx,
            "fallback",
            vec![("to", Value::from("GPL (sequential pair)"))],
        );
        self.run_stage(ctx, stage_b, &ir_b, cfg_b, ExecMode::Gpl)?;
        let (_, ran) = self.run_stage(ctx, stage_p, &ir_p, cfg_p, ExecMode::Gpl)?;
        if let (Some(r), Some(s)) = (rec.as_ref(), span) {
            r.arg(s, "degraded_to", ran.name());
            r.end(s, ctx.sim.clock());
        }
        Ok(())
    }
}

/// [`try_run_query`] with the recovery stack enabled: every stage (or
/// fused pair) runs through [`recover::drive`] — per-stage retries with
/// deterministic exponential backoff, graceful degradation down the
/// GPL → GPL-w/o-CE → KBE ladder, and a disarmed last-resort KBE
/// attempt. `recovery: None` disables recovery.
///
/// Recovered runs return bit-identical rows to fault-free runs — faults
/// cost cycles (`QueryRun::recovery.wasted_cycles`), never correctness.
pub fn try_run_query_recovering(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    mode: ExecMode,
    config: &QueryConfig,
    limits: &ExecLimits,
    recovery: Option<&RecoveryPolicy>,
) -> Result<QueryRun, ExecError> {
    plan.validate();
    assert_eq!(
        config.stages.len(),
        plan.stages.len(),
        "config/stage count mismatch"
    );
    ctx.sim.reset_footprint();
    // Observability: one query span, with a child span per stage carrying
    // the chosen StageConfig. Timestamped in device cycles; gated on the
    // simulator's recorder so disabled runs pay a branch, not allocations.
    let rec = ctx.sim.recorder().cloned();
    let query_span = rec.as_ref().map(|r| {
        let t = r.track("exec");
        let s = r.begin(t, "exec", plan.query.name(), ctx.sim.clock());
        r.arg(s, "mode", mode.name());
        r.arg(s, "stages", plan.stages.len());
        s
    });
    let mut st = QueryState {
        plan,
        recovery,
        limits,
        hts: vec![None; plan.num_hts],
        agg_rows: None,
        merged: LaunchProfile::default(),
        per_stage: Vec::new(),
        stats: RecoveryStats::default(),
    };

    // Under GPL-pipelined, eligible build→probe pairs with a non-zero
    // overlap knob run fused; everything else takes the per-stage path.
    let pairs = if mode == ExecMode::GplPipelined {
        overlap_pairs(&plan.stages)
    } else {
        Vec::new()
    };
    let mut idx = 0;
    while idx < plan.stages.len() {
        limits.check(st.spent())?;
        if let Some(pair) = pairs
            .iter()
            .find(|p| p.build_stage == idx && config.stages[p.build_stage].overlap_slices > 0)
        {
            st.run_pair(ctx, pair, config)?;
            idx += 2;
            continue;
        }
        let (stage, cfg) = (&plan.stages[idx], &config.stages[idx]);
        // Lower the stage once; every consumer below — mode dispatch,
        // span naming, both executors — reads this one IR.
        let ir = SegmentIr::lower(
            stage,
            ctx.db.table(&stage.driver),
            ctx.sim.spec().wavefront_size,
        );
        let stage_span = rec.as_ref().map(|r| {
            let t = r.track("exec");
            let s = r.begin(
                t,
                "stage",
                format!("stage{idx}:{}", ir.driver),
                ctx.sim.clock(),
            );
            r.arg(s, "tile_bytes", cfg.tile_bytes);
            r.arg(s, "n_channels", cfg.n_channels);
            r.arg(s, "packet_bytes", cfg.packet_bytes);
            r.arg(s, "kernels", ir.nodes.len());
            s
        });
        let (cycles, ran_on) = st.run_stage(ctx, stage, &ir, cfg, mode)?;
        if let (Some(r), Some(s)) = (rec.as_ref(), stage_span) {
            if ran_on != mode {
                r.arg(s, "degraded_to", ran_on.name());
            }
            r.arg(s, "stage_cycles", cycles);
            r.end(s, ctx.sim.clock());
        }
        idx += 1;
    }

    let mut rows = st
        .agg_rows
        .take()
        .expect("plan must end in an aggregate stage");
    limits.check(st.spent())?;
    if let Some(prof) = sort_output(ctx, plan, &mut rows) {
        st.merged.merge(&prof);
        st.per_stage.push(prof);
    }
    // The final budget check: a query landing *exactly* on its budget
    // succeeds (`spent > budget` times out, `spent == budget` passes) —
    // the boundary `tests/fault_recovery.rs` pins at 1/2/8 workers.
    limits.check(st.spent())?;
    let output = shape_output(plan, rows);

    let stats = &st.stats;
    if let (Some(r), Some(s)) = (rec.as_ref(), query_span) {
        r.arg(s, "cycles", st.merged.elapsed_cycles);
        if stats.eventful() {
            r.arg(s, "faults", stats.faults.len());
            r.arg(s, "retries", stats.retries);
            r.arg(s, "fallbacks", stats.fallbacks);
            r.arg(s, "wasted_cycles", stats.wasted_cycles);
        }
        r.end(s, ctx.sim.clock());
    }
    Ok(QueryRun {
        output,
        cycles: st.spent(),
        profile: st.merged,
        per_stage: st.per_stage,
        recovery: st.stats,
    })
}

/// The output path after the last stage: the plan's ORDER BY as a
/// blocking sort kernel, whose profile is returned, or else the
/// canonical full-row sort on the host. The sort runs over host-side
/// result rows, outside the fault domain: injection is disarmed so the
/// output path cannot strand a pending fault.
pub(crate) fn sort_output(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    rows: &mut [Vec<i64>],
) -> Option<LaunchProfile> {
    if plan.order_by.is_empty() {
        sort_rows(rows, &[]);
        return None;
    }
    let was_armed = ctx.sim.faults_armed();
    ctx.sim.set_faults_armed(false);
    let prof = run_sort_kernel(ctx, rows, &plan.order_by);
    ctx.sim.set_faults_armed(was_armed);
    Some(prof)
}

/// The plan's LIMIT and projection over sorted rows.
pub(crate) fn shape_output(plan: &QueryPlan, mut rows: Vec<Vec<i64>>) -> QueryOutput {
    if let Some(limit) = plan.limit {
        rows.truncate(limit);
    }
    if let Some(proj) = &plan.projection {
        rows = rows
            .into_iter()
            .map(|r| proj.iter().map(|&i| r[i]).collect())
            .collect();
    }
    QueryOutput::new(
        plan.output_columns.iter().map(String::as_str).collect(),
        rows,
    )
}

/// Sole ownership of a blocking output once its launch has dropped
/// every other handle.
pub(crate) fn unshare<T>(rc: Rc<RefCell<T>>) -> T {
    Rc::try_unwrap(rc)
        .unwrap_or_else(|_| panic!("blocking output still shared"))
        .into_inner()
}

/// Fresh blocking outputs (hash table / aggregate store) for one attempt
/// at `stage` — created per attempt so a failed attempt's partial state
/// drops with its locals.
#[allow(clippy::type_complexity)]
pub(crate) fn make_blocking_outputs(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    stage: &Stage,
) -> (
    Option<(usize, Rc<RefCell<SimHashTable>>)>,
    Option<Rc<RefCell<GroupStore>>>,
) {
    let build = match &stage.terminal {
        Terminal::HashBuild { ht, payloads, .. } => {
            let expected = estimate_build_rows(ctx, stage);
            Some((
                *ht,
                Rc::new(RefCell::new(SimHashTable::new(
                    &mut ctx.sim.mem,
                    expected,
                    payloads.len(),
                    format!("{}::ht{}", plan.query.name(), ht),
                ))),
            ))
        }
        Terminal::Aggregate { .. } => None,
    };
    let agg = match &stage.terminal {
        Terminal::Aggregate { groups, aggs } => {
            Some(Rc::new(RefCell::new(GroupStore::with_kinds(
                &mut ctx.sim.mem,
                if groups.is_empty() { 1 } else { 4096 },
                groups.len(),
                aggs.iter().map(|a| a.kind).collect(),
                format!("{}::agg", plan.query.name()),
            ))))
        }
        Terminal::HashBuild { .. } => None,
    };
    (build, agg)
}

/// One fused attempt at an overlapped pair: both segments' kernels in a
/// single launch, the shared hash table installed slice by slice and
/// published through the inter-segment channel. Fresh blocking outputs
/// per attempt, exactly like [`run_shard_attempt`] — so a mid-overlap
/// fault can never double-publish or drop a slice: the retried attempt
/// starts from nothing installed and nothing published.
fn run_pair_attempt(
    ctx: &mut ExecContext,
    edge: &InterSegmentEdge,
    build: StageJob,
    probe: StageJob,
) -> Result<PairOut, ExecError> {
    debug_assert!(!ctx.sim.fault_pending(), "stale fault entering a pair");
    let (shared_build, _) = make_blocking_outputs(ctx, build.plan, build.stage);
    let (slot, shared) = shared_build.expect("pair build stage ends in a hash build");
    debug_assert_eq!(slot, edge.ht, "pair edge names the built table");
    let (build_p, agg) = make_blocking_outputs(ctx, probe.plan, probe.stage);
    let profile = gpl::run_overlapped_pair(
        ctx,
        edge,
        build,
        probe,
        &shared,
        build_p.as_ref().map(|(_, t)| t),
        agg.as_ref(),
    )?;
    if let Some(record) = ctx.sim.take_fault() {
        return Err(ExecError::from_fault(record));
    }
    let built = std::iter::once((slot, shared)).chain(build_p);
    let built = built.map(|(slot, t)| (slot, unshare(t))).collect();
    Ok((profile, built, agg.map(unshare)))
}

/// Slice-checkpoint execution of one stage (DESIGN.md §11): the driving
/// relation splits into `RecoveryPolicy::checkpoint_slices` contiguous
/// row slices, each driven through the ladder into *fresh* per-slice
/// blocking outputs that merge into the stage's accumulated state only
/// on success — the launch-admission invariant applied per slice. After
/// every merge, a content checkpoint (the accumulated hash-table /
/// group-store fingerprint) is recorded; a fault re-verifies the
/// accumulated state against the last checkpoint and retries *only its
/// slice*, so a mid-stage fault resumes from the last verified slice
/// instead of row 0. A slice's exhaust rule is the stage's. Rows are
/// bit-identical to the unsliced stage (disjoint ranges union exactly —
/// the same facts the shard merge relies on); only cycles differ.
fn drive_checkpointed(
    ctx: &mut ExecContext,
    job: StageJob,
    mode: ExecMode,
    policy: &RecoveryPolicy,
    limits: &ExecLimits,
    spent: u64,
    stats: &mut RecoveryStats,
) -> Result<(ShardOut, ExecMode), ExecError> {
    let rec = ctx.sim.recorder().cloned();
    let rec = rec.as_ref();
    let rows = ctx.db.table(&job.stage.driver).rows();
    let slices = Sharder::Range
        .partition(rows, policy.checkpoint_slices as usize)
        .into_iter()
        .flatten();
    // Accumulated blocking state: created ONCE and kept across slice
    // attempts — sound because a faulted slice attempt only ever built
    // its own (dropped) per-slice outputs.
    let (build, agg) = make_blocking_outputs(ctx, job.plan, job.stage);
    let fingerprint = || match (&build, &agg) {
        (Some((_, t)), _) => t.borrow().fingerprint(),
        (_, Some(a)) => a.borrow().fingerprint(),
        _ => unreachable!("a stage ends in a build or an aggregate"),
    };
    let mut checkpoint = fingerprint();
    let mut kept_cycles = 0u64; // useful cycles the checkpoints protect
    let mut profile = LaunchProfile::default();
    let mut ran_on = mode;
    let ladder = policy.ladder(mode);

    for (verified, slice) in slices.enumerate() {
        // Slices merged and checksummed so far.
        let verified = verified as u64;
        let part = [slice];
        let attempt = |ctx: &mut ExecContext, m| {
            let c0 = ctx.sim.clock();
            let out = run_shard_attempt(ctx, job, m, &part)?;
            Ok((out, ctx.sim.clock().saturating_sub(c0)))
        };
        // Partial-progress resume: the completed slices stay. Verify them
        // against the last checkpoint before continuing — a failed
        // attempt must not have touched the accumulated state.
        let driven = drive(
            ctx,
            &ladder,
            policy,
            limits,
            spent,
            stats,
            rec,
            attempt,
            |ctx, stats| {
                if verified > 0 {
                    assert_eq!(
                        fingerprint(),
                        checkpoint,
                        "accumulated state diverged from its checkpoint"
                    );
                    stats.resumed_slices += verified;
                    stats.checkpoint_saved_cycles += kept_cycles;
                    let args = vec![
                        ("from_slice", Value::from(verified)),
                        ("saved_cycles", Value::from(kept_cycles)),
                    ];
                    recover::instant(rec, ctx, "resume", args);
                }
            },
        )?;
        let ((sp, sbuilt, sagg), kept, m) = match driven {
            Driven::Ran((out, cycles), m) => (out, cycles, m),
            Driven::Exhausted { last, .. } if !policy.fallback => return Err(last),
            // Only slices the ladder finished count as protected work.
            Driven::Exhausted { .. } => {
                let (out, _) = last_resort(ctx, stats, rec, attempt)?;
                (out, 0, ExecMode::Kbe)
            }
        };
        merge_slice(&build, &agg, sbuilt, sagg);
        checkpoint = fingerprint();
        kept_cycles += kept;
        profile.merge(&sp);
        if m != mode {
            ran_on = m;
        }
    }

    let built = build.map(|(slot, t)| (slot, unshare(t)));
    Ok(((profile, built, agg.map(unshare)), ran_on))
}

/// Merge one verified slice's owned blocking outputs into the stage's
/// accumulated state: build entries insert (key-unique across disjoint
/// slices, like shard merges), aggregate stores absorb group-by-group.
fn merge_slice(
    build: &Option<(usize, Rc<RefCell<SimHashTable>>)>,
    agg: &Option<Rc<RefCell<GroupStore>>>,
    sbuilt: Option<(usize, SimHashTable)>,
    sagg: Option<GroupStore>,
) {
    if let (Some((_, acc)), Some((_, t))) = (build, sbuilt) {
        let mut acc = acc.borrow_mut();
        let mut sink = Vec::new();
        for (key, payload) in t.into_entries() {
            sink.clear();
            acc.insert(key, &payload, &mut sink);
        }
    }
    if let (Some(acc), Some(s)) = (agg, sagg) {
        acc.borrow_mut().absorb(s);
    }
}

/// Estimate a build stage's output cardinality by evaluating its filters
/// on a small driver sample (the role a query optimizer's estimate plays
/// when an engine sizes a hash table). Stages with probes fall back to
/// the driver cardinality.
fn estimate_build_rows(ctx: &ExecContext, stage: &Stage) -> usize {
    use crate::plan::PipeOp;
    let total = ctx.db.table(&stage.driver).rows();
    if stage
        .ops
        .iter()
        .any(|op| matches!(op, PipeOp::Probe { .. }))
        || total == 0
    {
        return total.max(1);
    }
    const SAMPLE: usize = 1024;
    let rows: Vec<usize> = if total <= SAMPLE {
        (0..total).collect()
    } else {
        let step = total as f64 / SAMPLE as f64;
        (0..SAMPLE).map(|i| (i as f64 * step) as usize).collect()
    };
    let t = ctx.db.table(&stage.driver);
    let mut chunk = crate::ops::Chunk::new(stage.num_slots());
    for (s, name) in stage.loads.iter().enumerate() {
        let col = t.col(name);
        chunk.fill(s, col.gather_i64(&rows));
    }
    for op in &stage.ops {
        match op {
            PipeOp::Filter(p) => chunk = crate::ops::apply_filter(&chunk, p),
            PipeOp::Compute { expr, out } => crate::ops::apply_compute(&mut chunk, expr, *out),
            PipeOp::Probe { .. } => unreachable!("filtered above"),
        }
    }
    let sel = chunk.rows as f64 / rows.len().max(1) as f64;
    // Head-room so under-sampled selective builds still fit comfortably.
    ((total as f64 * sel * 1.25) as usize).clamp(16, total.max(16))
}

/// Simulate the final sort: a blocking bitonic-style kernel over the
/// (small) aggregate output.
fn run_sort_kernel(
    ctx: &mut ExecContext,
    rows: &mut [Vec<i64>],
    order: &[(usize, bool)],
) -> LaunchProfile {
    sort_rows(rows, order);
    let n = rows.len().max(1) as u64;
    let width = rows.first().map(|r| r.len()).unwrap_or(1) as u64 * 8;
    let region = ctx
        .sim
        .mem
        .alloc(n * width, gpl_sim::RegionClass::Output, "sort-output");
    let base = ctx.sim.mem.base(region);
    // Bitonic sort: log^2(n) passes, each reading and writing everything.
    let passes = {
        let lg = 64 - n.leading_zeros() as u64;
        (lg * lg).max(1)
    };
    let mut pass = 0u64;
    let src = move |_: &dyn gpl_sim::ChannelView| {
        if pass == passes {
            return Work::Done;
        }
        pass += 1;
        Work::Unit(WorkUnit {
            compute_insts: 4 * n,
            mem_insts: 2 * n,
            accesses: vec![
                gpl_sim::MemRange::read(base, n * width),
                gpl_sim::MemRange::write(base, n * width),
            ],
            ..Default::default()
        })
    };
    let k = KernelDesc::new("k_sort", ResourceUsage::new(64, 64, 2048), 8, Box::new(src));
    ctx.sim.run(vec![k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_sim::amd_a10;

    #[test]
    fn context_installs_all_tables() {
        let ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            assert_eq!(ctx.layout(t).table(), t);
        }
    }

    #[test]
    fn default_config_covers_all_stages() {
        let db = TpchDb::at_scale(0.002);
        let plan = crate::plan::plan_for(&db, gpl_tpch::QueryId::Q5);
        let cfg = QueryConfig::default_for(&amd_a10(), &plan);
        assert_eq!(cfg.stages.len(), plan.stages.len());
        for (s, c) in plan.stages.iter().zip(&cfg.stages) {
            assert_eq!(c.wg_counts.len(), s.gpl_kernel_names().len());
            let ir = SegmentIr::lower(s, db.table(&s.driver), amd_a10().wavefront_size);
            ir.validate_config(c).expect("default config fits the IR");
        }
    }

    #[test]
    fn cycle_budget_trips_at_a_stage_boundary() {
        let db = TpchDb::at_scale(0.002);
        let plan = crate::plan::plan_for(&db, gpl_tpch::QueryId::Q5);
        let mut ctx = ExecContext::new(amd_a10(), db);
        let cfg = QueryConfig::default_for(&amd_a10(), &plan);
        let err = try_run_query(
            &mut ctx,
            &plan,
            ExecMode::Kbe,
            &cfg,
            &ExecLimits::with_max_cycles(1),
        )
        .unwrap_err();
        match err {
            ExecError::Timeout {
                budget_cycles,
                spent_cycles,
            } => {
                assert_eq!(budget_cycles, 1);
                assert!(spent_cycles > 1);
            }
            e => panic!("expected timeout, got {e}"),
        }
    }

    #[test]
    fn raised_cancel_flag_stops_before_the_first_stage() {
        let db = TpchDb::at_scale(0.002);
        let plan = crate::plan::plan_for(&db, gpl_tpch::QueryId::Q6);
        let mut ctx = ExecContext::new(amd_a10(), db);
        let cfg = QueryConfig::default_for(&amd_a10(), &plan);
        let flag = Arc::new(AtomicBool::new(true));
        let limits = ExecLimits {
            max_cycles: None,
            cancel: Some(flag),
        };
        let err = try_run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg, &limits).unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn sort_kernel_sorts_and_costs() {
        let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
        let mut rows = vec![vec![3, 1], vec![1, 9], vec![2, 4]];
        let p = run_sort_kernel(&mut ctx, &mut rows, &[(1, true)]);
        assert_eq!(rows, vec![vec![1, 9], vec![2, 4], vec![3, 1]]);
        assert!(p.elapsed_cycles > 0);
    }
}
