//! Recovery, pinned byte for byte: every retry, backoff, degradation,
//! checkpoint resume, device reassignment and hedge decision the
//! executor makes under seeded faults is folded into one digest per
//! arm and compared against `tests/recovery_golden.txt`.
//!
//! A digest covers the result rows, total cycles, every launch profile,
//! the full [`RecoveryStats`], the recorder dump (every span and
//! instant — including the `recover` track) for single-device arms,
//! per-device cycles, profiles and loss for sharded arms, and the
//! error's `Display` when the run fails. Any change to how recovery behaves moves at least one
//! digest; a deliberate change re-pins the moved entries (on a
//! mismatch the test lists each as old -> new and writes the query's
//! actual table under Cargo's integration-test scratch directory).

use gpl_repro::core::shard::{
    try_run_query_sharded, DevicePool, HedgePlan, ShardAssignment, ShardFaults, ShardPlan,
};
use gpl_repro::core::{
    plan_for, try_run_query_recovering, ExecContext, ExecLimits, ExecMode, QueryConfig,
    RecoveryPolicy, RecoveryStats,
};
use gpl_repro::obs::Recorder;
use gpl_repro::sim::{amd_a10, FaultPlan, FaultSpec};
use gpl_repro::tpch::{QueryId, TpchDb};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, OnceLock};

const EXPECTED: &str = include_str!("recovery_golden.txt");
const SEED: u64 = 42;

/// FNV-1a, fed through `fmt::Write` so large `Debug` renders hash
/// without being materialised.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn modes() -> [(ExecMode, &'static str); 4] {
    [
        (ExecMode::Kbe, "kbe"),
        (ExecMode::GplNoCe, "noce"),
        (ExecMode::Gpl, "gpl"),
        (ExecMode::GplPipelined, "pipe"),
    ]
}

fn policies() -> [(Option<RecoveryPolicy>, &'static str); 6] {
    [
        (Some(RecoveryPolicy::default()), "default"),
        (Some(RecoveryPolicy::with_retries(0)), "retries0"),
        (Some(RecoveryPolicy::default().no_fallback()), "nofallback"),
        (Some(RecoveryPolicy::default().with_checkpoints(2)), "ckpt2"),
        (Some(RecoveryPolicy::default().with_checkpoints(4)), "ckpt4"),
        (None, "none"),
    ]
}

fn single_device_specs() -> [(FaultSpec, &'static str); 3] {
    [
        (FaultSpec::uniform(0.05), "uniform"),
        (
            FaultSpec {
                device_lost: 1.0,
                ..FaultSpec::none()
            },
            "lost",
        ),
        (
            FaultSpec {
                channel_corrupt: 1.0,
                ..FaultSpec::none()
            },
            "corrupt",
        ),
    ]
}

fn shard_specs() -> [(FaultSpec, &'static str); 3] {
    [
        (FaultSpec::uniform(0.05), "transient"),
        (
            FaultSpec::none().with_slowdown(0.3, 4.0, 1 << 18),
            "slowdown",
        ),
        (
            FaultSpec {
                device_lost: 0.3,
                ..FaultSpec::none()
            },
            "lost",
        ),
    ]
}

fn mix_rows(h: &mut Fnv, rows: &[Vec<i64>]) {
    write!(h, "rows={};", rows.len()).unwrap();
    for row in rows {
        write!(h, "{row:?}").unwrap();
    }
}

fn mix_stats(h: &mut Fnv, stats: &RecoveryStats) {
    write!(h, "stats={stats:?};").unwrap();
}

fn single_device_digest(
    db: &Arc<TpchDb>,
    q: QueryId,
    mode: ExecMode,
    policy: Option<&RecoveryPolicy>,
    spec: &FaultSpec,
) -> u64 {
    let plan = plan_for(db, q);
    let device = amd_a10();
    let cfg = QueryConfig::default_for(&device, &plan).with_overlap_slices(2);
    let mut ctx = ExecContext::with_shared(device, db.clone());
    ctx.sim.attach_faults(FaultPlan::new(spec.clone(), SEED));
    let rec = Recorder::new();
    ctx.sim.attach_recorder(rec.clone());
    let result = try_run_query_recovering(&mut ctx, &plan, mode, &cfg, &ExecLimits::none(), policy);
    let mut h = Fnv::new();
    match &result {
        Ok(run) => {
            mix_rows(&mut h, &run.output.rows);
            write!(h, "cycles={};per_stage={:?};", run.cycles, run.per_stage).unwrap();
            mix_stats(&mut h, &run.recovery);
        }
        Err(e) => write!(h, "err={e};").unwrap(),
    }
    write!(h, "trace={:?}", rec.dump()).unwrap();
    h.0
}

/// Every shard's straggler deadline is its stage's fault-free wall
/// time, so slowdown windows and retry storms trip hedges while clean
/// shards do not.
fn hedge_from(clean_stage_cycles: &[u64], devices: usize, stages: usize) -> HedgePlan {
    HedgePlan::new(
        (0..stages)
            .map(|s| vec![clean_stage_cycles[s] as f64; devices])
            .collect(),
        1.0,
    )
}

fn sharded_digest(
    db: &Arc<TpchDb>,
    pool: &DevicePool,
    q: QueryId,
    shard: &ShardPlan,
    policy: Option<&RecoveryPolicy>,
    spec: &FaultSpec,
    hedge: Option<&HedgePlan>,
) -> u64 {
    let plan = plan_for(db, q);
    let assignment = ShardAssignment::round_robin(pool, &plan);
    let faults = ShardFaults {
        spec: spec.clone(),
        seed: SEED,
    };
    let result = try_run_query_sharded(
        pool,
        db,
        &plan,
        ExecMode::Gpl,
        shard,
        &assignment,
        &ExecLimits::none(),
        policy,
        Some(&faults),
        hedge,
        None,
    );
    let mut h = Fnv::new();
    match &result {
        Ok(run) => {
            mix_rows(&mut h, &run.output.rows);
            write!(
                h,
                "cycles={};stage_cycles={:?};",
                run.cycles, run.stage_cycles
            )
            .unwrap();
            mix_stats(&mut h, &run.recovery);
            for d in &run.per_device {
                write!(
                    h,
                    "dev={}:{}:{}:{:?};",
                    d.device, d.cycles, d.lost, d.per_stage
                )
                .unwrap();
            }
        }
        Err(e) => write!(h, "err={e};").unwrap(),
    }
    h.0
}

fn db() -> Arc<TpchDb> {
    static DB: OnceLock<Arc<TpchDb>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(TpchDb::at_scale(0.005))).clone()
}

/// Every arm of query `q`, one `label digest` line each.
fn actual_table(q: QueryId) -> String {
    let db = db();
    let mut out = String::new();
    for (mode, m) in modes() {
        for (policy, p) in policies() {
            for (spec, s) in single_device_specs() {
                let d = single_device_digest(&db, q, mode, policy.as_ref(), &spec);
                writeln!(out, "single/{}/{m}/{p}/{s} {d:016x}", q.name()).unwrap();
            }
        }
    }
    let pool = DevicePool::default_pool();
    let plan = plan_for(&db, q);
    let shard_policies = [
        (Some(RecoveryPolicy::default()), "default"),
        (Some(RecoveryPolicy::default().no_fallback()), "nofallback"),
        (None, "none"),
    ];
    for shard in [ShardPlan::range(2), ShardPlan::range(3)] {
        let clean = try_run_query_sharded(
            &pool,
            &db,
            &plan,
            ExecMode::Gpl,
            &shard,
            &ShardAssignment::round_robin(&pool, &plan),
            &ExecLimits::none(),
            None,
            None,
            None,
            None,
        )
        .expect("fault-free sharded run");
        let hedge = hedge_from(&clean.stage_cycles, pool.len(), plan.stages.len());
        for (policy, p) in &shard_policies {
            for (spec, s) in shard_specs() {
                for (h, hname) in [(None, "nohedge"), (Some(&hedge), "hedge")] {
                    let d = sharded_digest(&db, &pool, q, &shard, policy.as_ref(), &spec, h);
                    writeln!(
                        out,
                        "shard/{}/{}/{p}/{s}/{hname} {d:016x}",
                        q.name(),
                        shard.cache_key()
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// Compare query `q`'s arms against the pinned table, listing every
/// moved, new or missing entry.
fn check(q: QueryId) {
    let actual = actual_table(q);
    let tag = format!("/{}/", q.name());
    let expected: BTreeMap<&str, &str> = EXPECTED
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(label, _)| label.contains(&tag))
        .collect();
    let got: BTreeMap<&str, &str> = actual.lines().filter_map(|l| l.split_once(' ')).collect();
    let mut moved = Vec::new();
    for (label, digest) in &got {
        match expected.get(label) {
            Some(want) if want == digest => {}
            Some(want) => moved.push(format!("{label}: {want} -> {digest}")),
            None => moved.push(format!("{label}: (new) {digest}")),
        }
    }
    for label in expected.keys().filter(|l| !got.contains_key(*l)) {
        moved.push(format!("{label}: removed"));
    }
    if moved.is_empty() {
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("recovery_golden");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join(format!("{}.txt", q.name()));
    std::fs::write(&path, &actual).expect("write the actual table");
    panic!(
        "{} {} recovery digest(s) moved (actual table written to {}):\n{}",
        moved.len(),
        q.name(),
        path.display(),
        moved.join("\n")
    );
}

#[test]
fn q1_recovery_is_pinned() {
    check(QueryId::Q1);
}

#[test]
fn q3_recovery_is_pinned() {
    check(QueryId::Q3);
}

#[test]
fn q5_recovery_is_pinned() {
    check(QueryId::Q5);
}

#[test]
fn q6_recovery_is_pinned() {
    check(QueryId::Q6);
}

#[test]
fn q7_recovery_is_pinned() {
    check(QueryId::Q7);
}

#[test]
fn q8_recovery_is_pinned() {
    check(QueryId::Q8);
}

#[test]
fn q9_recovery_is_pinned() {
    check(QueryId::Q9);
}

#[test]
fn q10_recovery_is_pinned() {
    check(QueryId::Q10);
}

#[test]
fn q12_recovery_is_pinned() {
    check(QueryId::Q12);
}

#[test]
fn q14_recovery_is_pinned() {
    check(QueryId::Q14);
}

#[test]
fn listing1_recovery_is_pinned() {
    check(QueryId::Listing1);
}

/// The per-query tests above cover the whole TPC-H corpus, and the
/// pinned table holds entries for every one of them.
#[test]
fn the_pinned_table_covers_every_plan() {
    assert_eq!(QueryId::all().len(), 11, "add a test for the new plan");
    for q in QueryId::all() {
        let tag = format!("/{}/", q.name());
        assert!(EXPECTED.lines().any(|l| l.contains(&tag)), "{}", q.name());
    }
}
