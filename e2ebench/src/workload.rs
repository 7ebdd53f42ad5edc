//! The three workloads: what each one sets up, and the request stream
//! it sends. Every input derives from the benchmark seed.

use gpl_core::{DevicePool, ExecMode, RecoveryPolicy, ShardPlan};
use gpl_model::GammaTable;
use gpl_serve::{BreakerConfig, FaultConfig, PlanCache, ServeConfig, Server, ShardServeConfig};
use gpl_sim::{DeviceSpec, FaultSpec};
use gpl_tpch::{QueryId, TpchDb, TpchParams};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Which path through the engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `gpl_sql::run_sql` on a fresh context per query, one client: the
    /// library / gplsh path, with no plan cache and no Eq. 8 search.
    TpchDirect,
    /// Distinct generated SQL through `gpl_serve::Server` on one device
    /// under injected faults: every request is planned anew.
    AdhocServe,
    /// The TPC-H corpus through `Server` sharded over the heterogeneous
    /// pool, with faults, hedging and the per-device breaker.
    ShardChaos,
}

/// One workload at one size.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    /// TPC-H scale factor of the generated database.
    pub sf: f64,
    /// Requests in one pass of the stream. The corpus workloads cycle
    /// the 10 corpus queries through it; `adhoc-serve` sends this many
    /// distinct generated queries.
    pub requests: usize,
}

/// Modes the `adhoc-serve` stream cycles through, by request index.
pub const ADHOC_MODES: [ExecMode; 4] = [
    ExecMode::Gpl,
    ExecMode::GplPipelined,
    ExecMode::Kbe,
    ExecMode::GplNoCe,
];

/// Plan-cache capacity of the `adhoc-serve` server. Smaller than the
/// stream, so LRU order makes every request of every pass a miss.
const ADHOC_PLAN_CACHE: usize = 64;

impl Workload {
    pub const NAMES: [&'static str; 3] = ["tpch-direct", "adhoc-serve", "shard-chaos"];

    /// The workload as the benchmark runs it.
    pub fn named(name: &str) -> Option<Workload> {
        // Without faults a corpus query repeats its cycles exactly, so
        // `tpch-direct` sends each once per pass. Under faults every
        // request id draws its own fault schedule; `shard-chaos` sends
        // each corpus query under 8 ids, so the simulated percentiles
        // rest on 80 draws rather than on which query one draw hit.
        // `adhoc-serve` sends enough generated queries that its
        // simulated percentiles vary little from seed to seed.
        let (kind, sf, requests) = match name {
            // Several times the 4 MB simulated L2 of the AMD A10.
            "tpch-direct" => (Kind::TpchDirect, 0.1, 10),
            // Fits in L2: planning, not data, dominates.
            "adhoc-serve" => (Kind::AdhocServe, 0.005, 2048),
            "shard-chaos" => (Kind::ShardChaos, 0.05, 80),
            _ => return None,
        };
        Some(Workload { kind, sf, requests })
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::TpchDirect => Self::NAMES[0],
            Kind::AdhocServe => Self::NAMES[1],
            Kind::ShardChaos => Self::NAMES[2],
        }
    }
}

/// Seeds of every random input, derived from the one benchmark seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub data: u64,
    pub sql: u64,
    pub faults: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Seeds {
        Seeds {
            data: splitmix(seed ^ 0xda7a),
            sql: splitmix(seed ^ 0x5e1),
            faults: splitmix(seed ^ 0xfa17),
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request of the stream. The id is the stream index, so a request
/// sent again in a later pass carries the same id and therefore the
/// same per-query fault schedule: its cycles and rows must repeat.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub sql: String,
    pub mode: ExecMode,
    /// The corpus query, whose CPU reference checks the rows.
    pub query: Option<QueryId>,
}

/// One pass of the workload's request stream.
pub fn stream(w: &Workload, seeds: Seeds) -> Vec<Request> {
    match w.kind {
        Kind::TpchDirect | Kind::ShardChaos => {
            let corpus: Vec<(QueryId, &str)> = QueryId::all()
                .into_iter()
                .filter_map(|q| gpl_sql::sql_for(q).map(|sql| (q, sql)))
                .collect();
            (0..w.requests)
                .map(|i| {
                    let (q, sql) = corpus[i % corpus.len()];
                    Request {
                        id: i as u64,
                        sql: sql.to_string(),
                        mode: ExecMode::Gpl,
                        query: Some(q),
                    }
                })
                .collect()
        }
        Kind::AdhocServe => {
            // Distinct text, so no request can hit the plan cache.
            let mut seen = HashSet::new();
            let sqls: Vec<String> = gpl_sql::random_workload(seeds.sql, 4 * w.requests)
                .into_iter()
                .filter(|s| seen.insert(PlanCache::normalize(s)))
                .take(w.requests)
                .collect();
            assert_eq!(sqls.len(), w.requests, "generator ran out of distinct SQL");
            sqls.into_iter()
                .enumerate()
                .map(|(i, sql)| Request {
                    id: i as u64,
                    sql,
                    mode: ADHOC_MODES[i % ADHOC_MODES.len()],
                    query: None,
                })
                .collect()
        }
    }
}

/// Everything set up before the first query can be sent.
pub struct Env {
    pub spec: DeviceSpec,
    pub db: Arc<TpchDb>,
    /// The serving configuration (the traced run reuses its fault,
    /// recovery and sharding settings); `None` for `tpch-direct`.
    pub config: Option<ServeConfig>,
    pub gamma: Option<Arc<GammaTable>>,
    pub server: Option<Server>,
    /// Host seconds spent in TPC-H generation, Γ calibration and
    /// `Server::start`.
    pub gen_s: f64,
    pub gamma_s: f64,
    pub start_s: f64,
}

impl Env {
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.gamma_s + self.start_s
    }
}

/// Generate the database, calibrate Γ in-process (never from a file
/// left by an earlier run) and start the server.
pub fn setup(w: &Workload, seeds: Seeds, workers: usize) -> Env {
    let spec = gpl_sim::amd_a10();
    let t = Instant::now();
    let db = Arc::new(TpchDb::generate(TpchParams {
        sf: w.sf,
        seed: seeds.data,
    }));
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (gamma, sharding) = match w.kind {
        Kind::TpchDirect => (None, None),
        Kind::AdhocServe => (Some(Arc::new(GammaTable::calibrate(&spec))), None),
        Kind::ShardChaos => {
            let pool = DevicePool::default_pool();
            let gammas: Vec<GammaTable> = pool
                .devices()
                .iter()
                .map(|d| GammaTable::calibrate(&d.spec))
                .collect();
            // Pool device 0 is the server's own device.
            assert_eq!(pool.devices()[0].spec.name, spec.name);
            let gamma = Arc::new(gammas[0].clone());
            let sc = ShardServeConfig {
                pool,
                gammas,
                plan: ShardPlan::range(2),
                hedge_threshold: Some(2.0),
            };
            (Some(gamma), Some(sc))
        }
    };
    let gamma_s = t.elapsed().as_secs_f64();

    let config = match w.kind {
        Kind::TpchDirect => None,
        Kind::AdhocServe => Some(ServeConfig {
            workers,
            plan_cache_capacity: ADHOC_PLAN_CACHE,
            faults: Some(FaultConfig {
                seed: seeds.faults,
                spec: FaultSpec::uniform(0.01),
            }),
            recovery: Some(RecoveryPolicy::with_retries(2).with_checkpoints(2)),
            ..ServeConfig::default()
        }),
        Kind::ShardChaos => Some(ServeConfig {
            workers,
            faults: Some(FaultConfig {
                seed: seeds.faults,
                spec: FaultSpec::uniform(0.005).with_slowdown(0.05, 4.0, 1 << 18),
            }),
            recovery: Some(RecoveryPolicy::default()),
            breaker: Some(BreakerConfig::default()),
            sharding,
            ..ServeConfig::default()
        }),
    };
    let t = Instant::now();
    let server = config.as_ref().map(|c| {
        Server::start(
            c.clone(),
            spec.clone(),
            db.clone(),
            gamma.clone().expect("served workloads calibrate Γ"),
        )
    });
    let start_s = t.elapsed().as_secs_f64();
    Env {
        spec,
        db,
        config,
        gamma,
        server,
        gen_s,
        gamma_s,
        start_s,
    }
}
