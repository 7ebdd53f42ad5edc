//! End-to-end and per-layer benchmark of the SQL-to-rows path.
//!
//! One run sets up a workload (see [`workload`]), drives its request
//! stream in a closed loop for a fixed host time (see [`drive`]),
//! checks every answer (see [`check`]) and reports end-to-end metrics
//! on two planes: *host* (how fast the reproduction runs) and
//! *simulated* (how fast the modelled GPU runs the query). With tracing
//! on, a second, sequential pass over the same stream times each
//! layer's public calls (see [`trace`]). `README.md` in this directory
//! explains the workloads and the metrics.

pub mod check;
pub mod drive;
pub mod trace;
pub mod workload;

use check::{digest, guard_across_runs, Answers};
use drive::{Phase, Sample};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use trace::Traced;
use workload::{setup, stream, Seeds, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Minimum host seconds of the untraced loop; the traced loop runs
    /// for half as long.
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable report, printed before the result line.
    pub report: String,
    /// Spans of the traced run as a Chrome trace.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Worker threads and outstanding requests of the served workloads.
fn workers() -> usize {
    nproc().min(8)
}

/// Set up one workload, drive it, check every answer and measure.
pub fn run(opts: &Options) -> Outcome {
    let w = &opts.workload;
    let seeds = Seeds::from(opts.seed);
    let workers = workers();
    let reqs = stream(w, seeds);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let _ = writeln!(report, "{}", host_fingerprint());

    let env = setup(w, seeds, workers);
    let mut setups = vec![[env.gen_s, env.gamma_s, env.start_s, env.setup_s()]];

    let mut answers = Answers::new(reqs.len());
    let steal0 = host_steal_s();
    let phase = match &env.server {
        Some(server) => drive::run_served(
            server,
            env.config.as_ref().is_some_and(|c| c.sharding.is_some()),
            workers,
            &reqs,
            opts.seconds,
            &mut answers,
        ),
        None => drive::run_direct(&env, &reqs, opts.seconds, &mut answers),
    };
    let steal_s = host_steal_s() - steal0;
    // Peak memory of one set-up plus the timed loop: the correctness
    // check and the traced run that follow are the benchmark's own.
    let peak_rss_mb = peak_rss_mb();
    let traced = opts
        .trace
        .then(|| trace::run(w, &env, &reqs, opts.seconds / 2.0, &answers));

    let refs = check::references(&env, &reqs);
    let mismatch = answers.mismatches(&refs);
    let bad = |s: &Sample| s.error.is_some() || s.diverged || mismatch[s.index];
    let failed_untraced = phase.samples.iter().filter(|s| bad(s)).count();
    let mut attempted = phase.samples.len();
    let mut failed = failed_untraced;
    if let Some(t) = &traced {
        let failed_traced = t
            .outcomes
            .iter()
            .filter(|(i, ok)| !ok || mismatch[*i])
            .count();
        if failed_traced > 0 {
            let _ = writeln!(
                report,
                "FAILED: {failed_traced} traced requests erred or differ from the untraced answers"
            );
        }
        attempted += t.outcomes.len();
        failed += failed_traced;
    }
    for (s, _) in phase.samples.iter().filter(|s| bad(s)).zip(0..5) {
        let why = s.error.clone().unwrap_or_else(|| {
            if s.diverged {
                "answer differs from an earlier answer to the same request".into()
            } else {
                "rows differ from the reference".into()
            }
        });
        let _ = writeln!(report, "FAILED request {}: {why}", reqs[s.index].id);
    }

    // The simulated plane must repeat exactly for this seed.
    let cycles = answers.cycles();
    let mut correct = failed == 0;
    let mut guards = vec![(
        format!("{}-seed{}-cycles", w.name(), opts.seed),
        format!("{:016x}", digest(cycles.iter().copied())),
    )];
    if let Some(t) = &traced {
        guards.push((
            format!("{}-seed{}-counts", w.name(), opts.seed),
            format!("{:?}", t.counts.words()),
        ));
    }
    for (key, values) in &guards {
        match guard_across_runs(key, values) {
            None => {}
            Some(prev) => {
                correct = false;
                let _ = writeln!(
                    report,
                    "DETERMINISM: {key} differs from an earlier run of this binary: was {prev}, now {values}"
                );
            }
        }
    }

    // The further set-ups that `setup_s` takes the median of, each
    // dropped at once.
    let mut sim_ms: Vec<f64> = cycles.iter().map(|&c| env.spec.cycles_to_ms(c)).collect();
    drop(env);
    for _ in 1..SETUP_REPS {
        let e = setup(w, seeds, workers);
        setups.push([e.gen_s, e.gamma_s, e.start_s, e.setup_s()]);
    }
    let setup_med = |k: usize| median(setups.iter().map(|s| s[k]).collect());

    let qps = (phase.samples.len() - failed_untraced) as f64 / phase.elapsed.as_secs_f64();
    let mut lat: Vec<f64> = phase.samples.iter().map(|s| ms(s.latency)).collect();
    let beyond_p90 = lat.len() - rank(lat.len(), 90);
    let _ = writeln!(
        report,
        "untraced: {} requests ({} per pass) in {:.3} s, {} outstanding at a time; {} latency samples beyond p90",
        phase.samples.len(),
        reqs.len(),
        phase.elapsed.as_secs_f64(),
        phase.workers,
        beyond_p90,
    );
    // Time the hypervisor gave this machine's CPUs to other guests: a
    // slow run with high steal was slowed by its neighbours.
    let _ = writeln!(
        report,
        "host steal during the timed loop: {steal_s:.2} CPU-s ({:.1}% of {} CPUs)",
        100.0 * steal_s / (phase.elapsed.as_secs_f64() * nproc() as f64),
        nproc(),
    );
    let _ = writeln!(
        report,
        "set-up (median of {SETUP_REPS}): generation {:.3} s, Γ calibration {:.3} s, server start {:.4} s",
        setup_med(0),
        setup_med(1),
        setup_med(2),
    );

    let mut metrics = Vec::new();
    let mut m = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        })
    };
    if !opts.trace {
        m("qps", qps, "1/s");
        m("latency_p50_ms", percentile(&mut lat, 50), "ms");
        m("latency_p90_ms", percentile(&mut lat, 90), "ms");
        m("sim_latency_p50_ms", percentile(&mut sim_ms, 50), "ms");
        m("sim_latency_p90_ms", percentile(&mut sim_ms, 90), "ms");
        m("setup_s", setup_med(3), "s");
        m("peak_rss_mb", peak_rss_mb, "MB");
        m(
            "ok_ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }
    let mut trace_json = None;
    if let Some(t) = &traced {
        layers(
            &mut m,
            &mut report,
            t,
            &phase,
            qps,
            setup_med(0),
            setup_med(1),
        );
        trace_json = Some(t.tracer.chrome_json());
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
        trace_json,
    }
}

/// The per-layer metrics and the self-time table of the traced run.
fn layers(
    m: &mut impl FnMut(&'static str, f64, &'static str),
    report: &mut String,
    t: &Traced,
    phase: &Phase,
    qps_untraced: f64,
    gen_s: f64,
    gamma_s: f64,
) {
    let times = t.tracer.self_times();
    let wall = t.wall.as_secs_f64();
    let self_s = |name: &str| times.get(name).map_or(0.0, |(d, _)| d.as_secs_f64());
    let per_call = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |(d, n)| d.as_secs_f64() / *n as f64)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &t.counts;
    let exec_s = self_s("core.exec") + self_s("shard.exec");
    let ok = t.outcomes.iter().filter(|(_, ok)| *ok).count();
    let untraced_busy = phase.busy.as_secs_f64() / phase.samples.len().max(1) as f64;
    let traced_per_request = wall / t.requests.max(1) as f64;
    let covered: f64 = times.values().map(|(d, _)| d.as_secs_f64()).sum();

    m("tpch.gen_s", gen_s, "s");
    m("model.gamma_s", gamma_s, "s");
    m("sql.compile_us", per_call("sql.compile") * 1e6, "us");
    m("model.joinopt_ms", per_call("model.joinopt") * 1e3, "ms");
    m(
        "model.joinopt_share",
        ratio(self_s("model.joinopt"), wall),
        "ratio",
    );
    m("model.stats_ms", per_call("model.stats") * 1e3, "ms");
    m("model.build_ms", per_call("model.build") * 1e3, "ms");
    m("model.search_ms", per_call("model.search") * 1e3, "ms");
    m(
        "model.search_share",
        ratio(self_s("model.search"), wall),
        "ratio",
    );
    m("model.search_evals", c.search_evals as f64, "count");
    m(
        "model.search_ns_per_eval",
        ratio(self_s("model.search") * 1e9, t.all.search_evals as f64),
        "ns/eval",
    );
    m("model.eq8_err", t.eq8_err(), "ratio");
    m("model.place_ms", per_call("model.place") * 1e3, "ms");
    m("core.lower_us", per_call("core.lower") * 1e6, "us");
    m("core.ctx_us", per_call("core.ctx") * 1e6, "us");
    m("core.exec_ms", per_call("core.exec") * 1e3, "ms");
    m("core.exec_share", ratio(exec_s, wall), "ratio");
    m(
        "core.exec_ns_per_event",
        ratio(exec_s * 1e9, t.all.events as f64),
        "ns/event",
    );
    m(
        "core.exec_ns_per_line",
        ratio(exec_s * 1e9, t.all.cache_lines as f64),
        "ns/line",
    );
    m("sim.events", c.events as f64, "count");
    m("sim.launches", c.launches as f64, "count");
    m("sim.cache_lines", c.cache_lines as f64, "count");
    m(
        "sim.cache_hit_ratio",
        ratio(c.hit_lines as f64, c.cache_lines as f64),
        "ratio",
    );
    m("sim.writeback_lines", c.writeback_lines as f64, "count");
    m(
        "sim.intermediate_bytes",
        c.intermediate_bytes as f64,
        "bytes",
    );
    m("sim.channel_bytes", c.channel_bytes as f64, "bytes");
    m("recover.retries", c.retries as f64, "count");
    m("recover.fallbacks", c.fallbacks as f64, "count");
    m("recover.resumed_slices", c.resumed_slices as f64, "count");
    m(
        "recover.wasted_share",
        ratio(c.wasted_cycles as f64, c.cycles as f64),
        "ratio",
    );
    m("shard.exec_ms", per_call("shard.exec") * 1e3, "ms");
    m("shard.hedges", c.hedges as f64, "count");
    m(
        "shard.hedge_win_ratio",
        ratio(c.hedge_wins as f64, c.hedges as f64),
        "ratio",
    );
    let pct = |f: fn(&Sample) -> Duration, p: usize| {
        let mut v: Vec<f64> = phase.samples.iter().map(|s| ms(f(s))).collect();
        percentile(&mut v, p)
    };
    m("serve.queue_wait_p50_ms", pct(|s| s.queue, 50), "ms");
    m("serve.queue_wait_p90_ms", pct(|s| s.queue, 90), "ms");
    m("serve.plan_ms_p50", pct(|s| s.plan, 50), "ms");
    m("serve.exec_ms_p50", pct(|s| s.exec, 50), "ms");
    let (hits, misses) = phase.plan_cache;
    m(
        "serve.plan_cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m(
        "serve.worker_busy_ratio",
        ratio(
            phase.busy.as_secs_f64(),
            phase.elapsed.as_secs_f64() * phase.workers as f64,
        ),
        "ratio",
    );
    m("trace.qps_untraced", qps_untraced, "1/s");
    m("trace.qps_traced", ok as f64 / wall, "1/s");
    m(
        "trace.overhead",
        ratio(traced_per_request, untraced_busy) - 1.0,
        "ratio",
    );
    m("trace.coverage", ratio(covered, wall), "ratio");

    let _ = writeln!(
        report,
        "traced: {} requests in {wall:.3} s on one thread; untraced busy {:.3} ms/request, traced {:.3} ms/request; qps untraced {qps_untraced:.2} ({} workers), traced {:.2}",
        t.requests,
        untraced_busy * 1e3,
        traced_per_request * 1e3,
        phase.workers,
        ok as f64 / wall,
    );
    let _ = writeln!(
        report,
        "{:<16} {:>8} {:>10} {:>7} {:>12}",
        "layer", "calls", "self s", "share", "per call"
    );
    for (name, (d, n)) in &times {
        let s = d.as_secs_f64();
        let _ = writeln!(
            report,
            "{name:<16} {n:>8} {s:>10.4} {:>6.1}% {:>9.1} us",
            100.0 * ratio(s, wall),
            1e6 * s / *n as f64,
        );
    }
    let _ = writeln!(
        report,
        "{:<16} {:>8} {wall:>10.4} {:>6.1}%  (self times sum to {:.1}% of the traced wall)",
        "traced wall",
        "",
        100.0,
        100.0 * ratio(covered, wall),
    );
}

/// `<target dir>/<sub>`: beside the profile directory of the running
/// binary, inside the build directory of the checkout.
pub fn out_dir(sub: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join(sub))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Position (1-based) of the `pct`-th percentile among `n` sorted
/// samples: the smallest sample with more than `pct`% of the samples
/// at or below it, i.e. the (⌊n·pct/100⌋+1)-th (numpy's `higher`
/// method). The corpus streams mix
/// 10 queries in equal shares, so `n·pct/100` falls exactly between two
/// queries' groups of samples: this picks the fastest sample of the
/// group above instead of the slowest of the group below, which a
/// single contended or fault-struck request would move.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct / 100 + 1).min(n.max(1))
}

/// Sample quantile (see [`rank`]); 0 for no samples.
fn percentile(v: &mut [f64], pct: usize) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), pct) - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    percentile(&mut v, 50)
}

/// CPU seconds stolen from this machine by the hypervisor so far
/// (`steal` of `/proc/stat`, in 1/100 s); 0 where not reported.
fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model, `nproc` and build profile: wall numbers compare only
/// between runs with the same fingerprint.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = nproc();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host cpu=\"{cpu}\" nproc={nproc} profile={profile}")
}
