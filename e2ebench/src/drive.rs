//! The untraced closed loops that produce the end-to-end metrics.
//!
//! Both loops send the stream in order, pass after pass, and stop at
//! the first pass boundary after `seconds`: whole passes keep every
//! request's share of the latency sample fixed, so percentiles do not
//! jump between requests as the run length varies.

use crate::check::{Answer, Answers};
use crate::workload::{Env, Request};
use gpl_core::ExecContext;
use gpl_serve::{QueryRequest, Server};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the stream.
    pub index: usize,
    /// Host time from the call (or `Server::submit`) until rows return.
    pub latency: Duration,
    /// The error, if the request failed.
    pub error: Option<String>,
    /// Whether the answer differed from an earlier answer to the same
    /// request.
    pub diverged: bool,
    /// The server's own timing of the request (zero off the server).
    pub queue: Duration,
    pub plan: Duration,
    pub exec: Duration,
}

/// What one closed loop did.
pub struct Phase {
    pub elapsed: Duration,
    pub samples: Vec<Sample>,
    /// Worker-busy host time (the loop's own time for one client).
    pub busy: Duration,
    pub workers: usize,
    /// Plan-cache `(hits, misses)` during the loop.
    pub plan_cache: (u64, u64),
}

/// Whether a loop that has sent `sent` requests of an `n`-request
/// stream, and started at `t0`, is done.
pub(crate) fn done(sent: usize, n: usize, t0: Instant, seconds: f64) -> bool {
    sent >= n && sent.is_multiple_of(n) && t0.elapsed().as_secs_f64() >= seconds
}

/// One client calling `gpl_sql::run_sql` on a fresh context per query.
pub fn run_direct(env: &Env, stream: &[Request], seconds: f64, answers: &mut Answers) -> Phase {
    let n = stream.len();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    let mut sent = 0;
    while !done(sent, n, t0, seconds) {
        let index = sent % n;
        let req = &stream[index];
        let t = Instant::now();
        let mut ctx = ExecContext::with_shared(env.spec.clone(), env.db.clone());
        let result = gpl_sql::run_sql(&mut ctx, &req.sql, req.mode);
        let latency = t.elapsed();
        let (error, diverged) = match result {
            Ok(run) => {
                let answer = Answer {
                    cycles: run.cycles,
                    output: run.output,
                };
                (None, !answers.record(index, answer))
            }
            Err(e) => (Some(e.to_string()), false),
        };
        samples.push(Sample {
            index,
            latency,
            error,
            diverged,
            queue: Duration::ZERO,
            plan: Duration::ZERO,
            exec: Duration::ZERO,
        });
        sent += 1;
    }
    let elapsed = t0.elapsed();
    Phase {
        elapsed,
        samples,
        busy: elapsed,
        workers: 1,
        plan_cache: (0, 0),
    }
}

/// One client keeping `depth` requests outstanding at the server.
pub fn run_served(
    server: &Server,
    sharded: bool,
    workers: usize,
    stream: &[Request],
    seconds: f64,
    answers: &mut Answers,
) -> Phase {
    let n = stream.len();
    let depth = workers;
    assert!(depth < n, "ids must be unique among outstanding requests");
    let cache_stats = || {
        let c = server.plan_cache();
        if sharded {
            c.shard_stats()
        } else {
            c.stats()
        }
    };
    let (hits0, misses0) = cache_stats();
    let busy0 = server.busy_wall();
    let mut samples = Vec::new();
    let mut outstanding: HashMap<u64, (usize, Instant)> = HashMap::new();
    let t0 = Instant::now();
    let mut sent = 0;
    let mut sending = true;
    loop {
        while sending && outstanding.len() < depth {
            if done(sent, n, t0, seconds) {
                sending = false;
                break;
            }
            let index = sent % n;
            let req = &stream[index];
            outstanding.insert(req.id, (index, Instant::now()));
            server.submit(QueryRequest::new(req.id, req.sql.clone(), req.mode));
            sent += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        let resp = server
            .collect(1)
            .pop()
            .expect("collect(1) returns one response");
        let (index, t) = outstanding
            .remove(&resp.id)
            .expect("response to an outstanding request");
        let latency = t.elapsed();
        let (error, diverged) = match resp.result {
            Ok(r) => {
                let answer = Answer {
                    cycles: r.cycles,
                    output: r.output,
                };
                (None, !answers.record(index, answer))
            }
            Err(e) => (Some(e.to_string()), false),
        };
        samples.push(Sample {
            index,
            latency,
            error,
            diverged,
            queue: resp.queue_wall,
            plan: resp.plan_wall,
            exec: resp.exec_wall,
        });
    }
    let elapsed = t0.elapsed();
    let (hits1, misses1) = cache_stats();
    Phase {
        elapsed,
        samples,
        busy: server.busy_wall() - busy0,
        workers,
        plan_cache: (hits1 - hits0, misses1 - misses0),
    }
}
