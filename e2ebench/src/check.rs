//! Correctness and determinism checks.
//!
//! * Rows: every request's first answer is compared with a reference —
//!   the CPU reference for corpus queries, a fault-free KBE run of the
//!   same compiled plan for generated SQL (the differential oracle the
//!   cross-engine suite trusts).
//! * Repeats: a request sent again (a later pass, or the traced run)
//!   must return exactly the cycles and rows of its first answer.
//! * Across runs: the simulated-plane values of a run are stored beside
//!   the benchmark binary, keyed by workload and seed; a later run of
//!   the same binary with the same seed must reproduce them exactly.

use crate::workload::{Env, Request};
use gpl_core::{try_run_query, ExecContext, ExecLimits, ExecMode, QueryConfig};
use gpl_tpch::{reference, QueryOutput};
use std::collections::HashMap;

/// A request's answer: simulated cycles and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub cycles: u64,
    pub output: QueryOutput,
}

/// The first answer to each request of the stream.
pub struct Answers {
    first: Vec<Option<Answer>>,
}

impl Answers {
    pub fn new(stream_len: usize) -> Answers {
        Answers {
            first: vec![None; stream_len],
        }
    }

    /// Record an answer to request `index`. Returns false when an
    /// earlier answer to the same request differs from it.
    pub fn record(&mut self, index: usize, answer: Answer) -> bool {
        match &self.first[index] {
            Some(prev) => *prev == answer,
            None => {
                self.first[index] = Some(answer);
                true
            }
        }
    }

    pub fn get(&self, index: usize) -> Option<&Answer> {
        self.first[index].as_ref()
    }

    /// Per request: whether its first answer's rows differ from the
    /// reference (false for a request never answered).
    pub fn mismatches(&self, references: &[QueryOutput]) -> Vec<bool> {
        self.first
            .iter()
            .zip(references)
            .map(|(a, want)| a.as_ref().is_some_and(|a| a.output != *want))
            .collect()
    }

    /// Simulated cycles of every answered request, in stream order.
    pub fn cycles(&self) -> Vec<u64> {
        self.first.iter().flatten().map(|a| a.cycles).collect()
    }
}

/// Expected rows of every request of the stream, computed once per
/// distinct SQL text.
pub fn references(env: &Env, stream: &[Request]) -> Vec<QueryOutput> {
    let mut memo: HashMap<&str, QueryOutput> = HashMap::new();
    stream
        .iter()
        .map(|req| {
            memo.entry(&req.sql)
                .or_insert_with(|| reference(env, req))
                .clone()
        })
        .collect()
}

fn reference(env: &Env, req: &Request) -> QueryOutput {
    match req.query {
        Some(q) => reference::run(&env.db, q),
        None => {
            let plan = gpl_sql::compile_optimized(&env.db, &req.sql)
                .unwrap_or_else(|e| panic!("generated SQL must compile: {e}"));
            let cfg = QueryConfig::default_for(&env.spec, &plan);
            let mut ctx = ExecContext::with_shared(env.spec.clone(), env.db.clone());
            try_run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg, &ExecLimits::none())
                .unwrap_or_else(|e| panic!("fault-free KBE oracle failed: {e}"))
                .output
        }
    }
}

/// FNV-1a over a sequence of words.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Compare `values` with those an earlier run of this same binary
/// stored under `key`, or store them if there are none. Returns the
/// stored line when it differs.
pub fn guard_across_runs(key: &str, values: &str) -> Option<String> {
    let path = crate::out_dir("e2ebench-guard")?.join(key);
    let stamp = binary_stamp();
    let line = format!("{stamp} {values}");
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.starts_with(&format!("{stamp} ")) => (prev != line).then_some(prev),
        _ => {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            // Written aside and renamed, so a run killed mid-write
            // leaves no truncated record behind.
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let _ = std::fs::write(&tmp, line).and_then(|()| std::fs::rename(&tmp, &path));
            None
        }
    }
}

/// Identifies the build: a rebuilt binary starts a fresh record.
fn binary_stamp() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{stream, Seeds, Workload};
    use gpl_tpch::{TpchDb, TpchParams};
    use std::sync::Arc;

    #[test]
    fn a_corrupted_expected_output_is_caught() {
        let env = Env {
            spec: gpl_sim::amd_a10(),
            db: Arc::new(TpchDb::generate(TpchParams { sf: 0.002, seed: 3 })),
            config: None,
            gamma: None,
            server: None,
            gen_s: 0.0,
            gamma_s: 0.0,
            start_s: 0.0,
        };
        let mut w = Workload::named("adhoc-serve").expect("known workload");
        w.requests = 4;
        let reqs = stream(&w, Seeds::from(1));
        let mut refs = references(&env, &reqs);
        // The answers come from the GPL engine, as in a real run.
        let mut answers = Answers::new(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let plan = gpl_sql::compile_optimized(&env.db, &req.sql).expect("compiles");
            let cfg = QueryConfig::default_for(&env.spec, &plan);
            let mut ctx = ExecContext::with_shared(env.spec.clone(), env.db.clone());
            let run = try_run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg, &ExecLimits::none())
                .expect("fault-free run");
            let answer = Answer {
                cycles: run.cycles,
                output: run.output,
            };
            assert!(answers.record(i, answer));
        }
        assert_eq!(answers.mismatches(&refs), vec![false; reqs.len()]);

        // Corrupt one expected value: exactly that request mismatches.
        let k = refs
            .iter()
            .position(|r| !r.rows.is_empty())
            .expect("some query returns rows");
        refs[k].rows[0][0] ^= 1;
        let mut want = vec![false; reqs.len()];
        want[k] = true;
        assert_eq!(answers.mismatches(&refs), want);
    }

    #[test]
    fn a_repeat_that_differs_is_caught() {
        let mut answers = Answers::new(1);
        let out = QueryOutput::new(vec!["x"], vec![vec![7]]);
        let a = Answer {
            cycles: 10,
            output: out.clone(),
        };
        assert!(answers.record(0, a.clone()));
        assert!(answers.record(0, a.clone()));
        assert!(!answers.record(0, Answer { cycles: 11, ..a }));
        let b = Answer {
            cycles: 10,
            output: QueryOutput::new(vec!["x"], vec![vec![8]]),
        };
        assert!(!answers.record(0, b));
    }
}
