//! The recovery stack: segment retries, deterministic backoff, and
//! graceful degradation — one driver, [`drive`], shared by every unit
//! of retry in the system.
//!
//! GPL's pipelined segments fail as a unit — the fault plane
//! (`gpl_sim::fault`) guarantees a faulted launch had no functional side
//! effects — so the natural retry granularity is the *segment* (stage).
//! When a unit of work draws a fault, [`drive`] re-runs it on the same
//! mode up to [`RecoveryPolicy::max_retries`] times, separated by a
//! deterministic exponential backoff charged to the simulated clock.
//! When a mode's budget is exhausted, execution *degrades*: GPL falls
//! back to GPL-without-CE, then to KBE — the existing engines reused as
//! degraded modes, exactly the GPU→CPU fallback ladder production
//! engines run (PAPERS.md: "Accelerating Presto with GPUs"). Device
//! loss skips what is left of the ladder. Faults cost cycles; they
//! never change results.
//!
//! [`drive`] runs four units — a stage, a checkpoint slice of a stage,
//! a fused build→probe pair, and one shard on one pool device — and
//! hands exhaustion back to the caller, whose *exhaust rule* is the
//! only thing that differs between them (DESIGN.md §7). The usual rule
//! is [`last_resort`]: one more attempt on KBE with fault injection
//! *disarmed* (the hardened path — the analogue of falling back to the
//! CPU, outside the faulty device's blast radius), so recovery
//! terminates even at fault probability 1.

use crate::error::ExecError;
use crate::exec::{ExecContext, ExecLimits, ExecMode};
use gpl_obs::{Recorder, Value};
use gpl_sim::FaultRecord;

/// Retry/fallback knobs, all in deterministic units (attempt counts and
/// simulated cycles — never wall clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-attempts per mode after the first try (0 = fail straight to
    /// the next mode in the ladder).
    pub max_retries: u32,
    /// Backoff before retry `i` (1-based within a mode):
    /// `base * factor^(i-1)`, capped. Charged to the simulated clock.
    pub backoff_base_cycles: u64,
    pub backoff_factor: u32,
    pub backoff_cap_cycles: u64,
    /// Degrade through the mode ladder (GPL → GPL w/o CE → KBE) and run
    /// the disarmed last-resort KBE attempt. With `false`, exhausting
    /// the primary mode's retries surfaces the last fault as an error.
    pub fallback: bool,
    /// Slice-checkpoint resume (DESIGN.md §11): with `k >= 2`, a
    /// blocking stage executes as `k` row-range slices, each verified by
    /// a content checksum on completion; a faulted slice retries from
    /// the last verified checkpoint instead of re-running the stage
    /// from row 0. `0` (the default) keeps the PR 4 whole-stage retry.
    pub checkpoint_slices: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_base_cycles: 8_192,
            backoff_factor: 2,
            backoff_cap_cycles: 1 << 20,
            fallback: true,
            checkpoint_slices: 0,
        }
    }
}

impl RecoveryPolicy {
    pub fn with_retries(max_retries: u32) -> Self {
        RecoveryPolicy {
            max_retries,
            ..Default::default()
        }
    }

    pub fn no_fallback(mut self) -> Self {
        self.fallback = false;
        self
    }

    /// Enable slice-checkpoint resume with `k` slices per stage.
    pub fn with_checkpoints(mut self, k: u32) -> Self {
        self.checkpoint_slices = k;
        self
    }

    /// Backoff delay before the `attempt`-th retry (1-based) of a mode.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let mut d = self.backoff_base_cycles;
        for _ in 1..attempt {
            d = d.saturating_mul(self.backoff_factor as u64);
            if d >= self.backoff_cap_cycles {
                break;
            }
        }
        d.min(self.backoff_cap_cycles)
    }

    /// The degradation ladder starting at `mode`. Without `fallback`,
    /// only the primary mode is tried.
    pub fn ladder(&self, mode: ExecMode) -> Vec<ExecMode> {
        const FULL: [ExecMode; 4] = [
            ExecMode::GplPipelined,
            ExecMode::Gpl,
            ExecMode::GplNoCe,
            ExecMode::Kbe,
        ];
        if !self.fallback {
            return vec![mode];
        }
        let start = FULL.iter().position(|&m| m == mode);
        FULL[start.expect("every mode is on the ladder")..].to_vec()
    }
}

/// What recovery did for one query: all zeros / empty on a fault-free
/// run. Aggregated into the serving layer's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Same-mode re-attempts across all stages.
    pub retries: u64,
    /// Mode transitions taken (degradations, including the disarmed
    /// last-resort attempt).
    pub fallbacks: u64,
    /// Simulated cycles spent in backoff delays.
    pub backoff_cycles: u64,
    /// Simulated cycles lost to failed attempts + backoff (included in
    /// the query's total `cycles`).
    pub wasted_cycles: u64,
    /// Every fault the query survived (or died on), in order.
    pub faults: Vec<FaultRecord>,
    /// The most degraded mode any stage ended up executing on, when
    /// different from the requested mode.
    pub degraded_to: Option<ExecMode>,
    /// Speculative backup attempts launched (straggler hedging).
    pub hedges: u64,
    /// Hedges whose backup finished (modeled) before the straggling
    /// primary and won the race.
    pub hedge_wins: u64,
    /// Checkpoint slices whose completed work was *kept* across a fault
    /// (summed over every fault that found verified slices to resume
    /// from).
    pub resumed_slices: u64,
    /// Simulated cycles the kept slices represent — work a whole-stage
    /// retry would have re-run from row 0.
    pub checkpoint_saved_cycles: u64,
}

impl RecoveryStats {
    /// Whether anything at all went wrong (and was absorbed).
    pub fn eventful(&self) -> bool {
        !self.faults.is_empty() || self.retries > 0 || self.fallbacks > 0 || self.hedges > 0
    }
}

/// How a [`drive`] ended.
pub(crate) enum Driven<T> {
    /// An attempt succeeded, on the given rung of the ladder.
    Ran(T, ExecMode),
    /// Every rung ran out of retries, or the device was lost (`lost`)
    /// and the rest of the ladder was skipped. Carries the last fault.
    Exhausted { last: ExecError, lost: bool },
}

/// Run `attempt` down `ladder` under `policy`: `1 + max_retries`
/// attempts per mode, [`RecoveryPolicy::backoff_for`] charged to the
/// clock between same-mode attempts, a fallback into each next mode,
/// and an early exit on device loss. `limits` is checked before every
/// attempt against `spent` plus the waste so far. Every fault lands in
/// `stats` and, with a recorder, as a `fault` instant on the `recover`
/// track (beside the `retry` and `fallback` instants); `on_fault` then
/// runs for the caller's own bookkeeping. Errors that are not device
/// faults — timeouts, cancellation, deadlock, invalid configs —
/// propagate at once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<T>(
    ctx: &mut ExecContext,
    ladder: &[ExecMode],
    policy: &RecoveryPolicy,
    limits: &ExecLimits,
    spent: u64,
    stats: &mut RecoveryStats,
    rec: Option<&Recorder>,
    mut attempt: impl FnMut(&mut ExecContext, ExecMode) -> Result<T, ExecError>,
    mut on_fault: impl FnMut(&ExecContext, &mut RecoveryStats),
) -> Result<Driven<T>, ExecError> {
    let mut last = None;
    for (rung, &mode) in ladder.iter().enumerate() {
        for retry in 0..=policy.max_retries {
            if retry > 0 {
                stats.retries += 1;
                let delay = policy.backoff_for(retry);
                ctx.sim.advance(delay);
                stats.backoff_cycles += delay;
                stats.wasted_cycles += delay;
                instant(
                    rec,
                    ctx,
                    "retry",
                    vec![
                        ("attempt", Value::from(retry)),
                        ("backoff_cycles", Value::from(delay)),
                    ],
                );
            } else if rung > 0 {
                stats.fallbacks += 1;
                stats.degraded_to = Some(mode);
                instant(rec, ctx, "fallback", vec![("to", Value::from(mode.name()))]);
            }
            limits.check(spent + stats.wasted_cycles)?;
            let c0 = ctx.sim.clock();
            let err = match attempt(ctx, mode) {
                Ok(out) => return Ok(Driven::Ran(out, mode)),
                Err(e) => e,
            };
            let Some(record) = err.fault_record() else {
                return Err(err);
            };
            stats.wasted_cycles += ctx.sim.clock().saturating_sub(c0);
            instant(
                rec,
                ctx,
                "fault",
                vec![
                    ("kind", Value::from(record.kind.name())),
                    ("launch", Value::from(record.launch)),
                ],
            );
            stats.faults.push(record.clone());
            on_fault(ctx, stats);
            if matches!(err, ExecError::DeviceLost(_)) {
                // Retrying a lost device is futile.
                return Ok(Driven::Exhausted {
                    last: err,
                    lost: true,
                });
            }
            last = Some(err);
        }
    }
    Ok(Driven::Exhausted {
        last: last.expect("a ladder has at least one mode"),
        lost: false,
    })
}

/// The rung below every ladder: `attempt` once more on KBE with fault
/// injection disarmed, counted as a fallback.
pub(crate) fn last_resort<T>(
    ctx: &mut ExecContext,
    stats: &mut RecoveryStats,
    rec: Option<&Recorder>,
    attempt: impl FnOnce(&mut ExecContext, ExecMode) -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    stats.fallbacks += 1;
    stats.degraded_to = Some(ExecMode::Kbe);
    instant(
        rec,
        ctx,
        "fallback",
        vec![("to", Value::from("KBE (disarmed)"))],
    );
    let was_armed = ctx.sim.faults_armed();
    ctx.sim.set_faults_armed(false);
    let result = attempt(ctx, ExecMode::Kbe);
    ctx.sim.set_faults_armed(was_armed);
    result
}

/// Record a recovery decision on the `recover` track, at the device
/// clock.
pub(crate) fn instant(
    rec: Option<&Recorder>,
    ctx: &ExecContext,
    name: &str,
    args: Vec<(&'static str, Value)>,
) {
    if let Some(r) = rec {
        let t = r.track("recover");
        r.instant(t, "recover", name, ctx.sim.clock(), args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RecoveryPolicy {
            max_retries: 10,
            backoff_base_cycles: 100,
            backoff_factor: 2,
            backoff_cap_cycles: 500,
            fallback: true,
            checkpoint_slices: 0,
        };
        assert_eq!(p.backoff_for(1), 100);
        assert_eq!(p.backoff_for(2), 200);
        assert_eq!(p.backoff_for(3), 400);
        assert_eq!(p.backoff_for(4), 500, "capped");
        assert_eq!(p.backoff_for(30), 500, "no overflow");
    }

    #[test]
    fn ladder_degrades_toward_kbe() {
        let p = RecoveryPolicy::default();
        assert_eq!(
            p.ladder(ExecMode::GplPipelined),
            vec![
                ExecMode::GplPipelined,
                ExecMode::Gpl,
                ExecMode::GplNoCe,
                ExecMode::Kbe
            ]
        );
        assert_eq!(
            p.ladder(ExecMode::Gpl),
            vec![ExecMode::Gpl, ExecMode::GplNoCe, ExecMode::Kbe]
        );
        assert_eq!(
            p.ladder(ExecMode::GplNoCe),
            vec![ExecMode::GplNoCe, ExecMode::Kbe]
        );
        assert_eq!(p.ladder(ExecMode::Kbe), vec![ExecMode::Kbe]);
        assert_eq!(
            p.clone().no_fallback().ladder(ExecMode::Gpl),
            vec![ExecMode::Gpl]
        );
    }
}
