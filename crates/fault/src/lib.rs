//! `dox-fault` — deterministic fault injection and recovery.
//!
//! The paper's pipeline ran unattended for weeks against live, unreliable
//! services (pastebin's API, chan boards, OSN profile pages — §3.1.1,
//! §3.1.5). This crate gives the reproduction the same adversarial
//! weather, without giving up the repo's determinism contract: every
//! injected fault, every backoff delay and every breaker transition is a
//! pure function of a seed and the operation's identity. No wall clock,
//! no entropy.
//!
//! Three layers:
//!
//! * [`plan`] — a seeded [`FaultPlan`]: which operations experience
//!   transient timeouts / 429s / 5xx, which fail permanently, which
//!   sources suffer outage windows, which engine chunks run slow or
//!   poisoned.
//! * [`backoff`] + [`breaker`] — the recovery policy: bounded exponential
//!   backoff with seeded jitter, and per-target circuit breakers
//!   (closed → open → half-open).
//! * [`stats`] — what happened: retry accounting for observability, and
//!   [`CoverageGaps`] for the report — exhausted retries surface as
//!   explicit missed-collection counts, never silent drops.
//!
//! The driver is [`run_op`]: it walks one operation through the plan and
//! the policy in *simulated* time, returning how many attempts it took
//! (and how long the recovery virtually waited) or a [`FaultError`] once
//! retries exhaust.
//!
//! ```
//! use dox_fault::{run_op, FaultDomain, FaultPlan, FaultPlanConfig, FaultStats, RetryPolicy};
//!
//! let plan = FaultPlan::new(FaultPlanConfig {
//!     transient_ppm: 1_000_000, // every op fails at least once…
//!     max_transient_failures: 2,
//!     ..FaultPlanConfig::default()
//! });
//! let policy = RetryPolicy::default();
//! let mut stats = FaultStats::default();
//! let outcome = run_op(
//!     &plan, &policy, None, &mut stats,
//!     FaultDomain::Collect, "pastebin.com", 42, 100,
//! )
//! .expect("transient faults recover within the retry budget");
//! assert!(outcome.attempts > 1, "…but recovers deterministically");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod atomic;
pub mod backoff;
pub mod breaker;
pub mod plan;
pub mod stats;

pub use atomic::write_file_atomic;
pub use backoff::{Backoff, RetryPolicy};
pub use breaker::{BreakerConfig, BreakerSet, BreakerState, BreakerTransitions, CircuitBreaker};
pub use plan::{
    Fault, FaultDomain, FaultPlan, FaultPlanConfig, OutageWindow, StageDirective, StoreKillPoint,
};
pub use stats::{CoverageGaps, FaultStats};

use serde::value::Value;

/// The entries of a plan-file object, refusing a repeated key.
///
/// Plan-file types (`--fault-plan` files and the configs they embed) are
/// the workspace's only hand-written decoders that differ from the
/// derive: a missing key takes its default, so a partial plan is valid.
/// An unknown or repeated key is still refused, so a typo fails loudly
/// instead of silently meaning "default".
pub(crate) fn plan_entries(value: &Value) -> Option<&[(String, Value)]> {
    let entries = value.as_object()?;
    let mut keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    (keys.len() == entries.len()).then_some(entries)
}

/// SplitMix64 finalizer: the one hash every fault decision and jitter
/// draw derives from. Pure, seedable, entropy-free.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes — stable target-name hashing without pulling in
/// `dox-textkit` (this crate stays dependency-free below `serde`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An operation exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// Every attempt failed; `last` is the final fault observed.
    Exhausted {
        /// Which injection boundary the operation ran at.
        domain: FaultDomain,
        /// The target (source / network name) the operation addressed.
        target: String,
        /// The operation key (document id, probe key, chunk sequence).
        key: u64,
        /// Attempts made, including the first.
        attempts: u32,
        /// The fault the final attempt observed.
        last: Fault,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Exhausted {
                domain,
                target,
                key,
                attempts,
                ..
            } => write!(
                f,
                "{domain} op {key} against {target} still failing after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Exhausted { last, .. } => Some(last),
        }
    }
}

/// What a recovered operation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Attempts made, including the successful one.
    pub attempts: u32,
    /// Simulated ticks between the scheduled time and the attempt that
    /// succeeded (0 when the first attempt went through).
    pub delay: u64,
    /// Times this operation's failures tripped its circuit breaker open
    /// (always 0 without a breaker). Deterministic — breaker transitions
    /// are virtual-time functions — so trace hops can carry it.
    pub breaker_trips: u32,
}

/// Drive one operation through `plan` under `policy`, in simulated time.
///
/// The operation is identified by `(domain, target, key)` and scheduled
/// at tick `at`. Each failed attempt advances a *virtual* clock by the
/// backoff delay (stretched to honor `retry_after` hints and outage
/// windows), so an op retried past the end of an outage recovers and an
/// op inside a long outage exhausts — both deterministically.
///
/// `breaker`, when provided, is consulted before every attempt: while
/// open it shifts the attempt to the end of its cooldown (half-open
/// probe) rather than dropping the operation, so breakers shape retry
/// *timing*, never document fate.
// One op is genuinely eight independent facts (plan, policy, breaker,
// stats, and the four-part op identity); bundling them into a one-shot
// struct at every call site would only rename the arguments.
#[allow(clippy::too_many_arguments)]
pub fn run_op(
    plan: &FaultPlan,
    policy: &RetryPolicy,
    mut breaker: Option<&mut CircuitBreaker>,
    stats: &mut FaultStats,
    domain: FaultDomain,
    target: &str,
    key: u64,
    at: u64,
) -> Result<OpOutcome, FaultError> {
    stats.ops += 1;
    let opened_before = breaker.as_deref().map_or(0, |b| b.transitions().opened);
    let mut virtual_at = at;
    let mut attempt = 0u32;
    loop {
        if let Some(b) = breaker.as_deref_mut() {
            virtual_at = b.admit_at(virtual_at);
        }
        match plan.fault_for(domain, target, key, virtual_at, attempt) {
            None => {
                let opened_after = breaker.as_deref().map_or(0, |b| b.transitions().opened);
                if let Some(b) = breaker.as_deref_mut() {
                    b.on_success();
                }
                return Ok(OpOutcome {
                    attempts: attempt + 1,
                    delay: virtual_at.saturating_sub(at),
                    breaker_trips: u32::try_from(opened_after.saturating_sub(opened_before))
                        .unwrap_or(u32::MAX),
                });
            }
            Some(fault) => {
                stats.faults_injected += 1;
                if let Some(b) = breaker.as_deref_mut() {
                    b.on_failure(virtual_at);
                }
                if attempt >= policy.max_retries {
                    stats.exhausted += 1;
                    return Err(FaultError::Exhausted {
                        domain,
                        target: target.to_string(),
                        key,
                        attempts: attempt + 1,
                        last: fault,
                    });
                }
                stats.retries += 1;
                let mut next = virtual_at.saturating_add(policy.backoff.delay(attempt));
                match fault {
                    Fault::RateLimited { retry_after } => {
                        stats.rate_limit_waits += 1;
                        next = next.max(virtual_at.saturating_add(retry_after));
                    }
                    Fault::Outage { until } => next = next.max(until),
                    Fault::Timeout | Fault::ServerError { .. } => {}
                }
                virtual_at = next;
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan() -> FaultPlan {
        FaultPlan::new(FaultPlanConfig {
            transient_ppm: 400_000,
            max_transient_failures: 3,
            rate_limited_ppm: 300_000,
            ..FaultPlanConfig::default()
        })
    }

    #[test]
    fn healthy_plan_never_faults() {
        let plan = FaultPlan::healthy();
        let policy = RetryPolicy::default();
        let mut stats = FaultStats::default();
        for key in 0..500 {
            let out = run_op(
                &plan,
                &policy,
                None,
                &mut stats,
                FaultDomain::Collect,
                "pastebin.com",
                key,
                key * 7,
            )
            .expect("healthy plan");
            assert_eq!(out.attempts, 1);
            assert_eq!(out.delay, 0);
        }
        assert_eq!(stats.faults_injected, 0);
        assert_eq!(stats.ops, 500);
    }

    #[test]
    fn transient_faults_recover_within_budget() {
        let plan = noisy_plan();
        let policy = RetryPolicy::default();
        let mut stats = FaultStats::default();
        let mut saw_retry = false;
        for key in 0..2_000 {
            let out = run_op(
                &plan,
                &policy,
                None,
                &mut stats,
                FaultDomain::Collect,
                "4chan.org/b",
                key,
                0,
            )
            .expect("max_transient_failures <= max_retries recovers by construction");
            if out.attempts > 1 {
                saw_retry = true;
                assert!(out.delay > 0, "recovery must cost virtual time");
            }
        }
        assert!(saw_retry, "a 40% transient rate must hit some ops");
        assert_eq!(stats.exhausted, 0);
        assert!(stats.retries > 0);
    }

    #[test]
    fn hard_faults_exhaust_and_chain_their_cause() {
        let plan = FaultPlan::new(FaultPlanConfig {
            hard_ppm: 1_000_000,
            ..FaultPlanConfig::default()
        });
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let mut stats = FaultStats::default();
        let err = run_op(
            &plan,
            &policy,
            None,
            &mut stats,
            FaultDomain::Probe,
            "facebook.com",
            9,
            50,
        )
        .unwrap_err();
        let FaultError::Exhausted { attempts, .. } = &err;
        assert_eq!(*attempts, 3, "initial try + 2 retries");
        assert!(
            std::error::Error::source(&err).is_some(),
            "chains the fault"
        );
        assert_eq!(stats.exhausted, 1);
    }

    #[test]
    fn runs_are_byte_reproducible() {
        let run = || {
            let plan = noisy_plan();
            let policy = RetryPolicy::default();
            let mut stats = FaultStats::default();
            let outcomes: Vec<_> = (0..300)
                .map(|key| {
                    run_op(
                        &plan,
                        &policy,
                        None,
                        &mut stats,
                        FaultDomain::Collect,
                        "8ch.net/pol",
                        key,
                        key,
                    )
                })
                .collect();
            (outcomes, stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn outage_windows_recover_once_the_window_passes() {
        let plan = FaultPlan::new(FaultPlanConfig {
            outages: vec![OutageWindow {
                domain: FaultDomain::Collect,
                target: "pastebin.com".into(),
                from: 0,
                until: 100,
            }],
            ..FaultPlanConfig::default()
        });
        let policy = RetryPolicy::default();
        let mut stats = FaultStats::default();
        // Scheduled inside the window: the retry loop jumps to its end.
        let out = run_op(
            &plan,
            &policy,
            None,
            &mut stats,
            FaultDomain::Collect,
            "pastebin.com",
            1,
            10,
        )
        .expect("retries outlive the outage");
        assert!(out.delay >= 90, "waited for the window to close");
        // Unrelated target is untouched.
        let other = run_op(
            &plan,
            &policy,
            None,
            &mut stats,
            FaultDomain::Collect,
            "4chan.org/b",
            1,
            10,
        )
        .expect("no outage for this target");
        assert_eq!(other.attempts, 1);
    }

    #[test]
    fn breaker_opens_under_hard_failure_and_shifts_attempts() {
        let plan = FaultPlan::new(FaultPlanConfig {
            hard_ppm: 1_000_000,
            ..FaultPlanConfig::default()
        });
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let mut stats = FaultStats::default();
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: 1_000,
        });
        for key in 0..5 {
            let _ = run_op(
                &plan,
                &policy,
                Some(&mut b),
                &mut stats,
                FaultDomain::Collect,
                "pastebin.com",
                key,
                key,
            );
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.transitions().opened >= 1);
        assert_eq!(stats.exhausted, 5);
    }

    #[test]
    fn error_messages_name_the_boundary_without_leaking_content() {
        let err = FaultError::Exhausted {
            domain: FaultDomain::Probe,
            target: "instagram.com".into(),
            key: 7,
            attempts: 4,
            last: Fault::Timeout,
        };
        let msg = err.to_string();
        assert!(msg.contains("probe"));
        assert!(msg.contains("instagram.com"));
        assert!(msg.contains('4'));
    }
}
