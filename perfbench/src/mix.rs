//! The service workload's traffic: the `loadgen` user model (a Zipfian
//! population of users, each with a per-user job profile, arriving as
//! one global Poisson stream) plus a small share of `status` queries and
//! `cancel`s. The whole schedule is computed up front from the seed, so
//! the same seed always offers the same operations at the same due
//! times, whatever the daemon does.

use dynp_des::SimDuration;
use dynp_serve::SubmitSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use std::collections::HashMap;
use std::time::Duration;

/// Users in the Zipfian population.
pub const USERS: usize = 100;
/// Zipf exponent of the user pick.
pub const ZIPF_S: f64 = 1.1;
/// Probability that a user departs (and is replaced by a fresh profile)
/// after each submission.
pub const DEPARTURE: f64 = 0.02;
/// `status` queries per submission.
pub const STATUS_PER_SUBMIT: f64 = 0.05;
/// `cancel`s per submission.
pub const CANCEL_PER_SUBMIT: f64 = 0.02;
/// Seed of the user population's job profiles (`loadgen`'s default
/// seed). The population is pinned like the batch workloads' traces:
/// the Zipf head user alone sends a fifth of the jobs, so a fresh
/// profile draw per workload seed would swing the offered load several
/// fold. The workload seed drives arrivals, user picks, churn and run
/// times.
pub const PROFILE_SEED: u64 = 24_301;
/// A cancel names one of this many most recent submissions.
const CANCEL_WINDOW: u64 = 32;

/// One operation of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpKind {
    /// Submit a job.
    Submit(SubmitSpec),
    /// Query the service state (the read path).
    Status,
    /// Cancel a job by the index of an earlier submission.
    Cancel(u32),
}

/// An operation and when it is due, relative to the phase start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub due: Duration,
    pub kind: OpKind,
}

/// Normalized Zipf CDF over ranks `1..=users` with exponent `s`.
fn zipf_cdf(users: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=users)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

/// A job from a user's profile; the profile is deterministic in (user,
/// generation), the run time is drawn from `rng`.
fn profile_spec(user: u32, generation: u64, machine: u32, rng: &mut StdRng) -> SubmitSpec {
    let mix = PROFILE_SEED ^ ((user as u64) << 24) ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut prof = StdRng::seed_from_u64(mix);
    // Powers of two from 1 to 16; mean run time 30–300 simulated
    // seconds; users over-request by 1.2–3×, like real SWF traces.
    let width = (1u32 << prof.gen_range_u64(0, 5)).min(machine);
    let mean_ms = 30_000.0 + prof.gen::<f64>() * 270_000.0;
    let overestimate = 1.2 + prof.gen::<f64>() * 1.8;
    let exp = Exp::new(1.0 / mean_ms).expect("positive rate");
    let actual_ms = exp.sample(rng).clamp(1_000.0, 3_600_000.0) as u64;
    SubmitSpec {
        width,
        estimate: SimDuration::from_millis((actual_ms as f64 * overestimate) as u64),
        actual: SimDuration::from_millis(actual_ms),
        user,
    }
}

/// The open-loop schedule for `secs` seconds at `submit_rate`
/// submissions per second (queries and cancels come on top, as fixed
/// shares of it). Deterministic in all arguments.
pub fn schedule(seed: u64, submit_rate: f64, secs: f64, machine: u32) -> Vec<Op> {
    let total_rate = submit_rate * (1.0 + STATUS_PER_SUBMIT + CANCEL_PER_SUBMIT);
    let p_status = STATUS_PER_SUBMIT / (1.0 + STATUS_PER_SUBMIT + CANCEL_PER_SUBMIT);
    let p_cancel = CANCEL_PER_SUBMIT / (1.0 + STATUS_PER_SUBMIT + CANCEL_PER_SUBMIT);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e41_ce00 ^ submit_rate.to_bits());
    let inter = Exp::new(total_rate).expect("positive rate");
    let cdf = zipf_cdf(USERS, ZIPF_S);
    let mut generations: HashMap<u32, u64> = HashMap::new();
    let mut ops = Vec::new();
    let mut submits = 0u64;
    let mut at = 0.0f64;
    loop {
        at += inter.sample(&mut rng);
        if at >= secs {
            return ops;
        }
        let due = Duration::from_secs_f64(at);
        let u: f64 = rng.gen();
        let kind = if u < p_status {
            OpKind::Status
        } else if u < p_status + p_cancel && submits > 0 {
            let back = rng.gen_range_u64(0, submits.min(CANCEL_WINDOW));
            OpKind::Cancel((submits - 1 - back) as u32)
        } else {
            let pick: f64 = rng.gen();
            let user = cdf.partition_point(|&c| c <= pick).min(cdf.len() - 1) as u32;
            let generation = generations.entry(user).or_insert(0);
            let spec = profile_spec(user, *generation, machine, &mut rng);
            if rng.gen_bool(DEPARTURE) {
                *generation += 1;
            }
            submits += 1;
            OpKind::Submit(spec)
        };
        ops.push(Op { due, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(ops: &[Op]) -> (usize, usize, usize) {
        let submits = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Submit(_)))
            .count();
        let status = ops.iter().filter(|o| o.kind == OpKind::Status).count();
        (submits, status, ops.len() - submits - status)
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = schedule(7, 200.0, 5.0, 128);
        assert_eq!(a, schedule(7, 200.0, 5.0, 128));
        assert_ne!(a, schedule(8, 200.0, 5.0, 128));
        assert_ne!(a, schedule(7, 400.0, 5.0, 128));
    }

    #[test]
    fn rates_and_shares_match_the_configuration() {
        let ops = schedule(11, 400.0, 20.0, 128);
        let (submits, status, cancels) = counts(&ops);
        let expect = 400.0 * 20.0;
        assert!((submits as f64 - expect).abs() < 0.05 * expect, "{submits}");
        assert!((status as f64 / submits as f64 - STATUS_PER_SUBMIT).abs() < 0.01);
        assert!((cancels as f64 / submits as f64 - CANCEL_PER_SUBMIT).abs() < 0.01);
        assert!(ops.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(ops.iter().all(|o| o.due < Duration::from_secs(20)));
    }

    #[test]
    fn users_follow_zipf_and_jobs_fit_the_machine() {
        let ops = schedule(3, 500.0, 10.0, 8);
        let mut per_user = vec![0u32; USERS];
        let mut submitted = 0u32;
        for op in &ops {
            match op.kind {
                OpKind::Submit(s) => {
                    assert!(s.width >= 1 && s.width <= 8);
                    assert!(s.actual <= s.estimate);
                    per_user[s.user as usize] += 1;
                    submitted += 1;
                }
                OpKind::Cancel(i) => assert!(i < submitted),
                OpKind::Status => {}
            }
        }
        // The head user gets the largest share, far above uniform.
        assert_eq!(per_user.iter().max(), per_user.first());
        assert!(per_user[0] as f64 > 5.0 * submitted as f64 / USERS as f64);
    }
}
