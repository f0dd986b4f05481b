//! Equivalence oracle for the incremental replanning engine.
//!
//! The incremental `SelfTuningScheduler` (shared base profiles, persistent
//! per-policy queue orders, fast paths) must be *bit-identical* to the
//! from-scratch reference algorithm it replaced: same schedules, same
//! decisions, same metrics, same switch statistics. These tests drive both
//! engines through full simulations — randomized workloads and the paper's
//! trace models — and demand exact equality.

use dynp_suite::prelude::*;
use dynp_suite::rms::{PlanWork, Planner};
use dynp_suite::sim::simulate_with_reservations;
use dynp_suite::workload::{traces, transform, FaultModel, FaultPlan};
use proptest::prelude::*;

/// Plan fan-out worker counts every equivalence claim is checked at.
/// 1 is the sequential path, 2 and 8 exercise the `std::thread::scope`
/// fan-out (8 > the 3 candidate policies, so some workers go idle).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn job(id: u32, submit_s: u64, width: u32, est_s: u64, actual_s: u64) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_secs(submit_s),
        width,
        SimDuration::from_secs(est_s),
        SimDuration::from_secs(actual_s),
    )
}

/// Builds the scheduler for one run: reference or incremental, the
/// latter with a forced fan-out worker count (min-depth 0 so even tiny
/// test queues take the threaded path when `threads > 1`).
fn scheduler_with(config: &DynPConfig, reference: bool, threads: usize) -> SelfTuningScheduler {
    let mut s = SelfTuningScheduler::new(config.clone());
    s.set_reference_mode(reference);
    s.set_planner_threads(threads);
    if threads > 1 {
        s.set_parallel_min_depth(0);
    }
    s
}

/// Runs one full simulation with the given config, incrementally or in
/// reference mode, and returns everything the run produced. A non-empty
/// `reqs` adds an advance-reservation stream, so both engines also plan
/// around admitted windows.
fn run_with(
    set: &JobSet,
    config: &DynPConfig,
    reference: bool,
    reqs: &[ReservationRequest],
    threads: usize,
) -> (
    SimMetrics,
    dynp_suite::core::SwitchStats,
    Policy,
    ReservationStats,
) {
    let mut s = scheduler_with(config, reference, threads);
    let d = simulate_with_reservations(set, &mut s, reqs, AdmissionConfig::default());
    (
        d.result.metrics,
        s.stats.clone(),
        s.active_policy(),
        d.reservations.stats,
    )
}

fn assert_equivalent_with(set: &JobSet, config: &DynPConfig, reqs: &[ReservationRequest]) {
    let (m_ref, stats_ref, active_ref, res_ref) = run_with(set, config, true, reqs, 1);
    for threads in THREAD_COUNTS {
        let (m_inc, stats_inc, active_inc, res_inc) = run_with(set, config, false, reqs, threads);
        let ctx = format!(
            "{} / {:?} / {:?} / {} reservation requests / {threads} planner threads",
            set.name,
            config.decider,
            config.decide_on,
            reqs.len()
        );
        assert_eq!(res_inc, res_ref, "{ctx}");
        assert_eq!(m_inc.sldwa.to_bits(), m_ref.sldwa.to_bits(), "{ctx}");
        assert_eq!(
            m_inc.utilization.to_bits(),
            m_ref.utilization.to_bits(),
            "{ctx}"
        );
        assert_eq!(m_inc.artww.to_bits(), m_ref.artww.to_bits(), "{ctx}");
        assert_eq!(m_inc.last_end_secs, m_ref.last_end_secs, "{ctx}");
        assert_eq!(stats_inc, stats_ref, "{ctx}");
        assert_eq!(active_inc, active_ref, "{ctx}");
    }
}

fn assert_equivalent(set: &JobSet, config: &DynPConfig) {
    assert_equivalent_with(set, config, &[]);
}

proptest! {
    /// Random workloads: incremental and reference runs are bit-identical
    /// for every decider and decide-on variant.
    #[test]
    fn incremental_equals_reference_on_random_workloads(
        raw in proptest::collection::vec((0u64..2_000, 1u32..17, 1u64..600, 1u64..600), 1..40),
        decider_pick in 0u8..4,
        submissions_only in 0u8..2,
    ) {
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, &(submit, width, est, actual))| {
                job(i as u32, submit, width, est, actual.min(est))
            })
            .collect();
        let set = JobSet::new("proptest", 16, jobs);
        let decider = match decider_pick {
            0 => DeciderKind::Simple,
            1 => DeciderKind::Advanced,
            2 => DeciderKind::Preferred { policy: Policy::Sjf, threshold: 0.0 },
            _ => DeciderKind::Preferred { policy: Policy::Ljf, threshold: 0.05 },
        };
        let mut config = DynPConfig::paper(decider);
        if submissions_only == 1 {
            config.decide_on = DecideOn::SubmissionsOnly;
        }
        assert_equivalent(&set, &config);
    }

    /// Reservation-bearing states: with a random request stream admitted
    /// into the book, the incremental engine still matches the reference
    /// bit-for-bit — including the admission verdicts themselves.
    #[test]
    fn incremental_equals_reference_with_reservations(
        raw in proptest::collection::vec((0u64..2_000, 1u32..17, 1u64..600, 1u64..600), 1..25),
        raw_reqs in proptest::collection::vec((0u64..2_000, 1u64..2_500, 30u64..600, 1u32..17), 1..10),
        decider_pick in 0u8..3,
        submissions_only in 0u8..2,
    ) {
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, &(submit, width, est, actual))| {
                job(i as u32, submit, width, est, actual.min(est))
            })
            .collect();
        let set = JobSet::new("proptest-res", 16, jobs);
        let mut reqs: Vec<ReservationRequest> = raw_reqs
            .iter()
            .enumerate()
            .map(|(i, &(submit, lead, dur, width))| ReservationRequest {
                id: i as u32,
                submit: SimTime::from_secs(submit),
                start: SimTime::from_secs(submit + lead),
                duration: SimDuration::from_secs(dur),
                width,
                cancel_at: (i % 3 == 0).then(|| SimTime::from_secs(submit + lead / 2)),
            })
            .collect();
        reqs.sort_by_key(|r| r.submit);
        let decider = match decider_pick {
            0 => DeciderKind::Simple,
            1 => DeciderKind::Advanced,
            _ => DeciderKind::Preferred { policy: Policy::Sjf, threshold: 0.0 },
        };
        let mut config = DynPConfig::paper(decider);
        if submissions_only == 1 {
            config.decide_on = DecideOn::SubmissionsOnly;
        }
        assert_equivalent_with(&set, &config, &reqs);
    }
}

/// The paper's trace models: incremental and reference runs are
/// bit-identical on realistic workloads.
#[test]
fn incremental_equals_reference_on_trace_models() {
    for model in traces::standard_models() {
        let set = transform::shrink(&model.generate(200, 7), 0.8);
        for decider in [
            DeciderKind::Advanced,
            DeciderKind::Preferred {
                policy: Policy::Sjf,
                threshold: 0.0,
            },
        ] {
            assert_equivalent(&set, &DynPConfig::paper(decider));
        }
    }
}

/// Trace models with a calibrated reservation stream riding along: the
/// two engines agree bit-for-bit on both the job metrics and the
/// admission outcome.
#[test]
fn incremental_equals_reference_on_trace_models_with_reservations() {
    for model in traces::standard_models() {
        let set = model.generate(150, 19);
        let reqs = ReservationModel::typical(0.2).generate(&set, 3);
        assert!(!reqs.is_empty());
        assert_equivalent_with(&set, &DynPConfig::paper(DeciderKind::Advanced), &reqs);
    }
}

/// Fault-bearing runs: with a calibrated chaos trace injected (node
/// outages, crashes, overruns, retries), the incremental engine still
/// matches the reference bit-for-bit at every fan-out worker count —
/// the fault replans go through the same batched planning path.
#[test]
fn incremental_equals_reference_under_faults() {
    use dynp_suite::sim::simulate_chaos;
    for model in traces::standard_models() {
        let set = transform::shrink(&model.generate(150, 23), 0.8);
        let plan = FaultModel::typical(20_000.0, 3_600.0, 0.05).generate(&set, 13);
        assert!(!plan.is_empty(), "fault model injected nothing");
        let config = DynPConfig::paper(DeciderKind::Advanced);
        let chaos_run = |reference: bool, threads: usize| {
            let mut s = scheduler_with(&config, reference, threads);
            let d = simulate_chaos(
                &set,
                &mut s,
                &[],
                AdmissionConfig::default(),
                &plan,
                dynp_suite::obs::Tracer::disabled(),
            );
            (d.result.metrics, s.stats.clone(), s.active_policy())
        };
        let (m_ref, stats_ref, active_ref) = chaos_run(true, 1);
        for threads in THREAD_COUNTS {
            let (m_inc, stats_inc, active_inc) = chaos_run(false, threads);
            let ctx = format!("{} / faults / {threads} planner threads", set.name);
            assert_eq!(m_inc.sldwa.to_bits(), m_ref.sldwa.to_bits(), "{ctx}");
            assert_eq!(
                m_inc.utilization.to_bits(),
                m_ref.utilization.to_bits(),
                "{ctx}"
            );
            assert_eq!(m_inc.last_end_secs, m_ref.last_end_secs, "{ctx}");
            assert_eq!(stats_inc, stats_ref, "{ctx}");
            assert_eq!(active_inc, active_ref, "{ctx}");
        }
    }
}

/// A fault-free chaos plan pins the identity: `simulate_chaos` with
/// `FaultPlan::none` must equal the plain reservation run bit-for-bit,
/// sequential and fanned out alike.
#[test]
fn fault_free_chaos_equals_plain_run_across_thread_counts() {
    use dynp_suite::sim::simulate_chaos;
    let set = transform::shrink(&traces::ctc().generate(200, 31), 0.8);
    let config = DynPConfig::paper(DeciderKind::Advanced);
    let plain = run_with(&set, &config, false, &[], 1);
    for threads in THREAD_COUNTS {
        let mut s = scheduler_with(&config, false, threads);
        let d = simulate_chaos(
            &set,
            &mut s,
            &[],
            AdmissionConfig::default(),
            &FaultPlan::none(),
            dynp_suite::obs::Tracer::disabled(),
        );
        assert_eq!(
            d.result.metrics.sldwa.to_bits(),
            plain.0.sldwa.to_bits(),
            "{threads} planner threads"
        );
        assert_eq!(s.stats, plain.1, "{threads} planner threads");
        assert_eq!(s.active_policy(), plain.2);
    }
}

/// Seeded determinism regression: the incremental engine reproduces its
/// own run exactly — identical metrics *and* identical switch statistics
/// — at every fan-out worker count, and all worker counts agree.
#[test]
fn incremental_run_is_deterministic() {
    let model = traces::ctc();
    let config = DynPConfig::paper(DeciderKind::Advanced);
    let once = |threads: usize| {
        let set = transform::shrink(&model.generate(300, 41), 0.8);
        let (m, stats, active, _) = run_with(&set, &config, false, &[], threads);
        (m, stats, active)
    };
    let (m1, stats1, active1) = once(1);
    for threads in THREAD_COUNTS {
        let (m2, stats2, active2) = once(threads);
        assert_eq!(m1.sldwa.to_bits(), m2.sldwa.to_bits());
        assert_eq!(m1.utilization.to_bits(), m2.utilization.to_bits());
        assert_eq!(&stats1, &stats2);
        assert_eq!(active1, active2);
    }
    assert!(stats1.decisions > 0);
}

/// Drives one random event sequence straight through the scheduler
/// interface, with the persistent per-policy plans on the edges of their
/// reuse guard: submissions and completions at the same instant,
/// running jobs overdue inside the running pad (time stops exactly at
/// an estimated end before the completion is processed), reservation
/// windows that open between two events, cancels (withdrawn without a
/// replan) and migrations (withdrawn with one) in the middle of the
/// queue, and over-wide jobs while nodes are down. At every replan the
/// incremental scheduler, a copy restored mid-run from a snapshot into a
/// fresh instance, and the from-scratch reference must return the same
/// schedule, statistics and active policy.
///
/// Each op is `(kind, a, b, c)`; time only moves forward and never past
/// the next completion, so every completion fires exactly at its end.
fn drive_guard_edges(ops: &[(u8, u64, u64, u32)], config: &DynPConfig) -> PlanWork {
    let machine = 8u32;
    let fresh = || {
        // Thread count from `DYNP_PLANNER_THREADS` or the host; depth 0
        // so the fan-out runs whenever more than one worker resolves.
        let mut s = SelfTuningScheduler::new(config.clone());
        s.set_parallel_min_depth(0);
        s
    };
    let mut incremental = fresh();
    let mut restored = fresh();
    let mut reference = SelfTuningScheduler::new(config.clone());
    reference.set_reference_mode(true);
    let mut state = RmsState::new(machine);
    let mut probe = Planner::new();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u32;
    for (step, &(kind, a, b, c)) in ops.iter().enumerate() {
        let next_end = state.running().iter().map(|r| r.actual_end()).min();
        let advance = |now: SimTime, secs: u64| {
            let t = now + SimDuration::from_secs(secs);
            next_end.map_or(t, |end| t.min(end))
        };
        let pick = |n: usize| a as usize % n.max(1);
        let reason = match kind % 10 {
            0..=2 => {
                // Every fourth submission lands at the current instant.
                now = advance(now, if a % 4 == 0 { 0 } else { a % 40 });
                let estimate = 1 + b % 300;
                let actual = if b % 3 == 0 {
                    estimate
                } else {
                    1 + b % estimate
                };
                state.submit(Job::new(
                    JobId(next_id),
                    now,
                    1 + c % machine,
                    SimDuration::from_secs(estimate),
                    SimDuration::from_secs(actual),
                ));
                next_id += 1;
                ReplanReason::Submission
            }
            3 => {
                let Some(run) = state
                    .running()
                    .iter()
                    .min_by_key(|r| (r.actual_end(), r.job.id))
                    .copied()
                else {
                    continue;
                };
                now = run.actual_end();
                state.complete(run.job.id, now);
                ReplanReason::Completion
            }
            4 | 5 => {
                if state.waiting().is_empty() {
                    continue;
                }
                let id = state.waiting()[pick(state.waiting().len())].id;
                state.withdraw(id);
                if kind % 10 == 4 {
                    // A cancel withdraws without replanning.
                    continue;
                }
                ReplanReason::Submission
            }
            6 => {
                now = advance(now, a % 20);
                state.expire_reservations(now);
                let start = now + SimDuration::from_secs(b % 40);
                let duration = SimDuration::from_secs(10 + u64::from(c) % 100);
                let width = 1 + (a as u32) % machine;
                probe.prepare(
                    state.plan_capacity(),
                    now,
                    state.running(),
                    state.reservation_slice(),
                );
                if !probe.window_fits(start, duration, width) {
                    continue;
                }
                state.admit_reservation(start, duration, width);
                ReplanReason::Reservation
            }
            7 => {
                let node = pick(machine as usize) as u32;
                if state.is_node_down(node) || state.down_nodes() + 2 > machine {
                    continue;
                }
                if let Some(id) = state.node_down(node) {
                    let run = state.fail(id, now);
                    state.resubmit(run.job);
                }
                state.repair_reservations(now);
                ReplanReason::Fault
            }
            8 => {
                let Some(node) = (0..machine).find(|&n| state.is_node_down(n)) else {
                    continue;
                };
                state.node_up(node);
                ReplanReason::Fault
            }
            _ => {
                let snap = restored.snapshot().expect("dynP snapshots");
                restored = fresh();
                restored.restore(&snap);
                continue;
            }
        };
        let want = reference.replan(&state, now, reason);
        for (name, s) in [
            ("incremental", &mut incremental),
            ("restored", &mut restored),
        ] {
            let got = s.replan(&state, now, reason);
            assert_eq!(
                got.entries, want.entries,
                "{name} schedule, step {step} at {now:?}"
            );
            assert_eq!(s.stats, reference.stats, "{name} stats, step {step}");
            assert_eq!(
                s.active_policy(),
                reference.active_policy(),
                "{name}, step {step}"
            );
        }
        let due: Vec<JobId> = want.due(now).map(|e| e.job.id).collect();
        for id in due {
            state.start(id, now);
        }
    }
    incremental.plan_work
}

proptest! {
    /// The guard-edge event sequences of [`drive_guard_edges`] under
    /// every decider and both decide-on variants.
    #[test]
    fn persistent_plans_equal_reference_on_guard_edges(
        ops in proptest::collection::vec((0u8..10, 0u64..1_000, 0u64..1_000, 0u32..100), 1..150),
        decider_pick in 0u8..3,
        submissions_only in 0u8..2,
    ) {
        let decider = match decider_pick {
            0 => DeciderKind::Simple,
            1 => DeciderKind::Advanced,
            _ => DeciderKind::Preferred { policy: Policy::Ljf, threshold: 0.05 },
        };
        let mut config = DynPConfig::paper(decider);
        if submissions_only == 1 {
            config.decide_on = DecideOn::SubmissionsOnly;
        }
        drive_guard_edges(&ops, &config);
    }
}

/// The guard-edge driver reaches the reuse path: on a long submission-
/// heavy sequence the persistent plans keep and release entries.
#[test]
fn guard_edge_driver_exercises_reuse_and_release() {
    let ops: Vec<(u8, u64, u64, u32)> = (0..400u64)
        .map(|i| {
            let kind = [0u8, 1, 2, 0, 3, 5, 0, 6, 1, 4, 2, 9, 0, 7, 1, 8][i as usize % 16];
            (
                kind,
                (i * 7919) % 1_000,
                (i * 104_729) % 1_000,
                (i * 31) as u32 % 100,
            )
        })
        .collect();
    let work = drive_guard_edges(&ops, &DynPConfig::paper(DeciderKind::Advanced));
    assert!(work.reused > 0 && work.released > 0, "{work:?}");
}

/// The plan-work counters on one seeded saturated trace-model cell
/// (CTC at shrinking factor 0.7): pinned exactly, equal at every
/// fan-out worker count, with more than a fifth of the per-policy
/// entries a from-scratch step would place kept from the previous plan
/// instead. The reference engine plans outside the batch and counts
/// nothing.
#[test]
fn plan_work_counters_are_pinned_on_a_saturated_cell() {
    let set = transform::shrink(&traces::ctc().generate(400, 1), 0.7);
    let config = DynPConfig::paper(DeciderKind::Advanced);
    for threads in THREAD_COUNTS {
        let mut s = scheduler_with(&config, false, threads);
        let _ = simulate_with_reservations(&set, &mut s, &[], AdmissionConfig::default());
        let work = s.plan_work;
        assert_eq!(
            work,
            PlanWork {
                placed: 8_754,
                reused: 3_540,
                released: 376,
            },
            "{threads} planner threads"
        );
        assert!(work.reused * 5 >= work.placed + work.reused, "{work:?}");
    }
    let mut reference = scheduler_with(&config, true, 1);
    let _ = simulate_with_reservations(&set, &mut reference, &[], AdmissionConfig::default());
    assert_eq!(reference.plan_work, PlanWork::default());
}
