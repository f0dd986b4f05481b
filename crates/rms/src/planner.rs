//! The earliest-fit planner: builds a full schedule for a queue in
//! policy order.
//!
//! The planner walks the ordered queue and gives each job the earliest
//! start time at which its width fits for its whole estimated run time,
//! given the running jobs and all previously placed queue jobs. Because
//! a later (lower-priority) job may slot into a gap *before* an earlier
//! job's reservation, "backfilling is done implicitly" — no separate
//! backfill pass exists, exactly as in planning-based systems like CCS.

use crate::naive::NaiveProfile;
use crate::policy::Policy;
use crate::profile::Profile;
use crate::schedule::{PlannedJob, Schedule};
use crate::state::{QueueChange, RunningJob};
use dynp_des::{SimDuration, SimTime};
use dynp_workload::Job;

/// Planning logic with a shared, per-event base profile.
///
/// At every scheduling event the base profile — running-job reservations
/// plus fixed reservation windows — is identical for every candidate
/// policy; only the queue order differs. [`Planner::prepare`] builds
/// that base once with an endpoint sweep, and each
/// [`Planner::plan_prepared`] call restores the working profile to the
/// prepared watermark with one `memcpy` before placing the queue.
///
/// The self-tuning step plans every candidate policy per event through
/// [`Planner::plan_prepared_batch`], which keeps each policy's plan —
/// its schedule and the working profile its pass left behind — across
/// events. Given what the queue did since ([`QueueDelta`]), it proves
/// the longest prefix of each cached plan that the event cannot move,
/// releases the rest from the working profile and re-places only that
/// suffix (DESIGN §10, "Persistent per-policy plans").
///
/// [`Planner::plan`] keeps the original one-shot signature (prepare +
/// plan in one call) and produces bit-identical schedules to
/// [`ReferencePlanner`], the retained from-scratch implementation.
#[derive(Debug)]
pub struct Planner {
    /// Working profile of the single-queue passes.
    profile: Profile,
    /// Shared base: running jobs + reservations as of `prepared_at`.
    base: Profile,
    /// Instant [`Planner::prepare`] was last called at.
    prepared_at: SimTime,
    /// Number of [`Planner::prepare`] calls so far.
    prepared_seq: u64,
    /// Scratch span list handed to the sweep (reused, no per-event
    /// allocation).
    spans: Vec<(SimTime, SimTime, u32)>,
    /// Scratch endpoint buffer for the sweep.
    events: Vec<(SimTime, i64)>,
    /// Per-policy persistent plans of [`Planner::plan_prepared_batch`],
    /// in the caller's slot order.
    plans: Vec<PolicyPlan>,
    /// The base `plans` were placed on; `prepare` swaps the current base
    /// in here when it is that base.
    plans_base: Profile,
    /// `prepared_seq` of the base `plans` were placed on; `None` when the
    /// plans cannot be reused.
    plans_seq: Option<u64>,
    /// `prepared_at` of the base `plans` were placed on.
    plans_at: SimTime,
    /// Scratch split of a [`QueueDelta`]: jobs that entered, jobs that
    /// left without starting, and started jobs with their start.
    entered: Vec<Job>,
    withdrawn: Vec<Job>,
    started: Vec<(Job, SimTime)>,
    /// Scratch for the base guard: `(start + estimate, width)` of the
    /// started jobs, sorted.
    raised: Vec<(SimTime, u32)>,
    /// Observability tracer (disabled by default); [`Planner::prepare`]
    /// is measured as a `"prepare"` wall-clock span.
    tracer: dynp_obs::Tracer,
}

/// Wall-clock observability of one per-policy planning pass inside
/// [`Planner::plan_prepared_batch`]: when the pass started (tracer
/// epoch-relative) and how long it ran. Zeroed when tracing is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanTiming {
    /// Start of the pass, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Duration of the pass in nanoseconds.
    pub dur_ns: u64,
}

/// What the waiting queue did since the previous
/// [`Planner::plan_prepared_batch`]: the tail of the state's queue change
/// log, and the running set the current base was prepared from (it tells
/// a start from a withdrawal, and gives the start time).
#[derive(Clone, Copy, Debug)]
pub struct QueueDelta<'a> {
    /// Queue changes since the previous batch, in occurrence order.
    pub changes: &'a [QueueChange],
    /// The running jobs passed to the current [`Planner::prepare`].
    pub running: &'a [RunningJob],
}

/// Per-policy placement work of planning batches, summed over policies.
/// A from-scratch batch places every entry; `placed + reused` is the
/// number of entries the batch's plans hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanWork {
    /// Entries placed with an earliest-fit search.
    pub placed: u64,
    /// Entries kept from the cached plan (the proven-unchanged prefix).
    pub reused: u64,
    /// Cached entries released from the working profile before their
    /// suffix was re-placed.
    pub released: u64,
}

impl PlanWork {
    /// Adds another batch's work to this total.
    pub fn add(&mut self, other: PlanWork) {
        self.placed += other.placed;
        self.reused += other.reused;
        self.released += other.released;
    }
}

/// One candidate policy's persistent plan: the schedule of its last pass
/// and the working profile that pass left behind (the base plus every
/// placement), plus this batch's reuse decision.
#[derive(Clone, Debug)]
struct PolicyPlan {
    policy: Policy,
    schedule: Schedule,
    profile: Profile,
    /// This batch's reuse point; `None` replans from the base.
    reuse: Option<Reuse>,
    /// Sorted indices into `schedule.entries` of the jobs that started
    /// since the cached pass.
    started: Vec<usize>,
    /// This batch's work.
    work: PlanWork,
}

/// Where a pass resumes a cached plan: cached entries from `cut` on are
/// released, and the queue is placed from `suffix_start` on.
#[derive(Clone, Copy, Debug)]
struct Reuse {
    cut: usize,
    suffix_start: usize,
}

/// Placement work below which [`Planner::plan_prepared_batch`] stays
/// sequential regardless of the requested worker count: per-policy
/// planning passes at shallow depths finish in microseconds, so thread
/// hand-off would cost more than it saves. The batch sums, per worker,
/// the entries its policies have left to place after reuse, and fans
/// out only when every worker's sum reaches this — so a full replan
/// fans out at a queue depth of 512, and a mostly reused step stays on
/// the calling thread.
pub const PARALLEL_MIN_DEPTH: usize = 512;

/// Padding added after a running job's estimated end when the estimate
/// has already elapsed at planning time: the job still physically holds
/// its processors until its completion *event* is processed, so the plan
/// must not hand them out at the current instant.
pub(crate) const RUNNING_PAD: SimDuration = SimDuration::from_millis(1);

impl Planner {
    /// Creates a planner.
    pub fn new() -> Self {
        Planner {
            profile: Profile::new(1, SimTime::ZERO),
            base: Profile::new(1, SimTime::ZERO),
            prepared_at: SimTime::ZERO,
            prepared_seq: 0,
            spans: Vec::new(),
            events: Vec::new(),
            plans: Vec::new(),
            plans_base: Profile::new(1, SimTime::ZERO),
            plans_seq: None,
            plans_at: SimTime::ZERO,
            entered: Vec::new(),
            withdrawn: Vec::new(),
            started: Vec::new(),
            raised: Vec::new(),
            tracer: dynp_obs::Tracer::disabled(),
        }
    }

    /// Installs an observability tracer; each [`Planner::prepare`] (the
    /// per-event base-profile rebuild) is then measured as a `"prepare"`
    /// wall-clock span.
    pub fn set_tracer(&mut self, tracer: dynp_obs::Tracer) {
        self.tracer = tracer;
    }

    /// Builds the shared base profile for one scheduling event: the
    /// machine as narrowed by `running` jobs (blocked to their estimated
    /// end, at least marginally past `now` — see `RUNNING_PAD`) and by
    /// the active `reservations` (clipped to `[now + RUNNING_PAD, end)`).
    ///
    /// The reservation clip starts one pad *past* `now`, not at `now`: a
    /// job whose completion event is still queued at the current instant
    /// physically holds its processors for the pad, and an ongoing
    /// full-width window must not double-book them. The pad instant is
    /// too short for any queue job to exploit, so schedules are
    /// unaffected.
    ///
    /// Subsequent [`Planner::plan_prepared`] calls plan against this
    /// base until `prepare` is called again.
    pub fn prepare(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        reservations: &[crate::reservation::Reservation],
    ) {
        let _span = self.tracer.span(now, "prepare");
        if self.plans_seq == Some(self.prepared_seq) {
            // The current base is the one the persistent plans were
            // placed on: keep it for the next batch's base guard.
            std::mem::swap(&mut self.base, &mut self.plans_base);
        }
        self.spans.clear();
        for r in running {
            let end = r.estimated_end().max(now + RUNNING_PAD);
            self.spans.push((now, end, r.job.width));
        }
        for res in reservations {
            if !res.active_at(now) {
                continue;
            }
            self.spans
                .push((res.start.max(now + RUNNING_PAD), res.end(), res.width));
        }
        self.base
            .rebuild_from_spans(machine_size, now, &self.spans, &mut self.events);
        self.prepared_at = now;
        self.prepared_seq += 1;
    }

    /// Number of points in the prepared base profile — the size of the
    /// structure every `earliest_fit` probe descends. Reported per plan
    /// in trace events; queue depth × log(this) bounds a planning pass's
    /// probe work.
    pub fn base_points(&self) -> usize {
        self.base.len()
    }

    /// True when the prepared base profile can absorb a *new* reservation
    /// window `[start, start + duration)` of `width` processors without
    /// overcommitting the machine against running jobs and the already
    /// admitted reservations. This is the capacity half of the admission
    /// feasibility check (see [`crate::admission`]); it reads the base
    /// profile without mutating it, so the prepared state stays valid for
    /// subsequent [`Planner::plan_prepared`] calls.
    ///
    /// Call [`Planner::prepare`] first; the window is evaluated as it
    /// would be blocked out by the next `prepare` (clipped to start no
    /// earlier than one pad past the prepare instant).
    pub fn window_fits(&self, start: SimTime, duration: SimDuration, width: u32) -> bool {
        if width == 0 || width > self.base.capacity() {
            return false;
        }
        let end = start.saturating_add(duration);
        let from = start.max(self.prepared_at + RUNNING_PAD);
        if end <= from {
            // Nothing left of the window: trivially absorbable.
            return true;
        }
        self.base
            .earliest_fit(from, end.saturating_since(from), width)
            == from
    }

    /// Plans `queue` (already in policy order) against the prepared base:
    /// restores the working profile to the watermark, then gives each
    /// job the earliest feasible start ≥ max(now, submit).
    ///
    /// Call [`Planner::prepare`] first; planning against a stale base is
    /// not checked.
    pub fn plan_prepared(&mut self, queue: &[Job]) -> Schedule {
        let mut schedule = Schedule::default();
        self.plan_prepared_into(queue, &mut schedule);
        schedule
    }

    /// [`Planner::plan_prepared`] into a caller-owned schedule, reusing
    /// its entry buffer.
    pub fn plan_prepared_into(&mut self, queue: &[Job], out: &mut Schedule) {
        self.profile.restore_from(&self.base);
        out.entries.clear();
        place(&mut self.profile, self.prepared_at, queue, out);
    }

    /// Drops the persistent plans: the next
    /// [`Planner::plan_prepared_batch`] plans every policy from the base.
    /// Callers invalidate when the queue history the plans were built on
    /// no longer applies (a restored snapshot, a switch of engine).
    pub fn invalidate_plans(&mut self) {
        self.plans_seq = None;
    }

    /// The schedule [`Planner::plan_prepared_batch`] built for slot `i`.
    pub fn planned(&self, i: usize) -> &Schedule {
        &self.plans[i].schedule
    }

    /// Plans every queue in `queues` (queue `i` in the order of
    /// `policies[i]`) against the prepared base — the per-policy step of
    /// the self-tuning scheduler. Results are read with
    /// [`Planner::planned`]. Returns the worker count used and the
    /// batch's placement work.
    ///
    /// With `delta`, each policy's plan from the previous batch is reused
    /// as far as the guard of DESIGN §10 proves it unchanged: the
    /// current base must equal the previous one minus the spans of the
    /// jobs started since, every started job must have started where the
    /// cached plan put it, and the kept prefix ends at the first entered
    /// job, the first withdrawn job or the first cached entry planned
    /// before now. The cached entries after the prefix are released from
    /// the policy's working profile and only the queue after the prefix
    /// is placed; a policy whose suffix is longer than its prefix, and
    /// every policy without `delta` or without a valid cached plan, is
    /// planned from the base. `delta` must describe exactly the queue
    /// changes since the previous batch, with the running set this base
    /// was prepared from. The schedules are bit-identical to planning
    /// every queue from the base.
    ///
    /// The passes are split into contiguous runs across up to
    /// `max_workers` `std::thread::scope` workers when every run has at
    /// least `min_depth` entries left to place (see
    /// [`PARALLEL_MIN_DEPTH`]), and run on the calling thread otherwise.
    /// Every pass depends only on the shared immutable base, its own
    /// cached plan and its queue, so schedules are bit-identical for
    /// every worker count.
    /// `timings[i]` records the wall clock of pass `i` when span tracing
    /// is enabled (zeroed otherwise).
    pub fn plan_prepared_batch(
        &mut self,
        policies: &[Policy],
        queues: &[Vec<Job>],
        delta: Option<QueueDelta<'_>>,
        timings: &mut [PlanTiming],
        max_workers: usize,
        min_depth: usize,
    ) -> (usize, PlanWork) {
        let n = queues.len();
        assert_eq!(n, policies.len(), "one policy per queue");
        assert_eq!(n, timings.len(), "one timing slot per queue");
        // Plans placed on the base of the previous `prepare`, no later
        // than now, for as many policies, on the same machine.
        let reusable = self
            .plans_seq
            .is_some_and(|seq| seq + 1 == self.prepared_seq)
            && self.plans_at <= self.prepared_at
            && self.plans.len() == n
            && self.base.capacity() == self.plans_base.capacity();
        let guard = match delta {
            Some(delta) if reusable => {
                self.split_delta(delta)
                    && self
                        .base
                        .same_from(&self.plans_base, self.prepared_at, &self.raised)
            }
            _ => false,
        };
        self.plans.truncate(n);
        for (i, (&policy, queue)) in policies.iter().zip(queues).enumerate() {
            if i == self.plans.len() {
                self.plans.push(PolicyPlan {
                    policy,
                    schedule: Schedule::default(),
                    profile: Profile::new(1, SimTime::ZERO),
                    reuse: None,
                    started: Vec::new(),
                    work: PlanWork::default(),
                });
            }
            let plan = &mut self.plans[i];
            plan.reuse = if guard && plan.policy == policy {
                plan.find_reuse(
                    queue,
                    self.prepared_at,
                    &self.entered,
                    &self.withdrawn,
                    &self.started,
                )
            } else {
                None
            };
            plan.policy = policy;
        }
        // Fan out only when every worker gets at least `min_depth`
        // entries to place.
        let workers = max_workers.clamp(1, n.max(1));
        let per = n.div_ceil(workers);
        let left = |i: usize| queues[i].len() - self.plans[i].reuse.map_or(0, |r| r.suffix_start);
        let fan_out = (0..n)
            .step_by(per)
            .all(|lo| (lo..n.min(lo + per)).map(left).sum::<usize>() >= min_depth);
        let workers = if fan_out { workers } else { 1 };
        let time_plans = self.tracer.wants(dynp_obs::TraceClass::Span);
        let base = &self.base;
        let now = self.prepared_at;
        let tracer = &self.tracer;
        let run = |plans: &mut [PolicyPlan], queues: &[Vec<Job>], timings: &mut [PlanTiming]| {
            for ((plan, queue), tim) in plans.iter_mut().zip(queues).zip(timings) {
                let start_ns = if time_plans { tracer.now_ns() } else { 0 };
                plan.replan(base, now, queue);
                *tim = PlanTiming {
                    start_ns,
                    dur_ns: if time_plans {
                        tracer.now_ns().saturating_sub(start_ns)
                    } else {
                        0
                    },
                };
            }
        };
        if workers <= 1 {
            run(&mut self.plans, queues, timings);
        } else {
            std::thread::scope(|s| {
                for ((plans, queues), timings) in self
                    .plans
                    .chunks_mut(per)
                    .zip(queues.chunks(per))
                    .zip(timings.chunks_mut(per))
                {
                    s.spawn(move || run(plans, queues, timings));
                }
            });
        }
        self.plans_seq = Some(self.prepared_seq);
        self.plans_at = self.prepared_at;
        let mut work = PlanWork::default();
        for plan in &self.plans {
            work.add(plan.work);
        }
        (workers, work)
    }

    /// Splits `delta` into entered, withdrawn and started jobs, and
    /// collects `(start + estimate, width)` of the started jobs, sorted,
    /// for the shared half of the reuse guard: the current base must
    /// equal the base the cached plans were placed on minus the spans
    /// `[now, start + estimate)` of the started jobs, as step functions
    /// from now on (a started job padded to `now + RUNNING_PAD` holds
    /// more than that span and fails the comparison; a completion, a
    /// fault or a reservation change fails it at its first differing
    /// point). Returns false when a job left twice, which no reuse
    /// survives.
    fn split_delta(&mut self, delta: QueueDelta<'_>) -> bool {
        self.entered.clear();
        self.withdrawn.clear();
        self.started.clear();
        self.raised.clear();
        for change in delta.changes {
            match *change {
                QueueChange::Entered(job) => self.entered.push(job),
                QueueChange::Left(job) => {
                    // Jobs start at the back of the running set.
                    match delta.running.iter().rev().find(|r| r.job.id == job.id) {
                        Some(r) => {
                            if self.started.iter().any(|(j, _)| j.id == job.id) {
                                return false;
                            }
                            self.started.push((job, r.start));
                            self.raised
                                .push((r.start.saturating_add(job.estimate), job.width));
                        }
                        None => self.withdrawn.push(job),
                    }
                }
            }
        }
        self.raised.sort_unstable();
        true
    }
}

impl PolicyPlan {
    /// The per-policy half of the reuse guard: where the cached plan
    /// stops being provably unchanged, or `None` to plan from the base
    /// (a started job the cached plan did not start at that instant, or
    /// a suffix longer than the prefix). Fills `self.started`.
    fn find_reuse(
        &mut self,
        queue: &[Job],
        now: SimTime,
        entered: &[Job],
        withdrawn: &[Job],
        started: &[(Job, SimTime)],
    ) -> Option<Reuse> {
        let policy = self.policy;
        let entries = &self.schedule.entries;
        let find = |job: &Job| entries.binary_search_by(|e| policy.cmp_jobs(&e.job, job));
        self.started.clear();
        for (job, start) in started {
            match find(job) {
                Ok(idx) if entries[idx].start == *start => self.started.push(idx),
                _ => return None,
            }
        }
        self.started.sort_unstable();
        let mut cut = entries.len();
        for job in entered {
            cut = cut.min(entries.partition_point(|e| policy.cmp_jobs(&e.job, job).is_lt()));
        }
        for job in withdrawn {
            // A withdrawn job the cached plan does not hold entered since
            // (its `Entered` already cut) or was over-wide.
            if let Ok(idx) = find(job) {
                cut = cut.min(idx);
            }
        }
        let is_started = |idx: usize| self.started.binary_search(&idx).is_ok();
        // The first cached entry planned before now that did not start.
        let mut from = 0;
        while let Some(off) = entries[from..cut].iter().position(|e| e.start < now) {
            if !is_started(from + off) {
                cut = from + off;
                break;
            }
            from += off + 1;
        }
        let started_before = self.started.partition_point(|&i| i < cut);
        let prefix = cut - started_before;
        let released = entries.len() - cut - (self.started.len() - started_before);
        if released > prefix {
            return None;
        }
        let suffix_start = match (0..cut).rev().find(|&idx| !is_started(idx)) {
            Some(idx) => {
                queue
                    .binary_search_by(|j| policy.cmp_jobs(j, &entries[idx].job))
                    .ok()?
                    + 1
            }
            None => 0,
        };
        Some(Reuse { cut, suffix_start })
    }

    /// Brings the plan up to date with `queue`: resumes the cached plan
    /// at its reuse point (releasing the cached suffix, dropping started
    /// entries and the profile's past), or replans from `base`.
    fn replan(&mut self, base: &Profile, now: SimTime, queue: &[Job]) {
        let entries = &mut self.schedule.entries;
        let mut work = PlanWork::default();
        let from = match self.reuse {
            None => {
                self.profile.restore_from(base);
                entries.clear();
                0
            }
            Some(Reuse { cut, suffix_start }) => {
                let started = &self.started;
                for (idx, e) in entries.iter().enumerate().skip(cut) {
                    if started.binary_search(&idx).is_err() {
                        self.profile.release(e.start, e.job.estimate, e.job.width);
                        work.released += 1;
                    }
                }
                entries.truncate(cut);
                for &idx in started.iter().rev().filter(|&&idx| idx < cut) {
                    entries.remove(idx);
                }
                work.reused = entries.len() as u64;
                self.profile.advance_origin(now);
                suffix_start
            }
        };
        let before = entries.len();
        place(&mut self.profile, now, &queue[from..], &mut self.schedule);
        work.placed = (self.schedule.entries.len() - before) as u64;
        self.work = work;
    }
}

/// Places `queue` (in policy order) on `profile` job by job, appending
/// to `out`: each job gets the earliest feasible start ≥ max(now,
/// submit).
fn place(profile: &mut Profile, now: SimTime, queue: &[Job], out: &mut Schedule) {
    out.entries.reserve(queue.len());
    for job in queue {
        // A job wider than the (possibly degraded) machine has no
        // feasible start at any time: leave it out of the plan — it
        // stays waiting until node repair restores enough capacity.
        if job.width > profile.capacity() {
            continue;
        }
        let earliest = now.max(job.submit);
        let start = profile.allocate_earliest(earliest, job.estimate, job.width);
        out.entries.push(PlannedJob { job: *job, start });
    }
}

impl Planner {
    /// Builds the full schedule for `queue` (already in policy order) at
    /// time `now`, around the reservations of `running` jobs.
    ///
    /// Every queue job gets the earliest feasible start ≥ `now`; running
    /// jobs reserve their width until their estimated end (at least
    /// marginally past `now`, see the `RUNNING_PAD` constant).
    pub fn plan(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        queue: &[Job],
    ) -> Schedule {
        self.plan_with_reservations(machine_size, now, running, &[], queue)
    }

    /// Like [`Planner::plan`], but additionally blocks out fixed
    /// [`Reservation`](crate::reservation::Reservation) windows: the
    /// planner treats each active reservation's processors as unavailable
    /// over its interval, and queue jobs backfill around them.
    pub fn plan_with_reservations(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        reservations: &[crate::reservation::Reservation],
        queue: &[Job],
    ) -> Schedule {
        self.prepare(machine_size, now, running, reservations);
        let schedule = self.plan_prepared(queue);
        debug_assert!(
            schedule.validate(machine_size, running, now).is_ok(),
            "planner produced invalid schedule: {:?}",
            schedule.validate(machine_size, running, now)
        );
        schedule
    }
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

/// The retained from-scratch planner: rebuilds the whole profile with
/// one allocate per running job and reservation on every call — exactly
/// the algorithm [`Planner`] used before the shared-base refactor, on
/// the retained linear-scan [`NaiveProfile`] it used at the time (so
/// benchmarked speedups compare the capacity-indexed profile against
/// the real pre-index code path, not against itself).
///
/// It exists as the correctness oracle (property tests assert its
/// schedules are bit-identical to the incremental path's) and as the
/// baseline the perf-trajectory harness measures speedups against. It is
/// not used on any production path.
#[derive(Debug)]
pub struct ReferencePlanner {
    profile: NaiveProfile,
}

impl ReferencePlanner {
    /// Creates a reference planner.
    pub fn new() -> Self {
        ReferencePlanner {
            profile: NaiveProfile::new(1, SimTime::ZERO),
        }
    }

    /// From-scratch counterpart of [`Planner::plan`].
    pub fn plan(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        queue: &[Job],
    ) -> Schedule {
        self.plan_with_reservations(machine_size, now, running, &[], queue)
    }

    /// From-scratch counterpart of [`Planner::plan_with_reservations`].
    pub fn plan_with_reservations(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        reservations: &[crate::reservation::Reservation],
        queue: &[Job],
    ) -> Schedule {
        self.profile.reset(machine_size, now);
        for r in running {
            let end = r.estimated_end().max(now + RUNNING_PAD);
            self.profile
                .allocate(now, end.saturating_since(now), r.job.width);
        }
        for res in reservations {
            if !res.active_at(now) {
                continue;
            }
            // Clip windows that already began past the running-job pad
            // (same rule as `Planner::prepare`).
            let start = res.start.max(now + RUNNING_PAD);
            self.profile
                .allocate(start, res.end().saturating_since(start), res.width);
        }
        let mut entries = Vec::with_capacity(queue.len());
        for job in queue {
            // Same over-wide rule as the incremental path: unplaceable
            // jobs stay out of the plan (bit-identity requires the two
            // planners to skip identically).
            if job.width > machine_size {
                continue;
            }
            let earliest = now.max(job.submit);
            let start = self
                .profile
                .allocate_earliest(earliest, job.estimate, job.width);
            entries.push(PlannedJob { job: *job, start });
        }
        let schedule = Schedule { entries };
        debug_assert!(
            schedule.validate(machine_size, running, now).is_ok(),
            "reference planner produced invalid schedule: {:?}",
            schedule.validate(machine_size, running, now)
        );
        schedule
    }
}

impl Default for ReferencePlanner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use dynp_workload::JobId;
    use proptest::prelude::*;

    fn j(id: u32, submit_s: u64, width: u32, est_s: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(est_s),
            SimDuration::from_secs(est_s),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_queue_gives_empty_schedule() {
        let mut p = Planner::new();
        let s = p.plan(8, t(100), &[], &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn jobs_fill_the_idle_machine_immediately() {
        let mut p = Planner::new();
        let q = [j(0, 0, 4, 100), j(1, 0, 4, 50)];
        let s = p.plan(8, t(0), &[], &q);
        assert_eq!(s.entries[0].start, t(0));
        assert_eq!(s.entries[1].start, t(0));
    }

    #[test]
    fn queue_order_decides_who_waits() {
        let mut p = Planner::new();
        // Machine of 4: two width-3 jobs cannot overlap.
        let q = [j(0, 0, 3, 100), j(1, 0, 3, 50)];
        let s = p.plan(4, t(0), &[], &q);
        assert_eq!(s.entries[0].start, t(0));
        assert_eq!(s.entries[1].start, t(100)); // after job 0's estimate
    }

    #[test]
    fn implicit_backfilling_slots_small_jobs_into_gaps() {
        let mut p = Planner::new();
        // Running: 3 of 4 processors busy until t=100.
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        // Queue order: wide job first (must wait), narrow short job second.
        let q = [j(0, 0, 4, 50), j(1, 0, 1, 80)];
        let s = p.plan(4, t(0), &running, &q);
        assert_eq!(s.entries[0].start, t(100), "wide job waits for the machine");
        // The narrow job fits the single free processor *now* and ends
        // before the wide job's reservation: implicit backfill.
        assert_eq!(s.entries[1].start, t(0));
    }

    #[test]
    fn backfill_never_delays_higher_priority_reservations() {
        let mut p = Planner::new();
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        // Narrow but LONG job: running to t=120 on the free processor
        // would not delay the wide job (width 4 needs all processors at
        // t=100; 1 + 3(running) = 4 > 4 - job0 must wait for it? No:
        // job1 uses 1 proc until 120, so at t=100 only 3 free -> the
        // wide job is pushed to t=120. The planner places queue jobs in
        // order, so job0 reserves [100,150) FIRST and job1 must not
        // overlap it: earliest slot for job1 is t=150.
        let q = [j(0, 0, 4, 50), j(1, 0, 1, 120)];
        let s = p.plan(4, t(0), &running, &q);
        assert_eq!(s.entries[0].start, t(100));
        assert_eq!(s.entries[1].start, t(150));
    }

    #[test]
    fn running_jobs_block_their_width_until_estimated_end() {
        let mut p = Planner::new();
        let running = [
            RunningJob {
                job: j(8, 0, 2, 100),
                start: t(0),
            },
            RunningJob {
                job: j(9, 0, 2, 200),
                start: t(0),
            },
        ];
        let q = [j(0, 0, 3, 10)];
        let s = p.plan(4, t(50), &running, &q);
        // 0 free until 100, 2 free until 200, 4 free after.
        assert_eq!(s.entries[0].start, t(200));
    }

    #[test]
    fn overdue_running_job_blocks_the_present_instant() {
        let mut p = Planner::new();
        // Job started at 0 with estimate 100; we plan exactly at t=100
        // (its completion event has not been processed yet).
        let running = [RunningJob {
            job: j(9, 0, 4, 100),
            start: t(0),
        }];
        let q = [j(0, 0, 4, 10)];
        let s = p.plan(4, t(100), &running, &q);
        // The pad keeps the current instant blocked.
        assert!(s.entries[0].start > t(100));
        assert!(s.entries[0].start <= t(101));
    }

    #[test]
    fn planner_is_reusable_across_policies() {
        let mut p = Planner::new();
        let mut q = vec![j(0, 0, 2, 100), j(1, 1, 2, 10)];
        Policy::Sjf.sort_queue(&mut q);
        let sjf = p.plan(2, t(1), &[], &q);
        assert_eq!(sjf.entries[0].job.id, JobId(1));
        Policy::Ljf.sort_queue(&mut q);
        let ljf = p.plan(2, t(1), &[], &q);
        assert_eq!(ljf.entries[0].job.id, JobId(0));
        assert_eq!(ljf.entries[1].start, t(101));
    }

    #[test]
    fn one_prepare_serves_many_policy_passes() {
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        let mut q = vec![j(0, 0, 4, 50), j(1, 2, 1, 80)];
        let mut incremental = Planner::new();
        incremental.prepare(4, t(10), &running, &[]);
        let mut reference = ReferencePlanner::new();
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::Ljf] {
            policy.sort_queue(&mut q);
            let fast = incremental.plan_prepared(&q);
            let slow = reference.plan(4, t(10), &running, &q);
            assert_eq!(fast.entries, slow.entries, "{policy:?} diverged");
        }
    }

    #[test]
    fn over_wide_jobs_are_left_out_of_the_plan() {
        // Machine degraded to 3 usable processors: the width-4 job has no
        // feasible start and must stay waiting, while the narrow job
        // plans normally. Both planners skip it identically.
        let q = [j(0, 0, 4, 100), j(1, 0, 2, 50)];
        let mut p = Planner::new();
        let s = p.plan(3, t(0), &[], &q);
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries[0].job.id, JobId(1));
        assert_eq!(s.entries[0].start, t(0));
        let mut r = ReferencePlanner::new();
        let s2 = r.plan(3, t(0), &[], &q);
        assert_eq!(s.entries, s2.entries);
    }

    #[test]
    fn batch_planning_matches_sequential_for_every_worker_count() {
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        // Three differently ordered queues, like the self-tuning step's
        // per-policy orders.
        let base: Vec<Job> = (0..40)
            .map(|i| j(i, i as u64 % 7, 1 + i % 4, 10 + (i as u64 * 13) % 300))
            .collect();
        let mut queues = vec![base.clone(), base.clone(), base];
        Policy::Sjf.sort_queue(&mut queues[1]);
        Policy::Ljf.sort_queue(&mut queues[2]);

        let mut p = Planner::new();
        p.prepare(8, t(5), &running, &[]);
        let expected: Vec<Schedule> = queues.iter().map(|q| p.plan_prepared(q)).collect();
        for workers in [1usize, 2, 3, 8] {
            let mut timings = vec![PlanTiming::default(); 3];
            let (used, work) =
                p.plan_prepared_batch(&Policy::BASIC, &queues, None, &mut timings, workers, 0);
            assert!(used >= 1 && used <= workers.max(1));
            assert_eq!(
                work.placed, 120,
                "a batch without a delta places everything"
            );
            for (i, want) in expected.iter().enumerate() {
                assert_eq!(
                    p.planned(i).entries,
                    want.entries,
                    "workers={workers} diverged"
                );
            }
            // Tracing is off: timings must stay zeroed.
            assert!(timings.iter().all(|tm| *tm == PlanTiming::default()));
        }
    }

    #[test]
    fn plan_prepared_into_reuses_the_buffer() {
        let mut p = Planner::new();
        p.prepare(8, t(0), &[], &[]);
        let mut out = Schedule::default();
        p.plan_prepared_into(&[j(0, 0, 4, 10)], &mut out);
        assert_eq!(out.len(), 1);
        let q2 = [j(1, 0, 2, 5), j(2, 0, 2, 5)];
        p.plan_prepared_into(&q2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out.entries[0].job.id, JobId(1));
        assert_eq!(p.plan_prepared(&q2).entries, out.entries);
    }

    mod reservations {
        use super::*;
        use crate::reservation::ReservationBook;

        #[test]
        fn jobs_plan_around_a_reservation() {
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 4);
            let mut p = Planner::new();
            // Machine 4 fully reserved over [100, 200): a long job must
            // either finish before 100 or start at 200.
            let q = [j(0, 0, 2, 150)];
            let s = p.plan_with_reservations(4, t(0), &[], book.all(), &q);
            assert_eq!(s.entries[0].start, t(200));
        }

        #[test]
        fn short_jobs_backfill_before_the_reservation() {
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 4);
            let mut p = Planner::new();
            let q = [j(0, 0, 4, 100), j(1, 0, 4, 50)];
            let s = p.plan_with_reservations(4, t(0), &[], book.all(), &q);
            // First job exactly fills [0, 100); second must wait out the
            // reservation.
            assert_eq!(s.entries[0].start, t(0));
            assert_eq!(s.entries[1].start, t(200));
        }

        #[test]
        fn partial_reservation_leaves_remaining_width_usable() {
            let mut book = ReservationBook::new();
            book.add(t(0), SimDuration::from_secs(1_000), 3);
            let mut p = Planner::new();
            let q = [j(0, 0, 1, 500), j(1, 0, 2, 500)];
            let s = p.plan_with_reservations(4, t(0), &[], book.all(), &q);
            assert_eq!(s.entries[0].start, t(0)); // 1 proc free alongside
            assert_eq!(s.entries[1].start, t(1_000)); // width 2 must wait
        }

        #[test]
        fn expired_and_started_windows_are_clipped() {
            let mut book = ReservationBook::new();
            book.add(t(0), SimDuration::from_secs(50), 4); // over by now
            book.add(t(80), SimDuration::from_secs(40), 4); // started, ends 120
            let mut p = Planner::new();
            let now = t(100);
            let q = [j(0, 0, 4, 10)];
            let s = p.plan_with_reservations(4, now, &[], book.all(), &q);
            // Only the live remainder [100, 120) blocks.
            assert_eq!(s.entries[0].start, t(120));
        }

        #[test]
        fn plan_is_plan_with_empty_reservations() {
            let mut p = Planner::new();
            let q = [j(0, 0, 2, 100), j(1, 0, 2, 50)];
            let a = p.plan(4, t(0), &[], &q);
            let b = p.plan_with_reservations(4, t(0), &[], &[], &q);
            assert_eq!(a.entries, b.entries);
        }

        #[test]
        fn overdue_running_job_coexists_with_full_width_window() {
            // A job estimated to end exactly at `now` still holds its
            // processors (completion event pending), while a full-width
            // window opens at `now`. The pad clip keeps the base profile
            // feasible instead of panicking on overcommit.
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 4);
            let running = [RunningJob {
                job: j(9, 0, 1, 100),
                start: t(0),
            }];
            let mut p = Planner::new();
            let q = [j(0, 0, 2, 10)];
            let s = p.plan_with_reservations(4, t(100), &running, book.all(), &q);
            // The queue job must clear both the pad and the window.
            assert_eq!(s.entries[0].start, t(200));
            let mut r = ReferencePlanner::new();
            let s2 = r.plan_with_reservations(4, t(100), &running, book.all(), &q);
            assert_eq!(s.entries, s2.entries);
        }

        #[test]
        fn window_fits_checks_capacity_against_the_base() {
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 3);
            let mut p = Planner::new();
            p.prepare(4, t(0), &[], book.all());
            // One processor is left over [100, 200).
            assert!(p.window_fits(t(100), SimDuration::from_secs(100), 1));
            assert!(!p.window_fits(t(100), SimDuration::from_secs(100), 2));
            // Disjoint window: full machine available.
            assert!(p.window_fits(t(200), SimDuration::from_secs(50), 4));
            // Overlapping the tail only.
            assert!(!p.window_fits(t(150), SimDuration::from_secs(100), 2));
            // Degenerate widths.
            assert!(!p.window_fits(t(300), SimDuration::from_secs(10), 0));
            assert!(!p.window_fits(t(300), SimDuration::from_secs(10), 5));
            // A window already over at the prepare instant absorbs trivially.
            p.prepare(4, t(500), &[], book.all());
            assert!(p.window_fits(t(100), SimDuration::from_secs(100), 4));
        }

        #[test]
        fn window_fits_accounts_for_running_jobs() {
            let running = [RunningJob {
                job: j(9, 0, 3, 100),
                start: t(0),
            }];
            let mut p = Planner::new();
            p.prepare(4, t(0), &running, &[]);
            assert!(p.window_fits(t(0), SimDuration::from_secs(50), 1));
            assert!(!p.window_fits(t(0), SimDuration::from_secs(50), 2));
            assert!(p.window_fits(t(100), SimDuration::from_secs(50), 4));
        }
    }

    proptest! {
        /// For any queue and running set, the planner's schedule passes
        /// full validation (no overcommit, no past starts).
        #[test]
        fn planned_schedules_always_validate(
            widths in proptest::collection::vec(1u32..8, 1..40),
            ests in proptest::collection::vec(1u64..500, 1..40),
            submits in proptest::collection::vec(0u64..100, 1..40),
            n_running in 0usize..4,
        ) {
            let n = widths.len().min(ests.len()).min(submits.len());
            let machine = 8u32;
            let now = t(100);
            let mut running = Vec::new();
            let mut used = 0u32;
            for i in 0..n_running.min(n) {
                let w = widths[i].min(machine - used);
                if w == 0 { break; }
                used += w;
                running.push(RunningJob {
                    job: j(1000 + i as u32, 0, w, ests[i] + 150),
                    start: t(50),
                });
            }
            let queue: Vec<Job> = (0..n)
                .map(|i| j(i as u32, submits[i], widths[i], ests[i]))
                .collect();
            let mut p = Planner::new();
            let s = p.plan(machine, now, &running, &queue);
            prop_assert_eq!(s.len(), n);
            prop_assert!(s.validate(machine, &running, now).is_ok(),
                         "{:?}", s.validate(machine, &running, now));
        }

        /// FCFS planning is monotone for equal-width jobs: a job never
        /// starts before an identical job submitted earlier.
        #[test]
        fn fcfs_equal_jobs_start_in_order(
            n in 2usize..30,
            width in 1u32..4,
            est in 1u64..100,
        ) {
            let queue: Vec<Job> = (0..n)
                .map(|i| j(i as u32, i as u64, width, est))
                .collect();
            let mut p = Planner::new();
            let s = p.plan(4, t(100), &[], &queue);
            for w in s.entries.windows(2) {
                prop_assert!(w[0].start <= w[1].start);
            }
        }

        /// Equivalence oracle: the shared-base planner and the retained
        /// from-scratch reference produce bit-identical schedules for
        /// every policy order of a random queue over random running
        /// jobs — including repeated plan_prepared calls against one
        /// prepare.
        #[test]
        fn incremental_planner_matches_reference(
            widths in proptest::collection::vec(1u32..8, 1..40),
            ests in proptest::collection::vec(1u64..500, 1..40),
            submits in proptest::collection::vec(0u64..100, 1..40),
            n_running in 0usize..5,
            now_s in 0u64..200,
            // Degraded capacities (node outages shrink the plannable
            // machine): widths up to 7 make some jobs over-wide, which
            // both planners must skip identically.
            machine in 2u32..9,
        ) {
            let n = widths.len().min(ests.len()).min(submits.len());
            let now = t(now_s);
            let mut running = Vec::new();
            let mut used = 0u32;
            for i in 0..n_running.min(n) {
                let w = widths[i].min(machine - used);
                if w == 0 { break; }
                used += w;
                running.push(RunningJob {
                    // Estimates straddle `now` so some running jobs are
                    // overdue (exercising RUNNING_PAD) and some are not.
                    job: j(1000 + i as u32, 0, w, ests[i]),
                    start: t(now_s.saturating_sub(50)),
                });
            }
            let mut queue: Vec<Job> = (0..n)
                .map(|i| j(i as u32, submits[i], widths[i], ests[i]))
                .collect();
            let mut incremental = Planner::new();
            incremental.prepare(machine, now, &running, &[]);
            let mut reference = ReferencePlanner::new();
            for policy in Policy::ALL {
                policy.sort_queue(&mut queue);
                let fast = incremental.plan_prepared(&queue);
                let slow = reference.plan(machine, now, &running, &queue);
                prop_assert_eq!(&fast.entries, &slow.entries,
                                "{:?} diverged from reference", policy);
                // The one-shot wrapper takes the same incremental path.
                let wrapped = Planner::new().plan(machine, now, &running, &queue);
                prop_assert_eq!(&wrapped.entries, &slow.entries);
            }
        }
    }
}
