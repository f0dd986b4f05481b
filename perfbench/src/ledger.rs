//! The per-layer ledger: folds the `dynp-obs` spans a traced run emits
//! into self times per layer.
//!
//! Span nesting in the program: every dispatched event runs inside an
//! `event` span (`sim` driver + `des` engine); the scheduler's `replan`
//! span (`core`) sits inside it and contains the planner's `prepare`
//! span (`rms` base profile) and one `PlanBuilt` record per candidate
//! policy (`rms` plan construction). Self time is a span's duration
//! minus its children, so the rows add up to the `event` time:
//!
//! ```text
//! event = event_self + replan_self + prepare + plan
//! ```
//!
//! `PlanBuilt` durations of one step overlap in wall time when the plan
//! fan-out ran on several workers, so each is divided by its `workers`
//! count before it is subtracted.

use dynp_obs::{TraceEvent, TraceSnapshot};

/// Span totals and counts folded from one or more trace snapshots.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// `event` spans: count and total wall ns.
    pub events: u64,
    pub event_ns: u64,
    /// `replan` spans: count and total wall ns.
    pub replans: u64,
    pub replan_ns: u64,
    /// `prepare` spans: total wall ns.
    pub prepare_ns: u64,
    /// `PlanBuilt` records: count and wall ns after dividing each by
    /// its step's worker count.
    pub plans: u64,
    pub plan_ns: f64,
    /// Decider runs and policy switches.
    pub decisions: u64,
    pub switches: u64,
    /// Queue depth of every plan built.
    pub depths: Vec<u32>,
    /// Sum of base-profile sizes over every plan built.
    pub profile_points: u64,
    /// Records the tracer ring dropped (a non-zero value makes the
    /// ledger incomplete).
    pub dropped: u64,
}

impl Ledger {
    /// Folds one snapshot in.
    pub fn absorb(&mut self, snap: &TraceSnapshot) {
        self.dropped += snap.dropped;
        for rec in &snap.records {
            match &rec.event {
                TraceEvent::Span { name, dur_ns } => match *name {
                    "event" => {
                        self.events += 1;
                        self.event_ns += dur_ns;
                    }
                    "replan" => {
                        self.replans += 1;
                        self.replan_ns += dur_ns;
                    }
                    "prepare" => self.prepare_ns += dur_ns,
                    _ => {}
                },
                TraceEvent::PlanBuilt {
                    queue_depth,
                    profile_points,
                    workers,
                    dur_ns,
                    ..
                } => {
                    self.plans += 1;
                    self.plan_ns += *dur_ns as f64 / (*workers).max(1) as f64;
                    self.depths.push(*queue_depth);
                    self.profile_points += *profile_points as u64;
                }
                TraceEvent::Decision { .. } => self.decisions += 1,
                TraceEvent::PolicySwitch { .. } => self.switches += 1,
                _ => {}
            }
        }
    }

    /// Adds another ledger's totals to this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.events += other.events;
        self.event_ns += other.event_ns;
        self.replans += other.replans;
        self.replan_ns += other.replan_ns;
        self.prepare_ns += other.prepare_ns;
        self.plans += other.plans;
        self.plan_ns += other.plan_ns;
        self.decisions += other.decisions;
        self.switches += other.switches;
        self.depths.extend_from_slice(&other.depths);
        self.profile_points += other.profile_points;
        self.dropped += other.dropped;
    }

    /// `core` self time: replan minus the planner's prepare and plan
    /// builds (queue-order sync, SLDwA scoring, the decider).
    pub fn replan_self_ns(&self) -> f64 {
        self.replan_ns as f64 - self.prepare_ns as f64 - self.plan_ns
    }

    /// `sim`/`des` self time: event dispatch minus the replan inside it.
    pub fn event_self_ns(&self) -> f64 {
        self.event_ns as f64 - self.replan_ns as f64
    }

    /// Share of replan time the `rms` rows (prepare + plan builds)
    /// explain; the rest is `core` self time.
    pub fn replan_explained_share(&self) -> f64 {
        if self.replan_ns == 0 {
            0.0
        } else {
            (self.prepare_ns as f64 + self.plan_ns) / self.replan_ns as f64
        }
    }

    /// Per-dispatched-event average of a total.
    pub fn per_event(&self, total: f64) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            total / self.events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimTime;
    use dynp_obs::TraceRecord;

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq: 0,
            sim: SimTime::ZERO,
            wall_ns: 0,
            event,
        }
    }

    fn plan(workers: u32, dur_ns: u64) -> TraceRecord {
        rec(TraceEvent::PlanBuilt {
            policy: "FCFS",
            queue_depth: 600,
            profile_points: 10,
            workers,
            dur_ns,
        })
    }

    fn span(name: &'static str, dur_ns: u64) -> TraceRecord {
        rec(TraceEvent::Span { name, dur_ns })
    }

    fn step(workers: u32, plan_ns: u64) -> TraceSnapshot {
        TraceSnapshot {
            records: vec![
                span("prepare", 100),
                plan(workers, plan_ns),
                plan(workers, plan_ns),
                plan(workers, plan_ns),
                span("replan", 1_000),
                span("event", 1_500),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn overlapping_plan_builds_are_divided_by_their_workers() {
        // Sequential: three 200 ns plans take 600 ns of the replan.
        let mut seq = Ledger::default();
        seq.absorb(&step(1, 200));
        // Two workers: each plan reads 400 ns of wall, but they overlap,
        // so the three of them still cover 600 ns of the replan.
        let mut par = Ledger::default();
        par.absorb(&step(2, 400));
        for l in [&seq, &par] {
            assert_eq!(l.plans, 3);
            assert!((l.plan_ns - 600.0).abs() < 1e-9);
            assert!((l.replan_self_ns() - 300.0).abs() < 1e-9);
            assert!((l.event_self_ns() - 500.0).abs() < 1e-9);
            assert!((l.replan_explained_share() - 0.7).abs() < 1e-9);
        }
    }

    #[test]
    fn rows_add_up_to_event_time() {
        let mut l = Ledger::default();
        l.absorb(&step(2, 300));
        l.absorb(&step(1, 100));
        let sum = l.event_self_ns() + l.replan_self_ns() + l.prepare_ns as f64 + l.plan_ns;
        assert!((sum - l.event_ns as f64).abs() < 1e-9);
        assert_eq!(l.events, 2);
        assert_eq!(l.depths.len(), 6);
        let mut merged = Ledger::default();
        merged.merge(&l);
        merged.merge(&l);
        assert_eq!(merged.events, 4);
        assert!((merged.plan_ns - 2.0 * l.plan_ns).abs() < 1e-9);
    }
}
