//! `service_durable`: an in-process daemon (`dynp_serve::spawn`: dynP,
//! 128 processors, speedup 2000, default queue bound, journal fsynced on
//! every accept, quotas off) driven open-loop by the `loadgen` user model
//! at a fixed `low` rate and a fixed `over` rate, a saturation search
//! between them, and timed crash recovery of eight fixed journals.
//!
//! The load generator is open-loop: one sender thread sends every operation at
//! its due time whatever the daemon does, and this thread collects the
//! replies. Latency runs from the due time, not the send time, so a
//! stall is charged to every request it delays; how late the sender ran
//! is reported as lateness.

use crate::inputs;
use crate::ledger::Ledger;
use crate::mix::{self, Op, OpKind};
use crate::report::Outcome;
use crate::stats::{self, median};
use dynp_core::DeciderKind;
use dynp_obs::{TraceLevel, Tracer};
use dynp_serve::journal::DEFAULT_ROTATE_BYTES;
use dynp_serve::{
    load_latest_checkpoint, parse_request, read_journal, recover, render_reply, render_scheduler,
    replay_records, replay_session, spawn, Command, FsyncPolicy, JournalRecord, JournalWriter,
    OverloadReason, Reply, Request, ServiceConfig, ServiceReport, SessionReplay, SubmitError,
};
use dynp_sim::SchedulerSpec;
use dynp_workload::transform;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

const MACHINE: u32 = 128;
const SPEEDUP: u64 = 2_000;
/// The latency objective behind `sustainable_eps`.
const SLO_MS: f64 = 10.0;
/// A phase whose sender lateness tail exceeds this share of the SLO
/// measured the generator, not the daemon: the run is invalid.
const LATENESS_SHARE: f64 = 0.5;
/// Fixed rates (submissions per second): `low` well under the knee,
/// `over` past it.
const LOW_RATE: f64 = 200.0;
const OVER_RATE: f64 = 1_000.0;
/// Shares of the run window: each fixed-rate phase, each search probe.
const LOW_SHARE: f64 = 0.12;
const OVER_SHARE: f64 = 0.12;
const PROBE_SHARE: f64 = 0.06;
/// Verdicts per window of the low phase's windowed tail (about one
/// second at the low rate).
const TAIL_WINDOW: usize = 200;
/// Bisection steps of the saturation search between `low` and `over`.
const SEARCH_STEPS: usize = 4;
/// A reply later than this counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// The recovery journals: a paper grid cell's job stream (SDSC, whose
/// machine is the daemon's 128 processors, at shrinking factor 0.6).
const RECOVER_TRACE: &str = "SDSC";
const RECOVER_FACTOR: f64 = 0.6;
const RECOVER_JOBS: usize = 1_500;
/// Recovery journals per run: perturbations of the stream derived from
/// the seed. A saturated cell's replay cost moves with its queue depth,
/// which one perturbation can raise well above another's; the run
/// cycles through all of them and reports their sum.
const RECOVER_VARIANTS: u64 = 8;
/// Traced recoveries for `trace.overhead`.
const TRACED_RECOVERIES: usize = 3;
/// Set-up blocks and set-ups per block (see [`stats::SetupTimer`]).
const SETUP_BLOCKS: usize = 3;
const SETUP_REPS: usize = 2;

fn spec() -> SchedulerSpec {
    SchedulerSpec::dynp(DeciderKind::Advanced)
}

fn config(dir: &Path, tracer: Tracer) -> ServiceConfig {
    let mut c = ServiceConfig::new(MACHINE, spec());
    c.speedup = SPEEDUP;
    c.journal = Some(dir.to_path_buf());
    c.fsync = FsyncPolicy::Always;
    c.tracer = tracer;
    c
}

/// What one fixed-rate phase observed.
#[derive(Default)]
struct Phase {
    submits: u64,
    accepted: u64,
    cancelled: u64,
    queue_full: u64,
    refused_other: u64,
    timeouts: u64,
    lost: u64,
    /// Submit verdict latency from the due time (accepts and refusals).
    verdict_ms: Vec<f64>,
    /// `status` reply latency from the due time.
    status_ms: Vec<f64>,
    /// Send time minus due time, every operation.
    lateness_ms: Vec<f64>,
    /// Median verdict latency over the last quarter of the phase.
    late_p50_ms: f64,
    /// Verdicts per second from the phase start to the last verdict:
    /// the daemon's capacity once it is saturated.
    verdict_rate: f64,
    /// Request and reply lines, for the codec rows.
    lines: Vec<String>,
    replies: Vec<Reply>,
    report: Option<ServiceReport>,
}

impl Phase {
    fn verdict(&self) -> stats::Summary {
        summary(&self.verdict_ms)
    }

    /// Meets the objective: no refusal, no timeout, tail within the
    /// SLO, and no backlog building up over the phase.
    fn sustainable(&self) -> bool {
        self.queue_full == 0
            && self.refused_other == 0
            && self.timeouts == 0
            && self.verdict().tail <= SLO_MS
            && self.late_p50_ms <= SLO_MS
    }

    fn lateness_tail(&self) -> f64 {
        stats::summarize(&self.lateness_ms).map_or(0.0, |s| s.tail)
    }
}

/// A summary that reads infinitely slow when nothing was measured.
fn summary(samples: &[f64]) -> stats::Summary {
    stats::summarize(samples).unwrap_or(stats::Summary {
        n: 0,
        p50: f64::INFINITY,
        tail: f64::INFINITY,
        tail_pct: 100.0,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The NDJSON request line of an operation (the wire format of
/// `dynp_serve::proto`).
fn request_line(op: &OpKind) -> String {
    match op {
        OpKind::Submit(s) => format!(
            "{{\"cmd\":\"submit\",\"width\":{},\"estimate_ms\":{},\"actual_ms\":{},\"user\":{}}}",
            s.width,
            s.estimate.as_millis(),
            s.actual.as_millis(),
            s.user
        ),
        OpKind::Status => "{\"cmd\":\"status\"}".to_string(),
        OpKind::Cancel(job) => format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"),
    }
}

/// Waits for a reply until `deadline`, the request's due time plus
/// [`REPLY_TIMEOUT`]: the wait is bounded by when the request was due,
/// not by when the collector got to it, so a hung daemon costs one
/// timeout's wait in all, not one per outstanding request. The flag is
/// false for a reply that was already late when it was received.
fn await_reply(rx: &Receiver<Reply>, deadline: Instant) -> Result<(Reply, bool), RecvTimeoutError> {
    let reply = rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))?;
    Ok((reply, Instant::now() <= deadline))
}

/// Runs one phase against a fresh daemon journaling into `dir`, drains
/// it, and checks it: no lost job, the report agrees with the replies,
/// and (with `replay`) the drained journal replays to the live
/// fingerprint.
fn run_phase(
    dir: &Path,
    ops: &[Op],
    tracer: Tracer,
    replay: bool,
    keep: bool,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let (handle, join) = match spawn(config(dir, tracer)) {
        Ok(h) => h,
        Err(e) => {
            out.fail(format!("spawn in {}: {e}", dir.display()));
            return phase;
        }
    };
    let tx = handle.sender();
    let (flight_tx, flight_rx) = mpsc::channel::<(usize, Instant, Receiver<Reply>)>();
    let start = Instant::now() + Duration::from_millis(20);
    let mut lateness = Vec::new();
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let due = start + op.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (reply_tx, reply_rx) = mpsc::channel();
                let cmd = match op.kind {
                    OpKind::Submit(spec) => Command::Submit(spec, reply_tx),
                    OpKind::Status => Command::Status(reply_tx),
                    OpKind::Cancel(job) => Command::Cancel(job, reply_tx),
                };
                late.push(ms(Instant::now().saturating_duration_since(due)));
                // A send to a stopped daemon drops the reply sender; the
                // collector sees the disconnect.
                let _ = tx.send(cmd);
                if flight_tx.send((i, due, reply_rx)).is_err() {
                    break;
                }
            }
            late
        });
        let late_from = ops.last().map_or(Duration::ZERO, |o| o.due.mul_f64(0.75));
        let mut late_verdicts = Vec::new();
        let mut last_verdict = start;
        for (i, due, reply_rx) in flight_rx {
            let reply = await_reply(&reply_rx, due + REPLY_TIMEOUT);
            let latency = ms(Instant::now().saturating_duration_since(due));
            let op = &ops[i];
            match reply {
                Err(RecvTimeoutError::Timeout) => phase.timeouts += 1,
                Err(RecvTimeoutError::Disconnected) => phase.lost += 1,
                Ok((reply, in_time)) => {
                    if !in_time {
                        phase.timeouts += 1;
                    }
                    match (&op.kind, &reply) {
                        (OpKind::Submit(_), r) => {
                            phase.verdict_ms.push(latency);
                            last_verdict = Instant::now();
                            if op.due >= late_from {
                                late_verdicts.push(latency);
                            }
                            match r {
                                Reply::Accepted(_) => phase.accepted += 1,
                                Reply::Rejected(SubmitError::Overload(
                                    OverloadReason::QueueFull,
                                )) => phase.queue_full += 1,
                                _ => phase.refused_other += 1,
                            }
                        }
                        (OpKind::Status, _) => phase.status_ms.push(latency),
                        (OpKind::Cancel(_), Reply::Cancelled { found: true, .. }) => {
                            phase.cancelled += 1
                        }
                        _ => {}
                    }
                    if keep {
                        phase.lines.push(request_line(&op.kind));
                        phase.replies.push(reply);
                    }
                }
            }
        }
        phase.late_p50_ms = median(&late_verdicts);
        phase.verdict_rate = phase.verdict_ms.len() as f64
            / last_verdict
                .saturating_duration_since(start)
                .as_secs_f64()
                .max(1e-9);
        lateness = sender.join().expect("sender thread panicked");
    });
    phase.lateness_ms = lateness;
    phase.submits = ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Submit(_)))
        .count() as u64;
    handle.shutdown();
    drop(handle);
    let report = match join.join() {
        Ok(r) => r,
        Err(_) => {
            out.fail("daemon thread panicked".into());
            return phase;
        }
    };
    out.attempted += ops.len() as u64;
    out.failed += phase.timeouts + phase.lost;
    let completed = report.run.completed.len() as u64;
    phase.lost += report.run.faults.lost;
    if report.accepted != phase.accepted
        || report.cancelled != phase.cancelled
        || completed != phase.accepted - phase.cancelled
        || report.run.faults.lost != 0
    {
        out.fail(format!(
            "daemon report (accepted {}, cancelled {}, completed {completed}, lost {}) \
             disagrees with the replies (accepted {}, cancelled {})",
            report.accepted,
            report.cancelled,
            report.run.faults.lost,
            phase.accepted,
            phase.cancelled
        ));
    }
    if replay {
        match replay_session(dir, &spec()) {
            Ok(r) if r.fingerprint.is_some() && r.fingerprint == report.fingerprint => {}
            Ok(r) => out.fail(format!(
                "live fingerprint {:?} differs from the journal replay's {:?}",
                report.fingerprint, r.fingerprint
            )),
            Err(e) => out.fail(format!("replay of {}: {e}", dir.display())),
        }
    }
    phase.report = Some(report);
    phase
}

/// Highest rate in `[pass, fail]` the probe accepts, by bisection: the
/// bracket ends are taken as known, `steps` probes halve it.
pub fn saturation_search(
    mut pass: f64,
    mut fail: f64,
    steps: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> f64 {
    for _ in 0..steps {
        let mid = (pass + fail) / 2.0;
        if probe(mid) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    pass
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Builds a recovery journal from a paper trace's job stream.
fn build_journal(dir: &Path, seed: u64) -> Result<Vec<JournalRecord>, String> {
    let set = transform::shrink(
        &inputs::stream(RECOVER_TRACE, RECOVER_JOBS, 200, Some(seed)),
        RECOVER_FACTOR,
    );
    let mut w = JournalWriter::create(
        dir,
        MACHINE,
        SPEEDUP,
        &render_scheduler(&spec()),
        FsyncPolicy::Never,
        DEFAULT_ROTATE_BYTES,
    )
    .map_err(|e| e.to_string())?;
    for j in set.jobs() {
        w.append_submit(
            j.submit,
            j.id.0,
            j.id.0 % mix::USERS as u32,
            j.width,
            j.estimate,
            j.actual,
        )
        .map_err(|e| e.to_string())?;
    }
    // The writer is unbuffered, so the records are readable without a
    // sync; an fsync here would time the disk, not the set-up.
    Ok(read_journal(dir).map_err(|e| e.to_string())?.records)
}

/// `recover()` on a copy of `src` until the first `status` reply, then
/// drain; returns the time to that reply and the drained report.
fn recover_once(
    src: &Path,
    dst: &Path,
    tracer: Tracer,
    checkpoint_every: u64,
) -> Result<(f64, ServiceReport), String> {
    copy_dir(src, dst).map_err(|e| e.to_string())?;
    let mut cfg = config(dst, tracer);
    cfg.checkpoint_every = checkpoint_every;
    let t0 = Instant::now();
    let (handle, join) = recover(cfg).map_err(|e| e.to_string())?;
    let status = handle.status();
    let secs = t0.elapsed().as_secs_f64();
    if status.is_none() {
        return Err("recovered daemon gave no status".into());
    }
    if checkpoint_every > 0 {
        // One more accepted record makes the daemon write a checkpoint
        // of the whole recovered state.
        let spec = dynp_serve::SubmitSpec {
            width: 1,
            estimate: dynp_des::SimDuration::from_secs(60),
            actual: dynp_des::SimDuration::from_secs(30),
            user: 0,
        };
        handle.submit(spec).map_err(|e| format!("{e:?}"))?;
    }
    handle.shutdown();
    drop(handle);
    let report = join
        .join()
        .map_err(|_| "recovered daemon panicked".to_string())?;
    Ok((secs, report))
}

/// One recovery journal: its directory, records and batch replay. The
/// directory goes with the value.
struct Journal {
    dir: PathBuf,
    records: Vec<JournalRecord>,
    replay: SessionReplay,
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one set-up builds: the two phases' schedules and the recovery
/// journals, each replayed through the batch driver for the fingerprint
/// every recovered daemon must match. That CPU work dominates the
/// set-up, so filesystem hiccups while the journals are written do not.
struct SetUp {
    low_ops: Vec<Op>,
    over_ops: Vec<Op>,
    journals: Vec<Journal>,
    /// Time in `replay_records`, all journals.
    replay_s: f64,
}

/// One set-up; `tag` names its journal directories under `work`.
fn set_up(seed: u64, seconds: f64, work: &Path, tag: usize) -> Result<SetUp, String> {
    let low_ops = mix::schedule(seed, LOW_RATE, LOW_SHARE * seconds, MACHINE);
    let over_ops = mix::schedule(seed, OVER_RATE, OVER_SHARE * seconds, MACHINE);
    let mut replay = Duration::ZERO;
    let mut journals = Vec::new();
    for v in 0..RECOVER_VARIANTS {
        let dir = work.join(format!("recover{tag}-{v}"));
        let records = build_journal(&dir, seed.wrapping_mul(RECOVER_VARIANTS) + v)?;
        let t = Instant::now();
        let expected = replay_records(MACHINE, &records, &spec()).map_err(|e| e.to_string())?;
        replay += t.elapsed();
        journals.push(Journal {
            dir,
            records,
            replay: expected,
        });
    }
    Ok(SetUp {
        low_ops,
        over_ops,
        journals,
        replay_s: replay.as_secs_f64(),
    })
}

/// Timed recoveries of the fixed journals, round robin, each checked
/// against its journal's batch replay.
struct Recoveries<'a> {
    journals: &'a [Journal],
    work: &'a Path,
    secs: Vec<f64>,
    /// Fastest recovery per journal.
    best: Vec<f64>,
}

impl Recoveries<'_> {
    fn sample(&mut self, out: &mut Outcome) {
        let i = self.secs.len() % self.journals.len();
        let j = &self.journals[i];
        let dst = self.work.join(format!("recovered{}", self.secs.len()));
        out.attempted += 1;
        match recover_once(&j.dir, &dst, Tracer::disabled(), 0) {
            Ok((secs, r)) => {
                self.secs.push(secs);
                self.best[i] = self.best[i].min(secs);
                let exp = &j.replay;
                if r.fingerprint.is_none()
                    || r.fingerprint != exp.fingerprint
                    || r.run.completed.len() != exp.run.completed.len()
                    || r.run.faults.lost != 0
                {
                    out.fail(format!(
                        "recovered daemon (fingerprint {:?}, completed {}) differs from \
                         replay_records (fingerprint {:?}, completed {})",
                        r.fingerprint,
                        r.run.completed.len(),
                        exp.fingerprint,
                        exp.run.completed.len()
                    ));
                }
            }
            Err(e) => out.fail(format!("recovery: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dst);
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path, out: &mut Outcome) {
    let probe_secs = PROBE_SHARE * seconds;
    // Every set-up gets its own journal directories.
    let mut setup = stats::SetupTimer::new(SETUP_REPS);
    let mut tag = 0;
    let mut build = || {
        tag += 1;
        set_up(seed, seconds, work, tag)
    };
    let SetUp {
        low_ops,
        over_ops,
        journals,
        replay_s,
    } = match setup.first_block(&mut build) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return;
        }
    };
    for _ in 1..SETUP_BLOCKS {
        // Each set-up, with its journal directories, is dropped after
        // it is timed.
        let mut failure = None;
        setup.block(|| build().map_err(|e| failure = Some(e)));
        if let Some(e) = failure {
            out.fail(format!("set-up: {e}"));
            return;
        }
    }
    let setup_s = setup.setup_s();
    out.report.push(setup.describe());
    let records: usize = journals.iter().map(|j| j.records.len()).sum();

    let t0 = Instant::now();
    let mut rec = Recoveries {
        journals: &journals,
        work,
        secs: Vec::new(),
        best: vec![f64::INFINITY; journals.len()],
    };
    rec.sample(out);

    // Fixed rates.
    let low_dir = work.join("low");
    let low = run_phase(&low_dir, &low_ops, Tracer::disabled(), true, true, out);
    rec.sample(out);
    let over_tracer = if trace {
        Tracer::with_capacity(TraceLevel::Spans, 1 << 22)
    } else {
        Tracer::disabled()
    };
    let over = run_phase(
        &work.join("over"),
        &over_ops,
        over_tracer.clone(),
        true,
        false,
        out,
    );
    rec.sample(out);
    if low.lateness_tail() > LATENESS_SHARE * SLO_MS {
        out.fail(format!(
            "low: sender lateness tail {:.2} ms exceeds {LATENESS_SHARE} of the {SLO_MS} ms SLO",
            low.lateness_tail()
        ));
    }

    // Saturation search between the fixed rates.
    let mut probes = Vec::new();
    let low_ok = low.sustainable();
    let sustainable = if over.sustainable() {
        OVER_RATE
    } else {
        let (pass, fail) = if low_ok {
            (LOW_RATE, OVER_RATE)
        } else {
            (0.0, LOW_RATE)
        };
        let mut k = 0u64;
        saturation_search(pass, fail, SEARCH_STEPS, |rate| {
            k += 1;
            let ops = mix::schedule(seed.wrapping_add(k), rate, probe_secs, MACHINE);
            let p = run_phase(
                &work.join(format!("probe{k}")),
                &ops,
                Tracer::disabled(),
                false,
                false,
                out,
            );
            rec.sample(out);
            let ok = p.sustainable();
            probes.push(format!(
                "{rate:.0}/s {} (p50 {:.2} ms, p{:.1} {:.2} ms, queue_full {})",
                if ok { "pass" } else { "fail" },
                p.verdict().p50,
                p.verdict().tail_pct,
                p.verdict().tail,
                p.queue_full
            ));
            ok
        })
    };

    // One recovery runs before and after every phase and probe; more fill
    // the rest of the window, so the samples span the whole run.
    while (rec.secs.len() < journals.len() || t0.elapsed().as_secs_f64() < seconds)
        && out.failures.is_empty()
    {
        rec.sample(out);
    }
    let rec0_best = rec.best[0];
    let (recover_s, best_s) = (rec.secs, rec.best.iter().sum::<f64>());

    let lv = low.verdict();
    let low_tail = stats::windowed_tail(&low.verdict_ms, TAIL_WINDOW).unwrap_or(f64::INFINITY);
    let qv = stats::summarize(&over.status_ms).map_or(0.0, |s| s.tail);
    let recovery = summary(&recover_s);
    for (name, rate, p) in [("low", LOW_RATE, &low), ("over", OVER_RATE, &over)] {
        let v = p.verdict();
        out.report.push(format!(
            "service {name} {rate:.0}/s: {} submits, {} accepted, {} queue_full, {} timeouts; \
             verdict p50 {:.3} ms, p{:.1} {:.3} ms (n={}), {:.1} verdicts/s; status p50 {:.3} ms; \
             lateness p{:.1} {:.3} ms",
            p.submits,
            p.accepted,
            p.queue_full,
            p.timeouts,
            v.p50,
            v.tail_pct,
            v.tail,
            v.n,
            p.verdict_rate,
            median(&p.status_ms),
            stats::summarize(&p.lateness_ms).map_or(100.0, |s| s.tail_pct),
            p.lateness_tail()
        ));
    }
    for p in &probes {
        out.report.push(format!("service probe {p}"));
    }
    out.report.push(format!(
        "service: sustainable {sustainable:.0}/s (verdict tail <= {SLO_MS} ms); low windowed tail \
         {low_tail:.3} ms; recover() to first status p50 {:.1} ms, p{:.0} {:.1} ms (n={}); \
         {records} records in {RECOVER_VARIANTS} journals: fastest recoveries {:.1} ms, \
         replay_records {:.1} ms",
        recovery.p50 * 1e3,
        recovery.tail_pct,
        recovery.tail * 1e3,
        recovery.n,
        best_s * 1e3,
        replay_s * 1e3
    ));

    out.metrics.set("setup_s", setup_s);
    out.metrics.set(
        "served_share",
        low.accepted as f64 / low.submits.max(1) as f64,
    );
    // Each journal's fastest recovery: host interference only adds time.
    out.metrics.set("throughput", records as f64 / best_s);
    out.metrics.set("unit.p50_ms", recovery.p50 * 1e3);
    out.metrics.set("unit.tail_ms", recovery.tail * 1e3);
    if !trace {
        return;
    }

    // Traced run only: the per-layer rows.
    out.metrics.set("serve.admit_p50_ms", lv.p50);
    out.metrics.set("serve.admit_tail_ms", low_tail);
    out.metrics.set("serve.over_tail_ms", over.verdict().tail);
    out.metrics.set("serve.query_tail_ms", qv);
    out.metrics
        .set("serve.over_verdicts_per_s", over.verdict_rate);
    out.metrics.set("serve.sustainable_eps", sustainable);
    out.metrics.set(
        "serve.lateness_ms_p99",
        low.lateness_tail().max(over.lateness_tail()),
    );
    out.metrics
        .set("serve.accepted", (low.accepted + over.accepted) as f64);
    out.metrics.set(
        "serve.refused_queue_full",
        (low.queue_full + over.queue_full) as f64,
    );
    // The share of `over` submits refused `queue_full`: `served_share`
    // leaves the `over` phase out (see README.md), this row keeps it.
    out.metrics.set(
        "serve.over_queue_full_share",
        over.queue_full as f64 / over.submits.max(1) as f64,
    );
    out.metrics
        .set("serve.timeouts", (low.timeouts + over.timeouts) as f64);
    out.metrics.set("serve.lost", (low.lost + over.lost) as f64);
    out.metrics.set("workload.generate_s", setup_s);
    out.metrics.set("session.replay_s", replay_s);

    let mut ledger = Ledger::default();
    ledger.absorb(&over_tracer.snapshot());
    if ledger.dropped > 0 {
        out.fail(format!("tracer ring dropped {} records", ledger.dropped));
    }
    let events = over.report.as_ref().map_or(0, |r| r.run.result.events);
    crate::report::ledger_metrics(&mut out.metrics, &ledger, events);
    out.metrics.set(
        "ledger.replan_explained_share",
        ledger.replan_explained_share(),
    );
    out.report.push(format!(
        "service over attribution: rms rows explain {:.1} % of replan time; \
         the remaining {:.1} % is core self time",
        100.0 * ledger.replan_explained_share(),
        100.0 * (1.0 - ledger.replan_explained_share())
    ));

    // Tracing overhead on the recovery replay.
    let mut traced_s = Vec::new();
    for rep in 0..TRACED_RECOVERIES {
        let tracer = Tracer::with_capacity(TraceLevel::Spans, 24 * RECOVER_JOBS + 1024);
        match recover_once(
            &journals[0].dir,
            &work.join(format!("recovered-traced{rep}")),
            tracer,
            0,
        ) {
            Ok((secs, _)) => traced_s.push(secs),
            Err(e) => out.fail(format!("traced recovery: {e}")),
        }
    }
    out.metrics
        .set("trace.overhead", median(&traced_s) / rec0_best);

    // Journal layer on the low phase's records, same policy, fresh dir.
    match read_journal(&low_dir) {
        Ok(j) => {
            let bytes: u64 = std::fs::read_dir(&low_dir)
                .map(|d| {
                    d.filter_map(|e| e.ok())
                        .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
                        .filter_map(|e| e.metadata().ok())
                        .map(|md| md.len())
                        .sum()
                })
                .unwrap_or(0);
            out.metrics.set(
                "journal.bytes_per_record",
                bytes as f64 / j.records.len().max(1) as f64,
            );
            let dir = work.join("append");
            match JournalWriter::create(
                &dir,
                MACHINE,
                SPEEDUP,
                &render_scheduler(&spec()),
                FsyncPolicy::Always,
                DEFAULT_ROTATE_BYTES,
            ) {
                Ok(mut w) => {
                    let mut us = Vec::with_capacity(j.records.len());
                    for rec in &j.records {
                        let t0 = Instant::now();
                        if let Err(e) = w.append(rec) {
                            out.fail(format!("journal append: {e}"));
                            break;
                        }
                        us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    if let Some(s) = stats::summarize(&us) {
                        out.metrics.set("journal.append_us_p50", s.p50);
                        out.metrics.set("journal.append_us_p99", s.tail);
                    }
                }
                Err(e) => out.fail(format!("journal create: {e}")),
            }
        }
        Err(e) => out.fail(format!("read_journal({}): {e}", low_dir.display())),
    }
    let t0 = Instant::now();
    let read = read_journal(&journals[0].dir);
    out.metrics
        .set("journal.read_s", t0.elapsed().as_secs_f64());
    if read
        .map(|j| j.records != journals[0].records)
        .unwrap_or(true)
    {
        out.fail("recovery journal reads back differently".into());
    }
    let ck = work.join("checkpointed");
    match recover_once(&journals[0].dir, &ck, Tracer::disabled(), 1) {
        Ok(_) => {
            let t0 = Instant::now();
            let loaded = load_latest_checkpoint(&ck);
            out.metrics.set(
                "journal.checkpoint_load_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
            match loaded {
                Ok((Some(c), _)) if c.jobs.len() == journals[0].records.len() + 1 => {}
                other => out.fail(format!(
                    "checkpoint after recovery: expected {} jobs, got {:?}",
                    journals[0].records.len() + 1,
                    other.map(|(c, _)| c.map(|c| c.jobs.len()))
                )),
            }
        }
        Err(e) => out.fail(format!("checkpointed recovery: {e}")),
    }

    // Codec rows on the low phase's request and reply lines.
    proto_rows(&low, out);
}

fn proto_rows(low: &Phase, out: &mut Outcome) {
    const ROUNDS: usize = 20;
    let n = (low.lines.len() * ROUNDS).max(1) as f64;
    let t0 = Instant::now();
    let mut parsed = 0usize;
    for _ in 0..ROUNDS {
        for line in &low.lines {
            parsed += std::hint::black_box(parse_request(line)).is_ok() as usize;
        }
    }
    out.metrics
        .set("proto.parse_ns", t0.elapsed().as_secs_f64() * 1e9 / n);
    let t0 = Instant::now();
    let mut rendered = 0usize;
    for _ in 0..ROUNDS {
        for reply in &low.replies {
            rendered += std::hint::black_box(render_reply(reply)).len();
        }
    }
    out.metrics
        .set("proto.render_ns", t0.elapsed().as_secs_f64() * 1e9 / n);
    if parsed != low.lines.len() * ROUNDS || rendered == 0 {
        out.fail(format!(
            "codec: parsed {parsed} of {} request lines",
            low.lines.len() * ROUNDS
        ));
    }
    // The parsed submits are the submitted specs.
    for line in &low.lines {
        if let Ok(Request::Submit(s)) = parse_request(line) {
            if request_line(&OpKind::Submit(s)) != *line {
                out.fail(format!("codec round trip changed {line}"));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_finds_the_knee_of_a_synthetic_curve() {
        // p99 latency of a synthetic M/M/1-like server: 1/(μ − λ), μ = 500.
        let knee = 500.0 - 1000.0 / SLO_MS;
        let mut probes = Vec::new();
        let found = saturation_search(100.0, 1000.0, 8, |rate| {
            probes.push(rate);
            rate < 500.0 && 1000.0 / (500.0 - rate) <= SLO_MS
        });
        assert!(found <= knee, "{found} above the knee {knee}");
        assert!(
            knee - found <= 900.0 / 256.0,
            "{found} too far below {knee}"
        );
        assert_eq!(probes.len(), 8);
        assert_eq!(probes[0], 550.0);
    }

    #[test]
    fn bisection_keeps_the_lower_end_when_every_probe_fails() {
        assert_eq!(saturation_search(100.0, 1000.0, 5, |_| false), 100.0);
        let top = saturation_search(100.0, 1000.0, 5, |_| true);
        assert_eq!(top, 1000.0 - 900.0 / 32.0);
    }

    #[test]
    fn a_silent_daemon_costs_one_timeout_not_one_per_request() {
        // Replies that never come: the senders stay alive, so every wait
        // ends in a timeout, not a disconnect.
        let timeout = Duration::from_millis(50);
        let due = Instant::now();
        let pending: Vec<_> = (0..40).map(|_| mpsc::channel::<Reply>()).collect();
        let t0 = Instant::now();
        for (_tx, rx) in &pending {
            assert!(matches!(
                await_reply(rx, due + timeout),
                Err(RecvTimeoutError::Timeout)
            ));
        }
        let waited = t0.elapsed();
        assert!(waited >= timeout, "{waited:?}");
        assert!(
            waited < timeout * 10,
            "{waited:?} for 40 requests due together"
        );
    }

    #[test]
    fn a_reply_received_after_its_deadline_is_late() {
        let (tx, rx) = mpsc::channel();
        tx.send(Reply::Draining).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(await_reply(&rx, past), Ok((_, false))));
        tx.send(Reply::Draining).unwrap();
        let later = Instant::now() + REPLY_TIMEOUT;
        assert!(matches!(await_reply(&rx, later), Ok((_, true))));
        drop(tx);
        assert!(matches!(
            await_reply(&rx, later),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn request_lines_parse_back_to_the_operation() {
        for op in mix::schedule(5, 300.0, 2.0, MACHINE) {
            let line = request_line(&op.kind);
            let parsed = parse_request(&line).expect("valid request line");
            let same = match (op.kind, parsed) {
                (OpKind::Submit(a), Request::Submit(b)) => a == b,
                (OpKind::Status, Request::Status) => true,
                (OpKind::Cancel(a), Request::Cancel(b)) => a == b,
                _ => false,
            };
            assert!(same, "{line}");
        }
    }
}
