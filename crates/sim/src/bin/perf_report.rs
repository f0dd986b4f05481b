//! Perf-trajectory harness: times a fixed reduced-scale grid and writes
//! machine-readable `BENCH_planner.json` / `BENCH_end_to_end.json` /
//! `BENCH_federation.json` so subsequent changes can be checked against
//! the recorded trajectory.
//!
//! ```text
//! cargo run --release -p dynp-sim --bin perf_report [-- --quick] [--out-dir DIR]
//! ```
//!
//! Three reports:
//!
//! * **planner** — microbenchmark of one self-tuning step's planning work
//!   (3 policy plans over the same base profile) comparing the incremental
//!   planner (shared base, watermark restore) against the from-scratch
//!   reference, across queue depths and running-set sizes, plus one row
//!   that steps a deep queue through a streak of submissions so the
//!   persistent per-policy plans re-place only what each one perturbs;
//! * **end_to_end** — full simulations of dynP (3 candidate policies,
//!   advanced decider) per grid cell, incremental vs the from-scratch
//!   reference mode, with wall time, events/sec, an allocation-count
//!   proxy, and the resulting speedup;
//! * **federation** — one fixed multi-cluster workload through the
//!   sharded federation executor at 1/2/4/8 shard threads, with the
//!   sequential run as timing reference and bit-identity oracle.
//!
//! Everything is seeded and single-threaded; numbers vary with the host,
//! the *ratios* are the tracked quantity.

use dynp_core::{try_resolve_planner_threads, DeciderKind, DynPConfig, SelfTuningScheduler};
use dynp_des::{SimDuration, SimTime};
use dynp_obs::Tracer;
use dynp_rms::{
    AdmissionConfig, PlanTiming, Planner, Policy, QueueChange, QueueDelta, ReferencePlanner,
    RunningJob, PARALLEL_MIN_DEPTH,
};
use dynp_sim::{run_federation, simulate_chaos, ClusterSpec, FederationConfig, RoutePolicy};
use dynp_workload::{
    traces, transform, FaultModel, FaultPlan, Job, JobId, MultiClusterWorkload, ReservationModel,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the reports carry an allocation proxy —
/// the incremental engine's point is to stop allocating per event.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Median wall times of two competing workloads, sampled interleaved
/// (`a b a b …`) instead of as two back-to-back blocks. The reports only
/// ever publish the *ratio* of the two medians, and on hosts whose clock
/// frequency drifts (thermal throttling, shared runners) block-wise
/// sampling biases that ratio by whatever the host did between the
/// blocks; interleaving gives both sides the same drift so it cancels.
fn median_pair_ns<A: FnMut(), B: FnMut()>(reps: usize, mut a: A, mut b: B) -> (u64, u64) {
    let mut sa: Vec<u64> = Vec::with_capacity(reps);
    let mut sb: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        a();
        sa.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        b();
        sb.push(t0.elapsed().as_nanos() as u64);
    }
    sa.sort_unstable();
    sb.sort_unstable();
    (sa[sa.len() / 2], sb[sb.len() / 2])
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One row of a report: ordered key → JSON-literal pairs.
struct Row(Vec<(&'static str, String)>);

impl Row {
    fn str(mut self, k: &'static str, v: &str) -> Self {
        self.0.push((k, format!("\"{}\"", json_escape(v))));
        self
    }
    fn num(mut self, k: &'static str, v: f64) -> Self {
        self.0.push((k, format!("{v}")));
        self
    }
    fn int(mut self, k: &'static str, v: u64) -> Self {
        self.0.push((k, format!("{v}")));
        self
    }
}

fn write_report(path: &std::path::Path, meta: &[(&str, String)], rows: &[Row]) {
    let mut out = String::from("{\n");
    for (k, v) in meta {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (k, v)) in row.0.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": {v}");
        }
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn bench_job(id: u32, submit_s: u64, width: u32, est_s: u64) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_secs(submit_s),
        width,
        SimDuration::from_secs(est_s),
        SimDuration::from_secs(est_s),
    )
}

/// Deterministic synthetic running set: `n` jobs of staggered widths and
/// remaining times. All overlap near time zero, so the machine must be at
/// least as large as the total width (see [`machine_for`]).
fn running_set(n: usize) -> Vec<RunningJob> {
    (0..n)
        .map(|i| {
            let width = (i as u32 % 4) + 1;
            let est = 600 + 37 * (i as u64 % 53);
            RunningJob {
                job: bench_job(100_000 + i as u32, 0, width, est),
                start: SimTime::from_secs(7 * (i as u64 % 11)),
            }
        })
        .collect()
}

/// Machine size that fits the running set fully busy plus headroom for
/// the waiting queue to plan into.
fn machine_for(running: &[RunningJob]) -> u32 {
    running.iter().map(|r| r.job.width).sum::<u32>().max(192) + 64
}

/// The planner microbenchmark: one dynP step's planning work (three
/// policy-ordered plans of the same queue against the same running set),
/// through the same batched fan-out entry point production uses. The
/// deep-queue rows (4096, 16384) are where the capacity-indexed profile
/// has to show sublinear behaviour; they run fewer reps because the
/// reference side is quadratic there.
fn planner_report(out_dir: &std::path::Path, quick: bool, threads: usize) {
    let base_reps = if quick { 5 } else { 51 };
    let now = SimTime::from_secs(100_000);
    let mut rows = Vec::new();

    for &(depth, nrun) in &[
        (64usize, 16usize),
        (256, 64),
        (1024, 64),
        (1024, 256),
        (4096, 64),
        (16384, 64),
    ] {
        let reps = match depth {
            d if d >= 16384 => {
                if quick {
                    1
                } else {
                    3
                }
            }
            d if d >= 4096 => {
                if quick {
                    2
                } else {
                    11
                }
            }
            _ => base_reps,
        };
        let queue: Vec<Job> = transform::shrink(&traces::kth().generate(depth, 7), 1.0)
            .into_jobs()
            .into_iter()
            .map(|mut j| {
                j.submit = SimTime::ZERO;
                j
            })
            .collect();
        let running = running_set(nrun);
        let machine = machine_for(&running);
        let orders: Vec<Vec<Job>> = Policy::BASIC
            .iter()
            .map(|p| {
                let mut q = queue.clone();
                p.sort_queue(&mut q);
                q
            })
            .collect();

        // Incremental: one prepare, then the batched three-plan fan-out,
        // with the same depth gate production applies.
        let workers = if depth >= PARALLEL_MIN_DEPTH {
            threads
        } else {
            1
        };
        let mut planner = Planner::new();
        let mut timings = vec![PlanTiming::default(); Policy::BASIC.len()];

        // Reference: three from-scratch plans, each copying the unsorted
        // queue and sorting it (exactly the pre-incremental per-event
        // work). Both sides are sampled interleaved so clock drift
        // cancels in the speedup ratio, and shallow depths batch several
        // steps per sample so no sample falls to timer-noise scale.
        let inner = (1024 / depth).max(1) as u64;
        let mut reference = ReferencePlanner::new();
        let mut queue_buf = Vec::new();
        let (inc_ns, ref_ns) = median_pair_ns(
            reps,
            || {
                for _ in 0..inner {
                    planner.prepare(machine, now, &running, &[]);
                    // No queue delta: every step plans all three
                    // policies from the base.
                    planner.plan_prepared_batch(
                        &Policy::BASIC,
                        &orders,
                        None,
                        &mut timings,
                        workers,
                        0,
                    );
                }
            },
            || {
                for _ in 0..inner {
                    for policy in Policy::BASIC {
                        queue_buf.clear();
                        queue_buf.extend_from_slice(&queue);
                        policy.sort_queue(&mut queue_buf);
                        let s = reference.plan(machine, now, &running, &queue_buf);
                        std::hint::black_box(&s);
                    }
                }
            },
        );
        let (inc_ns, ref_ns) = (inc_ns / inner, ref_ns / inner);

        let speedup = ref_ns as f64 / inc_ns.max(1) as f64;
        println!(
            "planner depth={depth} running={nrun} threads={workers}: incremental {:.3} ms, reference {:.3} ms, speedup {speedup:.2}x",
            inc_ns as f64 / 1e6,
            ref_ns as f64 / 1e6,
        );
        rows.push(
            Row(Vec::new())
                .int("queue_depth", depth as u64)
                .int("running_jobs", nrun as u64)
                .int("threads", workers as u64)
                .int("reps", reps as u64)
                .int("incremental_ns_per_step", inc_ns)
                .int("reference_ns_per_step", ref_ns)
                .num("speedup", speedup),
        );
    }

    rows.push(submission_streak_row(quick, threads));

    write_report(
        &out_dir.join("BENCH_planner.json"),
        &[
            ("report", "\"planner\"".to_string()),
            (
                "unit",
                "\"ns per 3-policy planning step, median\"".to_string(),
            ),
            ("reps", base_reps.to_string()),
            ("threads", threads.to_string()),
        ],
        &rows,
    );
}

/// The planner row for persistent per-policy plans: a queue of 1024 jobs
/// (64 running, none overdue) takes a streak of 32 submissions at one
/// instant, and every step plans the three policies — incrementally as
/// the self-tuning step does (binary-insert the new job into each policy
/// order, then a batch with the step's queue delta, so each policy keeps
/// the prefix before the new job and re-places the rest), against three
/// from-scratch reference plans per step. Each sample replays the whole
/// streak from the same planned queue; only the streak is timed.
fn submission_streak_row(quick: bool, threads: usize) -> Row {
    const DEPTH: usize = 1024;
    const STREAK: usize = 32;
    let reps = if quick { 3 } else { 21 };
    let now = SimTime::from_secs(100_000);
    let jobs = transform::shrink(&traces::kth().generate(DEPTH + STREAK, 7), 1.0).into_jobs();
    let (queue, arrivals) = jobs.split_at(DEPTH);
    let queue: Vec<Job> = queue
        .iter()
        .map(|&j| Job {
            submit: SimTime::ZERO,
            ..j
        })
        .collect();
    let arrivals: Vec<Job> = arrivals.iter().map(|&j| Job { submit: now, ..j }).collect();
    let running: Vec<RunningJob> = running_set(64)
        .into_iter()
        .map(|r| RunningJob {
            start: now - SimDuration::from_secs(r.start.as_millis() / 1000),
            ..r
        })
        .collect();
    let machine = machine_for(&running);
    let orders: Vec<Vec<Job>> = Policy::BASIC
        .iter()
        .map(|p| {
            let mut q = queue.clone();
            p.sort_queue(&mut q);
            q
        })
        .collect();
    let changes: Vec<QueueChange> = arrivals.iter().map(|&j| QueueChange::Entered(j)).collect();

    let mut planner = Planner::new();
    let mut timings = vec![PlanTiming::default(); Policy::BASIC.len()];
    let mut reference = ReferencePlanner::new();
    let mut queue_buf = Vec::new();
    let mut workers = 1;
    let (mut inc, mut refr) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let mut step_orders = orders.clone();
        planner.prepare(machine, now, &running, &[]);
        planner.plan_prepared_batch(&Policy::BASIC, &step_orders, None, &mut timings, 1, 0);
        let t0 = Instant::now();
        for (k, job) in arrivals.iter().enumerate() {
            for (policy, order) in Policy::BASIC.iter().zip(&mut step_orders) {
                let pos = order.partition_point(|probe| policy.cmp_jobs(probe, job).is_lt());
                order.insert(pos, *job);
            }
            planner.prepare(machine, now, &running, &[]);
            let delta = QueueDelta {
                changes: &changes[k..k + 1],
                running: &running,
            };
            workers = planner
                .plan_prepared_batch(
                    &Policy::BASIC,
                    &step_orders,
                    Some(delta),
                    &mut timings,
                    threads,
                    PARALLEL_MIN_DEPTH,
                )
                .0;
        }
        inc.push(t0.elapsed().as_nanos() as u64 / STREAK as u64);
        let t0 = Instant::now();
        for k in 1..=STREAK {
            for policy in Policy::BASIC {
                queue_buf.clear();
                queue_buf.extend_from_slice(&queue);
                queue_buf.extend_from_slice(&arrivals[..k]);
                policy.sort_queue(&mut queue_buf);
                std::hint::black_box(reference.plan(machine, now, &running, &queue_buf));
            }
        }
        refr.push(t0.elapsed().as_nanos() as u64 / STREAK as u64);
        for (i, (policy, order)) in Policy::BASIC.iter().zip(&step_orders).enumerate() {
            let want = reference.plan(machine, now, &running, order);
            assert_eq!(
                planner.planned(i).entries,
                want.entries,
                "{policy} streak plan diverged from the reference"
            );
        }
    }
    inc.sort_unstable();
    refr.sort_unstable();
    let (inc_ns, ref_ns) = (inc[reps / 2], refr[reps / 2]);
    let speedup = ref_ns as f64 / inc_ns.max(1) as f64;
    println!(
        "planner depth={DEPTH} running=64 submission streak of {STREAK}: incremental {:.3} ms, reference {:.3} ms per step, speedup {speedup:.2}x",
        inc_ns as f64 / 1e6,
        ref_ns as f64 / 1e6,
    );
    Row(Vec::new())
        .int("queue_depth", DEPTH as u64)
        .int("running_jobs", 64)
        .str("mode", "submission_streak")
        .int("streak", STREAK as u64)
        .int("threads", workers as u64)
        .int("reps", reps as u64)
        .int("incremental_ns_per_step", inc_ns)
        .int("reference_ns_per_step", ref_ns)
        .num("speedup", speedup)
}

/// The end-to-end grid: full dynP simulations, incremental vs reference.
/// The fourth cell carries a reservation-heavy request stream — the
/// admission path and window-aware planning under load — and the fifth
/// is fault-heavy (seeded node outages plus job crashes), exercising
/// eviction, retry and schedule repair. Every cell asserts the two
/// modes still agree bit-for-bit on SLDwA — under faults too.
fn end_to_end_report(out_dir: &std::path::Path, quick: bool, threads: usize) {
    let (jobs, reps) = if quick { (400, 1) } else { (1_500, 7) };
    // (trace, shrink factor, reservation fraction, per-node MTBF seconds;
    // 0 = fault-free).
    let grid = [
        ("CTC", 0.7, 0.0, 0.0),
        ("SDSC", 0.7, 0.0, 0.0),
        ("KTH", 0.8, 0.0, 0.0),
        ("KTH", 0.8, 0.15, 0.0),
        ("KTH", 0.8, 0.0, 20_000.0),
    ];
    let mut config = DynPConfig::paper(DeciderKind::Advanced);
    config.planner_threads = threads;
    let mut rows = Vec::new();
    let mut speedups = Vec::new();

    for (trace, factor, res_fraction, mtbf) in grid {
        let model = traces::by_name(trace).expect("known trace");
        let set = transform::shrink(&model.generate(jobs, 11), factor);
        let reqs = if res_fraction > 0.0 {
            ReservationModel::typical(res_fraction).generate(&set, 11)
        } else {
            Vec::new()
        };
        let plan = if mtbf > 0.0 {
            FaultModel::typical(mtbf, 3_600.0, 0.05).generate(&set, 11)
        } else {
            FaultPlan::none()
        };

        // Warm-up run per mode doubles as the source of the event count,
        // SLDwA divergence check and allocation proxy (all deterministic
        // per run); the timed reps are then sampled interleaved so clock
        // drift cancels in the speedup ratio.
        let warm = |reference: bool| {
            let mut s = SelfTuningScheduler::new(config.clone());
            s.set_reference_mode(reference);
            let before = allocations();
            let d = simulate_chaos(
                &set,
                &mut s,
                &reqs,
                AdmissionConfig::default(),
                &plan,
                Tracer::disabled(),
            );
            (
                d.result.events,
                allocations() - before,
                d.result.metrics.sldwa,
                s.plan_work,
            )
        };
        let (events, inc_allocs, inc_sldwa, work) = warm(false);
        let (_, ref_allocs, ref_sldwa, _) = warm(true);
        let timed = |reference: bool| {
            let mut s = SelfTuningScheduler::new(config.clone());
            s.set_reference_mode(reference);
            let d = simulate_chaos(
                &set,
                &mut s,
                &reqs,
                AdmissionConfig::default(),
                &plan,
                Tracer::disabled(),
            );
            std::hint::black_box(&d);
        };
        let (inc_ns, ref_ns) = median_pair_ns(reps, || timed(false), || timed(true));
        assert_eq!(
            inc_sldwa.to_bits(),
            ref_sldwa.to_bits(),
            "incremental and reference modes diverged on {trace}@{factor} res={res_fraction} mtbf={mtbf}"
        );
        let speedup = ref_ns as f64 / inc_ns.max(1) as f64;
        speedups.push(speedup);

        let mut tags = String::new();
        if res_fraction > 0.0 {
            let _ = write!(tags, " res={res_fraction}");
        }
        if mtbf > 0.0 {
            let _ = write!(tags, " mtbf={mtbf}s");
        }
        println!(
            "{trace}@{factor}{tags} jobs={jobs}: incremental {:.2} ms, reference {:.2} ms, speedup {speedup:.2}x, allocs {inc_allocs} vs {ref_allocs}, plan work placed {} reused {} released {}",
            inc_ns as f64 / 1e6,
            ref_ns as f64 / 1e6,
            work.placed,
            work.reused,
            work.released,
        );
        rows.push(
            Row(Vec::new())
                .str("trace", trace)
                .num("factor", factor)
                .num("res_fraction", res_fraction)
                .num("mtbf_secs", mtbf)
                .int("jobs", jobs as u64)
                .int("events", events)
                .int("incremental_ns", inc_ns)
                .int("reference_ns", ref_ns)
                .num("speedup", speedup)
                .num(
                    "events_per_sec_incremental",
                    events as f64 / (inc_ns as f64 / 1e9),
                )
                .int("allocations_incremental", inc_allocs)
                .int("allocations_reference", ref_allocs),
        );
    }

    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("geomean speedup: {geomean:.2}x");
    write_report(
        &out_dir.join("BENCH_end_to_end.json"),
        &[
            ("report", "\"end_to_end\"".to_string()),
            (
                "scheduler",
                "\"dynP[advanced], FCFS/SJF/LJF candidates\"".to_string(),
            ),
            ("reps", reps.to_string()),
            ("threads", threads.to_string()),
            ("geomean_speedup", format!("{geomean}")),
        ],
        &rows,
    );
}

/// The federation executor benchmark: one fixed multi-cluster workload
/// through `run_federation` at increasing `shard_threads`, with the
/// sequential run (1 thread) as both the timing reference and the
/// bit-identity oracle — every threaded run must reproduce its federated
/// SLDwA exactly. The published `speedup` is wall(1 thread) / wall(t
/// threads): federated throughput scaling, ~1× on a single-core host.
fn federation_report(out_dir: &std::path::Path, quick: bool) {
    let clusters = 4usize;
    let (jobs, reps) = if quick { (150, 1) } else { (500, 9) };
    let sets: Vec<dynp_workload::JobSet> = (0..clusters)
        .map(|c| traces::kth().generate(jobs, 17 + c as u64))
        .collect();
    let workload = MultiClusterWorkload::merge(format!("KTH×{clusters}"), &sets);
    let specs = || -> Vec<ClusterSpec> {
        sets.iter()
            .map(|set| {
                let mut spec = ClusterSpec::new(
                    set.machine_size,
                    dynp_sim::SchedulerSpec::dynp(DeciderKind::Advanced),
                );
                spec.planner_threads = 1;
                spec
            })
            .collect()
    };
    // A wide link latency coarsens the conservative epochs (Δ = link
    // min latency), so each epoch carries enough events for the pool
    // hand-off to be worth measuring rather than barrier overhead.
    let config = |threads: usize| FederationConfig {
        route: RoutePolicy::LeastLoaded,
        shard_threads: threads,
        migration_factor: Some(3),
        link: dynp_sim::LinkModel::Constant {
            latency: SimDuration::from_secs(600),
        },
    };

    let reference = run_federation(&workload, specs(), &config(1));
    // Sample each threaded run interleaved with a fresh sequential run
    // (the same a-b-a-b discipline as `median_pair_ns` everywhere else):
    // the published number is the ratio, and interleaving cancels host
    // drift that block sampling would bake into it.
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let fed = run_federation(&workload, specs(), &config(threads));
        assert_eq!(
            fed.federated.sldwa.to_bits(),
            reference.federated.sldwa.to_bits(),
            "federation executor diverged at {threads} shard threads"
        );
        let (base_ns, wall_ns) = median_pair_ns(
            reps,
            || {
                std::hint::black_box(run_federation(&workload, specs(), &config(1)));
            },
            || {
                std::hint::black_box(run_federation(&workload, specs(), &config(threads)));
            },
        );
        rows.push((threads, base_ns, wall_ns, fed.events, fed.epochs));
    }

    let mut out_rows = Vec::new();
    for (threads, base_ns, wall_ns, events, epochs) in rows {
        let speedup = base_ns as f64 / wall_ns.max(1) as f64;
        let events_per_sec = events as f64 / (wall_ns as f64 / 1e9);
        println!(
            "federation clusters={clusters} shard-threads={threads}: {:.2} ms, {events_per_sec:.0} events/sec, speedup {speedup:.2}x",
            wall_ns as f64 / 1e6,
        );
        out_rows.push(
            Row(Vec::new())
                .int("clusters", clusters as u64)
                .int("shard_threads", threads as u64)
                .int("jobs_per_cluster", jobs as u64)
                .int("events", events)
                .int("epochs", epochs)
                .int("wall_ns", wall_ns)
                .num("events_per_sec", events_per_sec)
                .num("speedup", speedup),
        );
    }
    write_report(
        &out_dir.join("BENCH_federation.json"),
        &[
            ("report", "\"federation\"".to_string()),
            ("route", "\"least-loaded\"".to_string()),
            ("clusters", clusters.to_string()),
            ("reps", reps.to_string()),
            (
                "unit",
                "\"wall ns per federation run, interleaved medians; speedup = wall(1 thread)/wall(t)\""
                    .to_string(),
            ),
        ],
        &out_rows,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).expect("create out dir");

    // Plan fan-out worker count; 0 (the default) resolves like
    // production: DYNP_PLANNER_THREADS, then available parallelism.
    let configured = dynp_sim::cli::planner_threads_arg(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let threads = try_resolve_planner_threads(configured).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("plan fan-out: {threads} worker thread(s)");

    planner_report(&out_dir, quick, threads);
    end_to_end_report(&out_dir, quick, threads);
    federation_report(&out_dir, quick);
}
