//! `federation_light`: four KTH clusters at their trace load behind
//! least-loaded routing with migration on. The planner has little to do
//! here (about one event per epoch); the epoch executor carries the work.
//!
//! Routing and migration amplify small differences in arrival times, so
//! one perturbation of the streams plans up to half again as many jobs
//! as another. A run therefore cycles through [`VARIANTS`] perturbations
//! derived from the seed, like the paper's several job sets per cell,
//! and reports their sum.
//!
//! The end-to-end rows time the sequential executor. The threaded one at
//! `shard_threads` = nproc is checked against it every run and timed in
//! the traced run: on a shared 2-vCPU VM its speed depends on whether
//! the host runs both vCPUs at once (two runs of the same input read
//! 80 000 and 160 000 events/s), which no bound could gate.

use crate::inputs;
use crate::ledger::Ledger;
use crate::report::Outcome;
use crate::stats;
use dynp_core::DeciderKind;
use dynp_obs::{TraceLevel, Tracer};
use dynp_sim::{run_federation, ClusterSpec, FederationConfig, RoutePolicy, SchedulerSpec};
use dynp_workload::{JobSet, MultiClusterWorkload};
use std::time::Instant;

const CLUSTERS: u64 = 4;
/// Jobs per cluster: one federation run takes well under 100 ms, so a
/// window holds hundreds of them.
const JOBS: usize = 1_500;
/// Perturbed workloads per run.
const VARIANTS: u64 = 8;
/// Migrate when the busiest cluster's relative backlog exceeds the
/// idlest one's by this factor.
const MIGRATION_FACTOR: u64 = 3;
/// Set-up blocks and set-ups per block (see [`stats::SetupTimer`]).
const SETUP_BLOCKS: usize = 7;
const SETUP_REPS: usize = 5;

/// One perturbed federation workload.
struct Variant {
    sets: Vec<JobSet>,
    work: MultiClusterWorkload,
}

fn variants(seed: u64) -> Vec<Variant> {
    (0..VARIANTS)
        .map(|v| {
            let sets: Vec<JobSet> = (0..CLUSTERS)
                .map(|c| {
                    inputs::stream("KTH", JOBS, 100 + c, Some(seed.wrapping_mul(VARIANTS) + v))
                })
                .collect();
            let work = MultiClusterWorkload::merge(format!("KTH×{CLUSTERS}"), &sets);
            Variant { sets, work }
        })
        .collect()
}

/// The exact federated outcome, for identity checks.
type Key = (u64, u64, u64, u64);

struct FedRun {
    wall_s: f64,
    events: u64,
    epochs: u64,
    migrations: u64,
    key: Key,
    lost: u64,
}

fn run_once(v: &Variant, threads: usize, tracers: Option<&[Tracer]>) -> FedRun {
    let specs = v
        .sets
        .iter()
        .enumerate()
        .map(|(c, set)| {
            let mut spec =
                ClusterSpec::new(set.machine_size, SchedulerSpec::dynp(DeciderKind::Advanced));
            if let Some(t) = tracers {
                spec.tracer = t[c].clone();
            }
            spec
        })
        .collect();
    let config = FederationConfig {
        route: RoutePolicy::LeastLoaded,
        shard_threads: threads,
        migration_factor: Some(MIGRATION_FACTOR),
        ..FederationConfig::default()
    };
    let t0 = Instant::now();
    let r = run_federation(&v.work, specs, &config);
    FedRun {
        wall_s: t0.elapsed().as_secs_f64(),
        events: r.events,
        epochs: r.epochs,
        migrations: r.migrations,
        key: (
            r.events,
            r.federated.sldwa.to_bits(),
            r.federated.utilization.to_bits(),
            r.federated.jobs as u64,
        ),
        lost: r.federated.lost,
    }
}

/// Checks that `r` lost no job and reproduces its variant's first
/// sequential run bit for bit.
fn check(v: &Variant, first: &FedRun, r: &FedRun, what: &str, out: &mut Outcome) {
    out.attempted += 1;
    if r.key != first.key {
        out.fail(format!(
            "{what} {:?} differs from the first sequential run {:?}",
            r.key, first.key
        ));
    }
    if r.lost != 0 || r.key.3 != v.work.len() as u64 {
        out.fail(format!(
            "{what} lost {} jobs, completed {} of {}",
            r.lost,
            r.key.3,
            v.work.len()
        ));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setup = stats::SetupTimer::new(SETUP_REPS);
    let vs = setup.first_block(|| variants(seed));
    for _ in 1..SETUP_BLOCKS {
        setup.block(|| variants(seed));
    }
    let setup_s = setup.setup_s();
    out.report.push(setup.describe());

    // Sequential runs, round robin over the variants, while another fits.
    let t0 = Instant::now();
    let first: Vec<FedRun> = vs.iter().map(|v| run_once(v, 1, None)).collect();
    for (v, f) in vs.iter().zip(&first) {
        check(v, f, f, "sequential run", out);
    }
    let mut best_s: Vec<f64> = first.iter().map(|r| r.wall_s).collect();
    let mut walls: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    let mut last_s = best_s.iter().copied().fold(0.0, f64::max);
    'window: loop {
        for (i, v) in vs.iter().enumerate() {
            if t0.elapsed().as_secs_f64() + last_s > seconds {
                break 'window;
            }
            let r = run_once(v, 1, None);
            check(v, &first[i], &r, "sequential run", out);
            best_s[i] = best_s[i].min(r.wall_s);
            walls.push(r.wall_s * 1e3);
            last_s = r.wall_s;
        }
    }
    // Threaded ≡ sequential, bit for bit, on every variant.
    let mut threaded_ms = Vec::new();
    for (v, f) in vs.iter().zip(&first) {
        let r = run_once(v, nproc, None);
        check(v, f, &r, "threaded executor", out);
        threaded_ms.push(r.wall_s * 1e3);
    }

    let events: u64 = first.iter().map(|r| r.events).sum();
    let epochs: u64 = first.iter().map(|r| r.epochs).sum();
    let migrations: u64 = first.iter().map(|r| r.migrations).sum();
    let best: f64 = best_s.iter().sum();
    let run_ms = stats::summarize(&walls).expect("runs ran");
    out.report.push(format!(
        "federation_light: {} sequential runs over {VARIANTS} variants ({events} events, {epochs} \
         epochs, {migrations} migrations per round); run wall p50 {:.1} ms, p{:.1} {:.1} ms; \
         sum of per-variant fastest runs {:.1} ms; one round at {nproc} shard threads {:.1} ms",
        walls.len(),
        run_ms.p50,
        run_ms.tail_pct,
        run_ms.tail,
        best * 1e3,
        threaded_ms.iter().sum::<f64>()
    ));
    out.metrics.set("setup_s", setup_s);
    out.metrics.set(
        "served_share",
        1.0 - out.failed as f64 / out.attempted as f64,
    );
    // Each variant's fastest run: host interference only adds time.
    out.metrics.set("throughput", events as f64 / best);
    out.metrics.set("unit.p50_ms", run_ms.p50);
    out.metrics.set("unit.tail_ms", run_ms.tail);
    if !trace {
        return;
    }

    // Traced: one sequential run of every variant with a tracer per
    // cluster, against the variants' fastest untraced runs.
    let mut ledger = Ledger::default();
    let mut traced_s = 0.0;
    for (v, f) in vs.iter().zip(&first) {
        let tracers: Vec<Tracer> = (0..CLUSTERS)
            .map(|_| Tracer::with_capacity(TraceLevel::Spans, 24 * JOBS * 2 + 1024))
            .collect();
        let r = run_once(v, 1, Some(&tracers));
        check(v, f, &r, "traced run", out);
        traced_s += r.wall_s;
        for t in &tracers {
            ledger.absorb(&t.snapshot());
        }
    }
    if ledger.dropped > 0 {
        out.fail(format!("tracer ring dropped {} records", ledger.dropped));
    }
    // The threaded executor over a quarter of the window, per variant.
    let t0 = Instant::now();
    let mut rounds = 1.0;
    while t0.elapsed().as_secs_f64() < seconds / 4.0 {
        for (v, f) in vs.iter().zip(&first) {
            let r = run_once(v, nproc, None);
            check(v, f, &r, "threaded executor", out);
            threaded_ms.push(r.wall_s * 1e3);
        }
        rounds += 1.0;
    }
    let threaded_s = threaded_ms.iter().sum::<f64>() / 1e3 / rounds;
    crate::report::ledger_metrics(&mut out.metrics, &ledger, events);
    out.metrics.set(
        "ledger.replan_explained_share",
        ledger.replan_explained_share(),
    );
    out.metrics.set("workload.generate_s", setup_s);
    out.metrics.set("trace.overhead", traced_s / best);
    out.metrics.set("federation.epochs", epochs as f64);
    out.metrics.set(
        "federation.events_per_epoch",
        events as f64 / epochs.max(1) as f64,
    );
    out.metrics.set("federation.migrations", migrations as f64);
    out.metrics.set(
        "federation.threaded_events_per_s",
        events as f64 / threaded_s,
    );
}
