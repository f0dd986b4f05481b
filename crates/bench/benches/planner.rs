//! Benchmarks full-schedule construction: how planning cost scales with
//! the waiting-queue depth — the quantity that dominates dynP's overhead
//! (three plans per scheduling event).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dynp_bench::bench_model;
use dynp_des::{SimDuration, SimTime};
use dynp_rms::{PlanTiming, Planner, Policy, ReferencePlanner, RunningJob};
use dynp_workload::Job;

fn queue_of(depth: usize) -> Vec<Job> {
    // Draw realistic jobs from the KTH model (small machine → deep
    // queues in the real experiments).
    bench_model().generate(depth, 7).into_jobs()
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_plan");
    for &depth in &[8usize, 64, 256, 1_024] {
        let queue = queue_of(depth);
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::Ljf] {
            let mut sorted = queue.clone();
            policy.sort_queue(&mut sorted);
            group.bench_with_input(BenchmarkId::new(policy.name(), depth), &depth, |b, _| {
                let mut planner = Planner::new();
                b.iter(|| black_box(planner.plan(100, SimTime::ZERO, &[], black_box(&sorted))))
            });
        }
    }
    group.finish();

    // One full self-tuning planning step (3 policies over the same base
    // profile): the incremental engine (one prepare + watermark-restored
    // plans) against the from-scratch reference.
    let mut group = c.benchmark_group("planning_step_3policy");
    for &depth in &[64usize, 256] {
        let queue: Vec<Job> = queue_of(depth)
            .into_iter()
            .map(|mut j| {
                j.submit = SimTime::ZERO;
                j
            })
            .collect();
        let running: Vec<RunningJob> = (0..32u64)
            .map(|i| RunningJob {
                job: Job::new(
                    dynp_workload::JobId(10_000 + i as u32),
                    SimTime::ZERO,
                    (i as u32 % 3) + 1,
                    SimDuration::from_secs(500 + 13 * i),
                    SimDuration::from_secs(500 + 13 * i),
                ),
                start: SimTime::ZERO,
            })
            .collect();
        let machine = 128u32;
        let now = SimTime::from_secs(1);
        let orders: Vec<Vec<Job>> = Policy::BASIC
            .iter()
            .map(|p| {
                let mut q = queue.clone();
                p.sort_queue(&mut q);
                q
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("incremental", depth), &depth, |b, _| {
            let mut planner = Planner::new();
            let mut plans = vec![Default::default(); Policy::BASIC.len()];
            b.iter(|| {
                planner.prepare(machine, now, &running, &[]);
                for (order, out) in orders.iter().zip(plans.iter_mut()) {
                    planner.plan_prepared_into(order, out);
                }
                black_box(&plans);
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", depth), &depth, |b, _| {
            let mut planner = ReferencePlanner::new();
            let mut queue_buf: Vec<Job> = Vec::new();
            b.iter(|| {
                for policy in Policy::BASIC {
                    queue_buf.clear();
                    queue_buf.extend_from_slice(&queue);
                    policy.sort_queue(&mut queue_buf);
                    black_box(planner.plan(machine, now, &running, &queue_buf));
                }
            })
        });
    }
    group.finish();

    // Deep queues through the batched fan-out entry point (the call the
    // self-tuning step actually makes) — where the capacity-indexed
    // profile has to stay sublinear. Bounded sample size: the reference
    // side re-plans from scratch and is quadratic at these depths.
    let mut group = c.benchmark_group("planning_step_3policy_deep");
    group.sample_size(10);
    for &depth in &[4_096usize, 16_384] {
        let queue: Vec<Job> = queue_of(depth)
            .into_iter()
            .map(|mut j| {
                j.submit = SimTime::ZERO;
                j
            })
            .collect();
        let running: Vec<RunningJob> = (0..64u64)
            .map(|i| RunningJob {
                job: Job::new(
                    dynp_workload::JobId(10_000 + i as u32),
                    SimTime::ZERO,
                    (i as u32 % 3) + 1,
                    SimDuration::from_secs(500 + 13 * i),
                    SimDuration::from_secs(500 + 13 * i),
                ),
                start: SimTime::ZERO,
            })
            .collect();
        let machine = 256u32;
        let now = SimTime::from_secs(1);
        let orders: Vec<Vec<Job>> = Policy::BASIC
            .iter()
            .map(|p| {
                let mut q = queue.clone();
                p.sort_queue(&mut q);
                q
            })
            .collect();
        for workers in [1usize, 2] {
            let label = format!("incremental_batch_w{workers}");
            group.bench_with_input(BenchmarkId::new(label, depth), &depth, |b, _| {
                let mut planner = Planner::new();
                let mut timings = vec![PlanTiming::default(); Policy::BASIC.len()];
                b.iter(|| {
                    planner.prepare(machine, now, &running, &[]);
                    black_box(planner.plan_prepared_batch(
                        &Policy::BASIC,
                        &orders,
                        None,
                        &mut timings,
                        workers,
                        0,
                    ));
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("reference", depth), &depth, |b, _| {
            let mut planner = ReferencePlanner::new();
            let mut queue_buf: Vec<Job> = Vec::new();
            b.iter(|| {
                for policy in Policy::BASIC {
                    queue_buf.clear();
                    queue_buf.extend_from_slice(&queue);
                    policy.sort_queue(&mut queue_buf);
                    black_box(planner.plan(machine, now, &running, &queue_buf));
                }
            })
        });
    }
    group.finish();

    // The queue sort itself, separated out.
    let mut group = c.benchmark_group("policy_sort");
    let queue = queue_of(1_024);
    for policy in Policy::ALL {
        group.bench_function(policy.name(), |b| {
            b.iter_batched(
                || queue.clone(),
                |mut q| {
                    policy.sort_queue(&mut q);
                    black_box(q)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
