//! The repository benchmark. One workload per run:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid|service_durable|federation_light \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics, traced
//! runs the per-layer ones; both run every correctness check of their
//! workload. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! host facts and a human-readable report. A failed check exits 1.
//! `--print-golden` prints the golden grid (see `golden.tsv`).
//! See README.md in this directory for what each metric means.

mod federation;
mod grid;
mod inputs;
mod ledger;
mod mix;
mod report;
mod service;
mod stats;

use report::Outcome;
use std::path::PathBuf;

const USAGE: &str = "usage: dynp-perfbench --workload paper_grid|service_durable|federation_light \
                     --seed N --seconds S --trace 0|1  (or --print-golden)";

const WORKLOADS: [&str; 3] = ["paper_grid", "service_durable", "federation_light"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("one of paper_grid, service_durable, federation_light"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--print-golden") {
        for line in grid::golden_lines() {
            println!("{line}");
        }
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // Scratch space (journals) inside the working directory, removed at
    // the end of the run.
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    println!("{}", report::host_line(&args.workload, args.seed, &work));

    let mut out = Outcome::new(args.trace);
    match args.workload.as_str() {
        "paper_grid" => grid::run(args.seed, args.seconds, args.trace, &mut out),
        "service_durable" => service::run(args.seed, args.seconds, args.trace, &work, &mut out),
        "federation_light" => federation::run(args.seed, args.seconds, args.trace, &mut out),
        other => unreachable!("parse_args accepted workload {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    out.metrics.set("peak_rss_mb", report::peak_rss_mb());
    for line in &out.report {
        println!("{line}");
    }
    for why in &out.failures {
        println!("FAILED: {why}");
    }
    let line = out.render();
    println!("{line}");
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
