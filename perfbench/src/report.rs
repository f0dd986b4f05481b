//! Metric names, the run outcome, and the output lines.

use crate::ledger::Ledger;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics: every workload reports all of them (untraced
/// runs). README.md in this directory maps each to its workload meaning.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("served_share", "ratio"),
    ("throughput", "1/s"),
];

/// Per-layer metrics (traced runs). Span times are nanoseconds per
/// dispatched event; a row a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("unit.p50_ms", "ms"),
    ("unit.tail_ms", "ms"),
    ("rms.plan_ns", "ns"),
    ("rms.prepare_ns", "ns"),
    ("rms.queue_depth_mean", "jobs"),
    ("rms.queue_depth_p99", "jobs"),
    ("rms.profile_points_mean", "points"),
    ("core.replan_ns", "ns"),
    ("core.replan_self_ns", "ns"),
    ("core.plans", "count"),
    ("core.decisions", "count"),
    ("core.switches", "count"),
    ("sim.event_self_ns", "ns"),
    ("des.events", "count"),
    ("ledger.replan_explained_share", "ratio"),
    ("workload.generate_s", "s"),
    ("trace.overhead", "ratio"),
    ("serve.admit_p50_ms", "ms"),
    ("serve.admit_tail_ms", "ms"),
    ("serve.over_tail_ms", "ms"),
    ("serve.query_tail_ms", "ms"),
    ("serve.over_verdicts_per_s", "1/s"),
    ("serve.sustainable_eps", "1/s"),
    ("serve.lateness_ms_p99", "ms"),
    ("serve.accepted", "count"),
    ("serve.refused_queue_full", "count"),
    ("serve.over_queue_full_share", "ratio"),
    ("serve.timeouts", "count"),
    ("serve.lost", "count"),
    ("journal.append_us_p50", "us"),
    ("journal.append_us_p99", "us"),
    ("journal.bytes_per_record", "B"),
    ("journal.read_s", "s"),
    ("session.replay_s", "s"),
    ("journal.checkpoint_load_ms", "ms"),
    ("proto.parse_ns", "ns"),
    ("proto.render_ns", "ns"),
    ("federation.epochs", "count"),
    ("federation.events_per_epoch", "events"),
    ("federation.migrations", "count"),
    ("federation.threaded_events_per_s", "1/s"),
];

/// The metric values of one run, keyed by name.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `table` starts at 0.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: table.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets a metric of this run's table. A name of the other table is
    /// ignored, so a workload can set both tables' metrics
    /// unconditionally; a name of neither is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        if let Some(v) = self.values.get_mut(name) {
            *v = value;
        }
    }

    fn render(&self) -> (String, bool) {
        let mut finite = true;
        let body: Vec<String> = self
            .table
            .iter()
            .map(|&(name, unit)| {
                let mut v = self.values[name];
                if !v.is_finite() {
                    finite = false;
                    v = 0.0;
                }
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        (format!("{{{}}}", body.join(", ")), finite)
    }
}

/// A run's outcome: counts, metrics, failures and report lines.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub report: Vec<String>,
}

impl Outcome {
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Metrics::new(if trace { PER_LAYER } else { END_TO_END }),
            report: Vec::new(),
        }
    }

    /// Records one failed operation or correctness check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// The final output line; `correct` is false after any failure or a
    /// non-finite metric.
    pub fn render(&mut self) -> String {
        let (metrics, finite) = self.metrics.render();
        if !finite {
            self.failures.push("a metric is not a finite number".into());
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Sets the span-derived per-layer rows from a ledger.
pub fn ledger_metrics(m: &mut Metrics, l: &Ledger, des_events: u64) {
    let depth: Vec<f64> = l.depths.iter().map(|&d| d as f64).collect();
    let depth_tail = {
        let mut v = depth.clone();
        v.sort_by(f64::total_cmp);
        v.get((v.len() * 99 / 100).min(v.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0)
    };
    m.set("rms.plan_ns", l.per_event(l.plan_ns));
    m.set("rms.prepare_ns", l.per_event(l.prepare_ns as f64));
    m.set("rms.queue_depth_mean", stats::mean(&depth));
    m.set("rms.queue_depth_p99", depth_tail);
    m.set(
        "rms.profile_points_mean",
        if l.plans == 0 {
            0.0
        } else {
            l.profile_points as f64 / l.plans as f64
        },
    );
    m.set("core.replan_ns", l.per_event(l.replan_ns as f64));
    m.set("core.replan_self_ns", l.per_event(l.replan_self_ns()));
    m.set("core.plans", l.plans as f64);
    m.set("core.decisions", l.decisions as f64);
    m.set("core.switches", l.switches as f64);
    m.set("sim.event_self_ns", l.per_event(l.event_self_ns()));
    m.set("des.events", des_events as f64);
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts printed next to every result.
pub fn host_line(workload: &str, seed: u64, work_dir: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fan_out = dynp_core::resolve_planner_threads(0);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"host\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \
         \"cpu\": \"{}\", \"kernel\": \"{}\", \"journal_fs\": \"{}\", \"profile\": \"{profile}\", \
         \"plan_fan_out\": {fan_out}}}}}",
        escape(&cpu),
        escape(&kernel),
        escape(&filesystem_of(work_dir))
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_rendered_once_with_its_unit() {
        let mut o = Outcome::new(false);
        o.metrics.set("throughput", 12.5);
        o.metrics.set("rms.plan_ns", 99.0);
        o.attempted = 3;
        let line = o.render();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            let key = format!("\"{name}\": {{\"value\": ");
            assert_eq!(line.matches(&key).count(), 1, "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"throughput\": {\"value\": 12.5,"));
        assert!(!line.contains("rms.plan_ns"));
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut o = Outcome::new(true);
        o.metrics.set("trace.overhead", f64::NAN);
        assert!(o.render().starts_with("{\"correct\": false"));
        let mut o = Outcome::new(true);
        o.fail("mismatch".into());
        assert!(o.render().contains("\"failed\": 1"));
    }
}
