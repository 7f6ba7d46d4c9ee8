//! Turns a run into named metrics, enforces the correctness and coverage
//! checks, and prints the result.

use crate::replay::{Engine, Replayed};
use crate::serve::Window;
use crate::stats::{mean, median, percentile, ratio, samples_beyond, spearman};
use crate::{Workload, PARTITIONS, SCALE};
use rdo_exec::{CostModel, ExecutionMetrics};
use std::collections::{HashMap, HashSet};

/// Every metric the benchmark reports: name, unit, and whether it is
/// end-to-end (`--trace 0`) or per-layer (`--trace 1`). `BENCHMARK.json`
/// lists the same names in the same order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

pub const PER_LAYER: [(&str, &str); 42] = [
    ("workloads.load_s", "s"),
    ("server.plan_cache_hit_ratio", "ratio"),
    ("server.learned_hit_ratio", "ratio"),
    ("server.admission_waits_per_query", "count/query"),
    ("server.admission_queue_depth_max", "count"),
    ("server.stream_ms", "ms"),
    ("server.result_bytes", "bytes"),
    ("storage.catalog_clone_ms", "ms"),
    ("sql.normalize_ms", "ms"),
    ("sql.compile_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.reopt_points", "count"),
    ("core.stage_pushdown_self_ms", "ms"),
    ("core.stage_reopt_self_ms", "ms"),
    ("core.stage_final_self_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("planner.invocations", "count"),
    ("planner.max_q_error", "ratio"),
    ("planner.cost_wall_rank_corr", "ratio"),
    ("parallel.materialize_self_ms", "ms"),
    ("parallel.rows_materialized", "count"),
    ("parallel.bytes_materialized", "bytes"),
    ("parallel.morsel_busy_ms", "ms"),
    ("parallel.worker_utilization", "ratio"),
    ("exec.scan_self_ms", "ms"),
    ("exec.join_self_ms", "ms"),
    ("exec.grace_self_ms", "ms"),
    ("exec.post_self_ms", "ms"),
    ("exec.rows_scanned", "count"),
    ("exec.rows_shuffled", "count"),
    ("exec.build_rows", "count"),
    ("exec.probe_rows", "count"),
    ("exec.simulated_cost", "cost"),
    ("spill.bytes_written", "bytes"),
    ("spill.bytes_read", "bytes"),
    ("spill.grace_bytes_written", "bytes"),
    ("spill.grace_partitions_spilled", "count"),
    ("spill.stored_per_logical_byte", "ratio"),
    ("spill.pool_hit_ratio", "ratio"),
    ("sketch.values_observed", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

struct Metric {
    value: f64,
    samples: usize,
}

pub struct Report {
    workload: &'static Workload,
    seconds: u64,
    metrics: HashMap<&'static str, Metric>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Reference hash per SQL text.
    references: HashMap<String, u64>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("every metric is declared")
}

impl Report {
    pub fn new(workload: &'static Workload, seconds: u64) -> Self {
        Self {
            workload,
            seconds,
            metrics: HashMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            references: HashMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Metric { value, samples });
    }

    fn problem(&mut self, message: String) {
        eprintln!("perfbench: CHECK FAILED: {message}");
        self.problems.push(message);
    }

    /// Machine, build and input identity, printed before the metrics.
    pub fn fingerprint(&self, seed: u64) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = std::path::Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["--git-dir=.git", "rev-parse", "HEAD"])
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            })
            .flatten()
            .unwrap_or_else(|| "unknown".to_string());
        let workers = self.workload.server_config().parallel.workers;
        println!(
            "fingerprint {{\"workload\": \"{}\", \"nproc\": {nproc}, \"cpu_model\": \"{}\", \
             \"scale\": \"gb({})\", \"seed\": {seed}, \"git_commit\": \"{}\", \"workers\": {workers}, \
             \"partitions\": {PARTITIONS}, \"clients\": {}, \"seconds\": {}}}",
            self.workload.name,
            escape(&cpu),
            SCALE.gb,
            escape(&commit),
            self.workload.clients,
            self.seconds,
        );
    }

    pub fn setup(&mut self, setup_s: &[f64], load_s: &[f64]) {
        self.set("setup_s", median(setup_s), setup_s.len());
        self.set("workloads.load_s", median(load_s), load_s.len());
    }

    /// Server-side figures and the coverage checks on every response.
    pub fn window(&mut self, window: &Window, learned: (u64, u64), admission: (u64, u64)) {
        let n = window.samples.len();
        self.attempted = n;
        let latencies: Vec<f64> = window.samples.iter().map(|s| s.latency_ms).collect();
        self.set("latency_p50_ms", percentile(&latencies, 0.5), n);
        self.set("latency_p90_ms", percentile(&latencies, 0.9), n);
        if samples_beyond(n, 0.9) < 10 {
            self.problem(format!("{n} queries leave fewer than ten beyond p90"));
        }

        let ok: Vec<_> = window
            .samples
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok())
            .collect();
        for sample in &window.samples {
            if let Err(e) = &sample.outcome {
                self.failed += 1;
                self.problem(format!("query {} failed: {e}", sample.seq));
            }
        }
        let hits = ok.iter().filter(|r| r.plan_cache_hit).count();
        self.set(
            "server.plan_cache_hit_ratio",
            ratio(hits as f64, n as f64),
            n,
        );
        let learned_ratio = ratio(learned.0 as f64, (learned.0 + learned.1) as f64);
        self.set("server.learned_hit_ratio", learned_ratio, n);
        self.set(
            "server.admission_waits_per_query",
            ratio(admission.0 as f64, n as f64),
            n,
        );
        self.set("server.admission_queue_depth_max", admission.1 as f64, n);

        let name = self.workload.name;
        let off_path = if self.workload.warm {
            ok.iter()
                .filter(|r| !r.plan_cache_hit || r.reopt_points != 0)
                .count()
        } else {
            ok.iter()
                .filter(|r| r.plan_cache_hit || r.reopt_points == 0)
                .count()
        };
        if off_path > 0 {
            self.problem(format!(
                "{name}: {off_path} responses missed the workload's path \
                 (warm: cache hit with 0 re-opt points; cold: miss with > 0)"
            ));
        }
        if !self.workload.warm && learned.0 > 0 {
            self.problem(format!("{name}: {} learned-stats hits", learned.0));
        }
        if self.workload.spills() != (admission.0 > 0) {
            self.problem(format!("{name}: {} admission waits", admission.0));
        }
    }

    /// Compares every response with an in-process reference, sorted and bit
    /// for bit, then derives throughput from the correct ones.
    pub fn references(&mut self, window: &Window, engine: &Engine) {
        let mut seen = HashSet::new();
        let texts: Vec<String> = window
            .samples
            .iter()
            .map(|s| s.variant.sql.clone())
            .filter(|sql| seen.insert(sql.clone()))
            .collect();
        let hashes = engine.references(&texts);
        for (sql, hash) in texts.into_iter().zip(hashes) {
            match hash {
                Ok(hash) => {
                    self.references.insert(sql, hash);
                }
                Err(e) => self.problem(format!("reference failed: {e}")),
            }
        }
        let mut correct = 0;
        for sample in &window.samples {
            if let Ok(response) = &sample.outcome {
                if self.references.get(&sample.variant.sql) == Some(&response.hash) {
                    correct += 1;
                } else {
                    self.failed += 1;
                    self.problem(format!(
                        "query {} ({}): result differs from the reference",
                        sample.seq,
                        sample.variant.template.name()
                    ));
                }
            }
        }
        self.set(
            "throughput_qps",
            ratio(correct as f64, window.seconds),
            window.samples.len(),
        );
    }

    /// Per-layer figures from the traced replay, plus its fidelity checks.
    pub fn replay(&mut self, window: &Window, untraced: &[Replayed], traced: &[Replayed]) {
        let n = traced.len();
        for (sample, replayed) in window.samples.iter().zip(traced) {
            let Ok(response) = &sample.outcome else {
                continue;
            };
            if replayed.plan != response.plan || replayed.reopt_points != response.reopt_points {
                self.problem(format!(
                    "replay fidelity, query {}: server ran `{}` with {} re-opt points, \
                     replay ran `{}` with {}",
                    sample.seq,
                    response.plan,
                    response.reopt_points,
                    replayed.plan,
                    replayed.reopt_points
                ));
            }
            if self.references.get(&sample.variant.sql) != Some(&replayed.hash) {
                self.problem(format!("query {}: replay result differs", sample.seq));
            }
        }

        let per_query =
            |f: &dyn Fn(&Replayed) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
        let ms = |ns: u64| ns as f64 / 1e6;
        let metric = |f: fn(&ExecutionMetrics) -> u64| move |r: &Replayed| f(&r.metrics) as f64;
        let span = |name: &'static str| {
            move |r: &Replayed| r.spans.as_ref().map_or(0.0, |s| ms(s.self_of(name)))
        };
        let sum = |f: &dyn Fn(&Replayed) -> u64| traced.iter().map(f).sum::<u64>() as f64;

        self.set("server.stream_ms", per_query(&|r| ms(r.stream_ns)), n);
        self.set(
            "server.result_bytes",
            per_query(&|r| r.result_bytes as f64),
            n,
        );
        self.set(
            "storage.catalog_clone_ms",
            per_query(&|r| ms(r.clone_ns)),
            n,
        );
        self.set("sql.normalize_ms", per_query(&|r| ms(r.normalize_ns)), n);
        self.set("sql.compile_ms", per_query(&|r| ms(r.compile_ns)), n);
        self.set("core.execute_ms", per_query(&|r| ms(r.execute_ns)), n);
        self.set(
            "core.reopt_points",
            per_query(&|r| r.reopt_points as f64),
            n,
        );
        self.set(
            "core.stage_pushdown_self_ms",
            per_query(&span("stage.pushdown")),
            n,
        );
        self.set(
            "core.stage_reopt_self_ms",
            per_query(&span("stage.reopt")),
            n,
        );
        self.set(
            "core.stage_final_self_ms",
            per_query(&span("stage.final")),
            n,
        );
        self.set("planner.plan_ms", per_query(&span("planner.plan")), n);
        self.set(
            "planner.invocations",
            per_query(&|r| r.planner_invocations as f64),
            n,
        );
        self.set("planner.max_q_error", per_query(&|r| r.max_q_error), n);
        let model = CostModel::default();
        let costs: Vec<f64> = traced
            .iter()
            .map(|r| r.metrics.simulated_cost(&model))
            .collect();
        let walls: Vec<f64> = traced.iter().map(|r| r.execute_ns as f64).collect();
        self.set("planner.cost_wall_rank_corr", spearman(&costs, &walls), n);

        self.set(
            "parallel.materialize_self_ms",
            per_query(&span("sink.materialize")),
            n,
        );
        self.set(
            "parallel.rows_materialized",
            per_query(&metric(|m| m.rows_materialized)),
            n,
        );
        self.set(
            "parallel.bytes_materialized",
            per_query(&metric(|m| m.bytes_materialized)),
            n,
        );
        let busy = |r: &Replayed| r.spans.as_ref().map_or(0, |s| s.morsel_busy_ns);
        self.set("parallel.morsel_busy_ms", per_query(&|r| ms(busy(r))), n);
        let workers = self.workload.server_config().parallel.workers as f64;
        self.set(
            "parallel.worker_utilization",
            ratio(sum(&busy), workers * sum(&|r| r.execute_ns)),
            n,
        );

        self.set("exec.scan_self_ms", per_query(&span("exec.scan")), n);
        self.set("exec.join_self_ms", per_query(&span("exec.join")), n);
        self.set("exec.grace_self_ms", per_query(&span("exec.grace")), n);
        self.set("exec.post_self_ms", per_query(&|r| ms(r.post_ns)), n);
        self.set(
            "exec.rows_scanned",
            per_query(&metric(|m| m.rows_scanned)),
            n,
        );
        self.set(
            "exec.rows_shuffled",
            per_query(&metric(|m| m.rows_shuffled)),
            n,
        );
        self.set("exec.build_rows", per_query(&metric(|m| m.build_rows)), n);
        self.set("exec.probe_rows", per_query(&metric(|m| m.probe_rows)), n);
        self.set("exec.simulated_cost", mean(&costs), n);

        let spill_written = sum(&|r| r.metrics.spill_bytes_written);
        let grace_written = sum(&|r| r.metrics.grace_bytes_written);
        let grace_partitions = sum(&|r| r.metrics.grace_partitions_spilled);
        self.set("spill.bytes_written", spill_written / n.max(1) as f64, n);
        self.set(
            "spill.bytes_read",
            per_query(&metric(|m| m.spill_bytes_read)),
            n,
        );
        self.set(
            "spill.grace_bytes_written",
            grace_written / n.max(1) as f64,
            n,
        );
        self.set(
            "spill.grace_partitions_spilled",
            grace_partitions / n.max(1) as f64,
            n,
        );
        let logical =
            sum(&|r| r.metrics.spill_logical_bytes_written + r.metrics.grace_logical_bytes_written);
        self.set(
            "spill.stored_per_logical_byte",
            ratio(spill_written + grace_written, logical),
            n,
        );
        let pool_hits = sum(&|r| r.pool_hits);
        self.set(
            "spill.pool_hit_ratio",
            ratio(pool_hits, pool_hits + sum(&|r| r.pool_misses)),
            n,
        );
        self.set(
            "sketch.values_observed",
            per_query(&metric(|m| m.stats_values_observed)),
            n,
        );

        let traced_wall = sum(&|r| r.wall_ns);
        let untraced_wall = untraced.iter().map(|r| r.wall_ns).sum::<u64>() as f64;
        self.set(
            "trace.overhead_frac",
            ratio(traced_wall, untraced_wall) - 1.0,
            n,
        );
        let attributed = sum(&|r| {
            r.normalize_ns
                + r.compile_ns
                + r.clone_ns
                + r.post_ns
                + r.stream_ns
                + r.spans.as_ref().map_or(0, |s| s.stage_cover_ns)
        });
        self.set(
            "trace.unattributed_frac",
            1.0 - ratio(attributed, traced_wall),
            n,
        );

        let name = self.workload.name;
        if self.workload.spills() {
            if spill_written == 0.0 || grace_partitions == 0.0 {
                self.problem(format!(
                    "{name}: replay wrote {spill_written} spill bytes and spilled \
                     {grace_partitions} grace partitions; both must be > 0"
                ));
            }
        } else if spill_written + grace_written > 0.0 {
            self.problem(format!(
                "{name}: replay spilled {} bytes",
                spill_written + grace_written
            ));
        }
    }

    pub fn peak_rss(&mut self) {
        let kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse::<f64>().ok())
            });
        match kb {
            Some(kb) => self.set("peak_rss_mb", kb / 1024.0, 1),
            None => self.problem("VmHWM missing from /proc/self/status".to_string()),
        }
    }

    /// Prints every measured metric with unit and sample count, then the
    /// result line; returns whether the run is correct.
    pub fn finish(mut self, trace: bool) -> bool {
        let declared: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        for (name, _) in &declared {
            match self.metrics.get(name) {
                None => self.problem(format!("metric {name} was not measured")),
                Some(m) if !m.value.is_finite() => {
                    self.problem(format!("metric {name} is {}", m.value))
                }
                Some(_) => {}
            }
        }
        let mut printed = Vec::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(m) = self.metrics.get(name) {
                println!("{name:<36} {:>16.4} {unit:<12} n={}", m.value, m.samples);
            }
        }
        println!(
            "{:<36} {:>16.4} {:<12} n={}",
            "error_rate",
            ratio(self.failed as f64, self.attempted as f64),
            "ratio",
            self.attempted
        );
        for (name, _) in &declared {
            if let Some(m) = self.metrics.get(name) {
                if m.value.is_finite() {
                    printed.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.value,
                        unit_of(name)
                    ));
                }
            }
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            printed.join(", ")
        );
        correct
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this file reports, in
    /// the same order, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<(&str, &str)> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| {
                let (name, rest) = entry.split('}').next()?.split_once('"')?;
                let unit = rest.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let reported: Vec<(&str, &str)> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert_eq!(declared, reported);
    }
}
