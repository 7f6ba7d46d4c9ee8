//! Reproduces the Figure 6 measurement methodology on all four queries at one
//! scale factor: each query is executed three times — (1) the optimal plan with
//! statistics known upfront (best-order), (2) re-optimization enabled but
//! online statistics disabled, and (3) the full dynamic approach — and the
//! differences isolate the re-optimization and online-statistics overheads.
//!
//! Every run executes with tracing enabled, so after the cost table the
//! example prints where the dynamic run's *wall time* actually went: the
//! EXPLAIN-ANALYZE span tree of `RunReport::profile()` and the per-stage
//! share of the push-down / re-optimization / final stages. The simulated
//! costs (the paper's metric) and the traced wall times tell the same story
//! from two independent measurements.
//!
//! Run with: `cargo run --release --example overhead_breakdown`

use runtime_dynamic_optimization::prelude::*;

fn main() -> rdo_common::Result<()> {
    let scale = ScaleFactor::gb(20);
    println!("loading synthetic benchmark data at {scale} ...");
    let mut env = BenchmarkEnv::load(scale, 8, false, 42)?;
    let runner = QueryRunner::new(
        CostModel::with_partitions(8),
        JoinAlgorithmRule::with_threshold(5_000.0),
    )
    .with_tracing(true);

    println!(
        "\n{:<6} {:>16} {:>16} {:>16} {:>10}",
        "query", "stats upfront", "re-optimization", "online stats", "overhead%"
    );
    let mut dynamic_reports = Vec::new();
    for query in all_queries() {
        let upfront = runner.run(Strategy::BestOrder, &query, &mut env.catalog)?;
        let reopt = runner.run(Strategy::ReoptWithoutOnlineStats, &query, &mut env.catalog)?;
        let full = runner.run(Strategy::Dynamic, &query, &mut env.catalog)?;
        let report = OverheadReport::from_costs(
            upfront.simulated_cost,
            reopt.simulated_cost,
            full.simulated_cost,
        );
        println!(
            "{:<6} {:>16.1} {:>16.1} {:>16.1} {:>9.1}%",
            query.name,
            report.statistics_upfront,
            report.reoptimization,
            report.online_stats,
            100.0 * report.overhead_fraction()
        );
        dynamic_reports.push((query.name.clone(), full));
    }

    println!("\npredicate push-down overhead (Figure 6, right):");
    println!(
        "{:<6} {:>16} {:>16} {:>10}",
        "query", "baseline", "push-down", "overhead%"
    );
    for query in all_queries() {
        let baseline = runner.run(Strategy::DynamicWithoutPushdown, &query, &mut env.catalog)?;
        let with_pushdown = runner.run(Strategy::Dynamic, &query, &mut env.catalog)?;
        let pushdown_cost = with_pushdown
            .breakdown
            .map(|b| b.predicate_pushdown)
            .unwrap_or(0.0);
        let overhead = (with_pushdown.simulated_cost - baseline.simulated_cost).max(0.0)
            / baseline.simulated_cost;
        println!(
            "{:<6} {:>16.1} {:>16.1} {:>9.1}%",
            query.name,
            baseline.simulated_cost,
            pushdown_cost,
            100.0 * overhead
        );
    }

    // The same decomposition measured a second way: traced wall time per
    // driver stage of each full dynamic run.
    println!("\ntraced wall-time share per driver stage (full dynamic runs):");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "query", "total ms", "push-down%", "re-opt%", "final%"
    );
    for (name, report) in &dynamic_reports {
        let profile = report.profile();
        let total = profile
            .total_seconds("driver.execute")
            .max(f64::MIN_POSITIVE);
        let share = |stage: &str| 100.0 * profile.total_seconds(stage) / total;
        println!(
            "{:<6} {:>12.1} {:>11.1}% {:>11.1}% {:>11.1}%",
            name,
            total * 1_000.0,
            share("stage.pushdown"),
            share("stage.reopt"),
            share("stage.final"),
        );
    }

    // Full detail for one query: the EXPLAIN-ANALYZE tree (its latency
    // section shows p50/p90/p99 per span name), the estimate-vs-actual audit
    // table with the re-optimization decisions, and the combined Prometheus
    // exposition (execution counters + trace metrics + histogram buckets).
    if let Some((name, report)) = dynamic_reports.iter().find(|(n, _)| n == "Q9") {
        println!("\nspan tree of the dynamic {name} run:");
        print!("{}", report.profile().render_tree());
        println!("optimizer audit of the dynamic {name} run:");
        print!("{}", report.audit());
        println!(
            "max q-error of the run: {:.2}",
            report.audit_log.max_q_error()
        );
        println!("metrics exposition (first lines):");
        for line in report.metrics_text().lines().take(8) {
            println!("{line}");
        }
        println!("...");
    }

    Ok(())
}
