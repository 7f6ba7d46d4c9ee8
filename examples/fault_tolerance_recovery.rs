//! Fault tolerance from re-optimization checkpoints (the paper's future-work
//! extension): crash a long multi-join query in the middle of its dynamic
//! execution, then resume it from the materialized intermediates instead of
//! starting over.
//!
//! Every number printed comes from the engine's own instrumentation: wall
//! times are `driver.execute` / `stage.replay` span durations of traced runs,
//! sizes and scan work are `ExecutionMetrics` counters.
//!
//! Run with: `cargo run --release --example fault_tolerance_recovery`

use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::workloads::q17;

fn main() -> rdo_common::Result<()> {
    let mut env = BenchmarkEnv::load(ScaleFactor::gb(50), 8, false, 7)?;
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(10_000.0));
    let query = q17();
    let traced = |trace: &TraceHandle| DynamicDriver::new(config.clone().with_trace(trace.clone()));

    // ----------------------------------------------- uninterrupted baseline --
    // One untimed run first, so the cold restart and the resume below both
    // find warm caches and compare like with like.
    DynamicDriver::new(config.clone()).execute(&query, &mut env.catalog)?;
    let cold_trace = TraceHandle::enabled();
    let cold = traced(&cold_trace).execute(&query, &mut env.catalog)?;
    let cold_seconds = cold_trace.profile().total_seconds("driver.execute");
    println!(
        "uninterrupted {}: {} stages, {} result rows, {} base rows scanned, {:.1} ms",
        query.name,
        cold.stages_executed(),
        cold.result.len(),
        cold.total.rows_scanned,
        1e3 * cold_seconds
    );

    // ------------------------------------------------------ crash + resume --
    // Fail late, as a long query would: right after its last re-optimization
    // point, just before the final job.
    let crash_trace = TraceHandle::enabled();
    let crash_after = cold.stages_executed();
    let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(crash_after));
    let crash = traced(&crash_trace).resume(&query, &mut env.catalog, &mut log);
    println!(
        "\ninjected crash after {:.1} ms: {}",
        1e3 * crash_trace.profile().total_seconds("driver.execute"),
        crash.expect_err("the injector fails the run")
    );
    println!("checkpoints left behind:");
    for entry in &log.entries {
        println!(
            "  {} -> table {} ({} rows)",
            entry.description, entry.table, entry.estimate.actual_rows
        );
    }

    let resume_trace = TraceHandle::enabled();
    log.injector = FailureInjector::none();
    let resumed = traced(&resume_trace).resume(&query, &mut env.catalog, &mut log)?;
    let profile = resume_trace.profile();
    let resume_seconds = profile.total_seconds("driver.execute");
    println!(
        "\nresumed run: {} stages replayed from checkpoints in {:.3} ms, {} newly executed, {} base rows scanned",
        resumed.stages_recovered,
        1e3 * profile.total_seconds("stage.replay"),
        resumed.stages_executed(),
        resumed.total.rows_scanned
    );

    // The cold run materialized every stage; the resumed run only the ones
    // after the crash. The difference is what the journal held.
    let checkpoint_bytes = cold.total.bytes_materialized - resumed.total.bytes_materialized;
    let checkpoint_rows = cold.total.rows_materialized - resumed.total.rows_materialized;
    let saved_rows = cold.total.rows_scanned - resumed.total.rows_scanned;
    println!("\ncheckpoint claim, measured:");
    println!(
        "  driver.execute wall time: cold restart {:.1} ms vs resume {:.1} ms ({:.2}x)",
        1e3 * cold_seconds,
        1e3 * resume_seconds,
        cold_seconds / resume_seconds.max(f64::MIN_POSITIVE)
    );
    println!(
        "  journaled intermediates: {checkpoint_rows} rows, {checkpoint_bytes} bytes_materialized"
    );
    println!(
        "  base rows scanned saved by resuming: {saved_rows} of {} ({:.1}%)",
        cold.total.rows_scanned,
        100.0 * saved_rows as f64 / cold.total.rows_scanned.max(1) as f64
    );
    assert_eq!(
        resumed.result.clone().sorted(),
        cold.result.clone().sorted(),
        "recovered result must equal the uninterrupted result"
    );
    println!("recovered result matches the uninterrupted execution ✔");
    Ok(())
}
