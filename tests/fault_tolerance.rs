//! Fault-tolerance integration tests: a paper query interrupted mid-way must be
//! resumable from its re-optimization checkpoints and produce exactly the
//! answer an uninterrupted run produces.

use rdo_workloads::{q8, q9};
use runtime_dynamic_optimization::prelude::*;
use std::collections::BTreeSet;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, false, 123).unwrap()
}

fn config() -> DynamicConfig {
    DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0))
}

fn table_set(catalog: &Catalog) -> BTreeSet<String> {
    catalog.table_names().into_iter().collect()
}

#[test]
fn q9_crash_and_recovery_matches_uninterrupted_execution() {
    let mut env = env();
    let driver = DynamicDriver::new(config());
    let expected = driver
        .execute(&q9(), &mut env.catalog)
        .unwrap()
        .result
        .sorted();
    let tables_before = table_set(&env.catalog);

    let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(2));
    let error = driver
        .resume(&q9(), &mut env.catalog, &mut log)
        .unwrap_err();
    assert!(error.to_string().contains("injected failure"));
    assert_eq!(log.len(), 2);

    log.injector = FailureInjector::none();
    let recovered = driver.resume(&q9(), &mut env.catalog, &mut log).unwrap();
    assert_eq!(recovered.stages_recovered, 2);
    assert_eq!(recovered.result.sorted(), expected);
    assert!(log.is_empty());
    assert_eq!(table_set(&env.catalog), tables_before);
}

#[test]
fn recovery_skips_already_executed_work() {
    let mut env = env();
    let driver = DynamicDriver::new(config());

    // Uninterrupted run, to learn the total amount of work.
    let full = driver
        .resume(&q9(), &mut env.catalog, &mut CheckpointLog::new())
        .unwrap();

    // Crash after one stage, then resume.
    let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(1));
    driver
        .resume(&q9(), &mut env.catalog, &mut log)
        .unwrap_err();
    log.injector = FailureInjector::none();
    let resumed = driver.resume(&q9(), &mut env.catalog, &mut log).unwrap();

    assert_eq!(resumed.stages_recovered, 1);
    assert_eq!(
        resumed.stages_executed() + resumed.stages_recovered,
        full.stages_executed(),
        "the recovering run executes exactly the stages the crash skipped"
    );
    // The recovering run scans strictly fewer base rows than the full run
    // because the checkpointed stage is not re-executed.
    assert!(resumed.total.rows_scanned < full.total.rows_scanned);
    assert_eq!(resumed.result.sorted(), full.result.sorted());
}

/// Every crash point on Q9, at 1 and 2 workers, in memory and with a 1-byte
/// spill budget (so the checkpoints live in spill files): the resumed run's
/// result, stage plans (recovered marker stripped) and audit trail equal an
/// uninterrupted `execute`'s, the catalog's table set is restored, the spill
/// directory is empty again and a traced resume records its stage spans.
#[test]
fn every_crash_point_recovers_to_the_same_answer() {
    for workers in [1, 2] {
        for spill_budget in [None, Some(1)] {
            let mut env = env();
            let mut config = config().with_parallel(ParallelConfig::serial().with_workers(workers));
            if let Some(bytes) = spill_budget {
                config = config.with_spill(SpillConfig::disabled().with_budget(bytes));
            }
            let case = format!("workers={workers} spill_budget={spill_budget:?}");
            let tables_before = table_set(&env.catalog);
            let expected = DynamicDriver::new(config.clone())
                .execute(&q9(), &mut env.catalog)
                .unwrap();
            let stages = expected.stages_executed();
            assert!(stages >= 2, "Q9 must have several checkpointable stages");

            for crash_after in 1..=stages {
                let mut log =
                    CheckpointLog::new().with_injector(FailureInjector::after_stages(crash_after));
                let first =
                    DynamicDriver::new(config.clone()).resume(&q9(), &mut env.catalog, &mut log);
                assert!(
                    first.is_err(),
                    "{case}: crash point {crash_after} should fail"
                );
                assert_eq!(log.len() as u32, crash_after, "{case}");
                if spill_budget.is_some() {
                    let dir = env.catalog.spill_dir().expect("spill configured");
                    assert!(
                        std::fs::read_dir(&dir).unwrap().count() > 0,
                        "{case}: the checkpoints live in spill files"
                    );
                }

                let trace = TraceHandle::enabled();
                log.injector = FailureInjector::none();
                let recovered = DynamicDriver::new(config.clone().with_trace(trace.clone()))
                    .resume(&q9(), &mut env.catalog, &mut log)
                    .unwrap();
                let context = format!("{case}: crash after stage {crash_after}");
                assert_eq!(recovered.stages_recovered, crash_after, "{context}");
                assert_eq!(recovered.result, expected.result, "{context}");
                let stripped: Vec<&str> = recovered
                    .stage_plans
                    .iter()
                    .map(|p| p.strip_prefix("recovered ").unwrap_or(p))
                    .collect();
                assert_eq!(stripped, expected.stage_plans, "{context}");
                assert_eq!(recovered.audit, expected.audit, "{context}");

                assert!(log.is_empty(), "{context}");
                assert_eq!(table_set(&env.catalog), tables_before, "{context}");
                if let Some(dir) = env.catalog.spill_dir() {
                    assert_eq!(
                        std::fs::read_dir(&dir).unwrap().count(),
                        0,
                        "{context}: spill directory empty after success"
                    );
                }
                let spans: BTreeSet<String> = trace
                    .profile()
                    .spans()
                    .iter()
                    .map(|s| s.name.clone())
                    .collect();
                for stage in ["stage.replay", "stage.final"] {
                    assert!(spans.contains(stage), "{context}: no {stage} span");
                }
            }
        }
    }
}

/// A log remembers the query it was opened for: resuming Q8 from Q9's
/// checkpoints is an error that leaves the catalog and the log untouched.
#[test]
fn resuming_another_query_from_a_log_is_rejected() {
    let mut env = env();
    let driver = DynamicDriver::new(config());
    let expected = driver
        .execute(&q9(), &mut env.catalog)
        .unwrap()
        .result
        .sorted();

    let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(2));
    driver
        .resume(&q9(), &mut env.catalog, &mut log)
        .unwrap_err();
    log.injector = FailureInjector::none();
    let tables_after_crash = table_set(&env.catalog);
    let journaled = log.tables();

    let error = driver
        .resume(&q8(), &mut env.catalog, &mut log)
        .unwrap_err();
    assert!(error.to_string().contains("Q9"), "{error}");
    assert_eq!(table_set(&env.catalog), tables_after_crash);
    assert_eq!(log.tables(), journaled);

    // The untouched log still resumes the query it belongs to.
    let recovered = driver.resume(&q9(), &mut env.catalog, &mut log).unwrap();
    assert_eq!(recovered.stages_recovered, 2);
    assert_eq!(recovered.result.sorted(), expected);
}
