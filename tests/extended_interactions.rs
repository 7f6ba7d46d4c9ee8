//! Interactions between the extension features: the re-optimization budget
//! across a checkpointed crash and resume, SQL-bound queries under the indexed
//! nested-loop configuration, and correlation analysis driven from the catalog.

use rdo_workloads::{compile_paper_query, q8, q9};
use runtime_dynamic_optimization::planner::analyze_query;
use runtime_dynamic_optimization::prelude::*;

fn env(with_indexes: bool) -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, with_indexes, 321).unwrap()
}

#[test]
fn checkpointed_driver_respects_the_reopt_budget() {
    let mut env = env(false);
    let rule = JoinAlgorithmRule::with_threshold(2_000.0);
    let unlimited = DynamicConfig::dynamic(rule);
    let budgeted = DynamicConfig::dynamic(rule).with_reopt_budget(1);

    let expected = DynamicDriver::new(unlimited.clone())
        .execute(&q9(), &mut env.catalog)
        .unwrap()
        .result
        .sorted();

    // Crash the budgeted checkpointed run, then recover it.
    let driver = DynamicDriver::new(budgeted);
    let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(1));
    driver
        .resume(&q9(), &mut env.catalog, &mut log)
        .unwrap_err();
    log.injector = FailureInjector::none();
    let recovered = driver.resume(&q9(), &mut env.catalog, &mut log).unwrap();
    assert_eq!(recovered.result.clone().sorted(), expected);

    // The budget caps the number of Join-kind stages across crash + recovery:
    // with budget 1 the whole execution materializes at most one join beyond
    // the predicate push-downs. An uninterrupted budgeted run gives the bound.
    let uninterrupted = driver
        .resume(&q9(), &mut env.catalog, &mut CheckpointLog::new())
        .unwrap();
    let unlimited_run = DynamicDriver::new(unlimited)
        .resume(&q9(), &mut env.catalog, &mut CheckpointLog::new())
        .unwrap();
    assert!(uninterrupted.stages_executed() <= unlimited_run.stages_executed());
    assert!(recovered.reoptimization_points <= 1);
    assert_eq!(
        recovered.stages_recovered + recovered.stages_executed(),
        uninterrupted.stages_executed()
    );
}

#[test]
fn sql_bound_queries_agree_with_and_without_indexed_nested_loop() {
    let mut env = env(true);
    let bound = compile_paper_query("Q9", &env.catalog).unwrap();
    let plain = QueryRunner::new(
        CostModel::with_partitions(4),
        JoinAlgorithmRule::with_threshold(2_000.0),
    );
    let with_inl = plain.clone().with_indexed_nested_loop(true);
    let hash_only = plain
        .run(Strategy::Dynamic, &bound.spec, &mut env.catalog)
        .unwrap();
    let inl = with_inl
        .run(Strategy::Dynamic, &bound.spec, &mut env.catalog)
        .unwrap();
    assert_eq!(
        hash_only.result.clone().sorted(),
        inl.result.clone().sorted(),
        "enabling INL must not change the answer"
    );
}

#[test]
fn correlation_analysis_flags_the_q8_orders_predicates_from_the_catalog() {
    let env = env(false);
    let query = q8();
    let reports = analyze_query(&query, |alias| {
        let table = query.table_of(alias)?;
        let relation = env.catalog.table(table)?.gather();
        let stats = env.catalog.stats().get(table).cloned();
        Ok((relation, stats))
    })
    .unwrap();
    let orders = reports
        .iter()
        .find(|r| r.alias == "orders")
        .expect("orders is the multi-predicate dataset of Q8");
    // The generator makes o_orderstatus a function of o_orderdate, so the
    // conjunction keeps roughly the same fraction as the date filter alone and
    // the independence assumption underestimates.
    assert!(
        orders.correlation_factor() > 1.3,
        "correlation factor {}",
        orders.correlation_factor()
    );
    assert!(orders.static_error_factor() >= orders.correlation_factor() * 0.5);
}
