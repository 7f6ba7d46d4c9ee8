//! Parallelism is an *optimization*, never a semantic change: for every
//! evaluation query (Q8, Q9, Q17, Q50) and every worker count, the executor
//! must produce exactly the relations and metrics of its 1-worker run, and the
//! dynamic driver's outcome must be invariant in the worker count. Plus: `ExecutionMetrics::merge` — the fold the parallel executor
//! relies on — is associative and commutative.

use proptest::prelude::*;
// Explicit import: both preludes export a `Strategy` (the proptest trait and
// the runner's strategy enum); the trait is the one this test uses.
use proptest::Strategy;
use runtime_dynamic_optimization::prelude::*;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The 1-worker run and every other worker count agree on the gathered
/// relation and every metric counter, for the static cost-based plan of all
/// four evaluation queries.
#[test]
fn parallel_executor_matches_serial_on_all_evaluation_queries() {
    let env = env();
    let rule = JoinAlgorithmRule::with_threshold(25_000.0);
    for query in all_queries() {
        let plan = CostBasedOptimizer::new(rule)
            .plan(&query, &env.catalog, env.catalog.stats())
            .expect("static plan");

        let serial = ParallelExecutor::new(&env.catalog, ParallelConfig::serial());
        let mut serial_metrics = ExecutionMetrics::new();
        let expected = serial
            .execute_to_relation(&plan, &mut serial_metrics)
            .expect("serial execution");

        for workers in [2, 4, 8] {
            let config = ParallelConfig::serial().with_workers(workers);
            let parallel = ParallelExecutor::new(&env.catalog, config);
            let mut metrics = ExecutionMetrics::new();
            let actual = parallel
                .execute_to_relation(&plan, &mut metrics)
                .expect("parallel execution");
            assert_eq!(
                actual, expected,
                "{}: relation diverged at workers={workers}",
                query.name
            );
            assert_eq!(
                metrics, serial_metrics,
                "{}: metrics diverged at workers={workers}",
                query.name
            );
        }
    }
}

/// The full dynamic driver (push-down, re-optimization loop with merged
/// per-partition sketches, final job) is worker-count invariant on all four
/// evaluation queries: same result, same merged metrics, same chosen plans.
#[test]
fn dynamic_driver_is_worker_count_invariant() {
    // One generated environment; each run gets a cheap clone (tables are
    // Arc-shared) so workload generation doesn't dominate the test.
    let env = env();
    for query in all_queries() {
        let mut reference = None;
        for workers in WORKER_COUNTS {
            let mut catalog = env.catalog.clone();
            let config = DynamicConfig::default()
                .with_parallel(ParallelConfig::serial().with_workers(workers));
            let outcome = DynamicDriver::new(config)
                .execute(&query, &mut catalog)
                .expect("dynamic execution");
            match &reference {
                None => reference = Some(outcome),
                Some(expected) => {
                    assert_eq!(
                        outcome.result, expected.result,
                        "{}: result diverged at workers={workers}",
                        query.name
                    );
                    assert_eq!(
                        outcome.total, expected.total,
                        "{}: metrics diverged at workers={workers}",
                        query.name
                    );
                    assert_eq!(
                        outcome.stage_plans, expected.stage_plans,
                        "{}: plan choice diverged at workers={workers}",
                        query.name
                    );
                }
            }
        }
    }
}

fn metrics_from(values: &[u64; 33]) -> ExecutionMetrics {
    ExecutionMetrics {
        rows_scanned: values[0],
        bytes_scanned: values[1],
        rows_intermediate_read: values[2],
        bytes_intermediate_read: values[3],
        rows_shuffled: values[4],
        bytes_shuffled: values[5],
        rows_broadcast: values[6],
        bytes_broadcast: values[7],
        build_rows: values[8],
        probe_rows: values[9],
        output_rows: values[10],
        index_lookups: values[11],
        index_fetched_rows: values[12],
        rows_materialized: values[13],
        bytes_materialized: values[14],
        stats_values_observed: values[15],
        result_rows: values[16],
        spill_pages_written: values[17],
        spill_bytes_written: values[18],
        spill_pages_read: values[19],
        spill_bytes_read: values[20],
        spill_logical_bytes_written: values[28],
        spill_logical_bytes_read: values[29],
        grace_partitions_spilled: values[21],
        grace_pages_written: values[22],
        grace_bytes_written: values[23],
        grace_pages_read: values[24],
        grace_bytes_read: values[25],
        grace_logical_bytes_written: values[30],
        grace_logical_bytes_read: values[31],
        grace_recursions: values[26],
        grace_fallbacks: values[27],
        // Max-merged high-water mark; max is commutative and associative
        // with identity 0, so the merge laws below still hold.
        grace_peak_transient_bytes: values[32],
    }
}

fn counter_strategy() -> impl Strategy<Value = [u64; 33]> {
    prop::collection::vec(0u64..1_000_000, 33..34).prop_map(|v| {
        let mut out = [0u64; 33];
        out.copy_from_slice(&v);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is commutative: a ⊕ b = b ⊕ a.
    fn metrics_merge_is_commutative(a in counter_strategy(), b in counter_strategy()) {
        let (a, b) = (metrics_from(&a), metrics_from(&b));
        prop_assert_eq!(a.merge(b), b.merge(a));
    }

    /// merge is associative: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c), so any fold order over
    /// per-partition partials yields the same totals.
    fn metrics_merge_is_associative(
        a in counter_strategy(),
        b in counter_strategy(),
        c in counter_strategy(),
    ) {
        let (a, b, c) = (metrics_from(&a), metrics_from(&b), metrics_from(&c));
        prop_assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        // The identity element is the zeroed metrics object.
        prop_assert_eq!(a.merge(ExecutionMetrics::new()), a);
    }
}
