//! The Sink: the barrier at each re-optimization point.
//!
//! In the paper's Figure 4, every phase of the decomposed query ends in a
//! `Sink` operator that writes the intermediate data to a temporary file while
//! gathering statistical sketches; later phases read it back through a
//! `Reader` operator. Here the temporary file is a temporary
//! [`rdo_storage::Table`] and the Reader is an ordinary scan of it (which the
//! executor charges at intermediate-read rates).
//!
//! Algorithm 1 materializes the chosen join's result before re-planning; that
//! materialization is a natural barrier for the worker pool. Each worker
//! builds a [`DatasetStatsBuilder`] (GK + HLL sketches) over its partitions,
//! and the coordinator merges the per-partition partials **in partition
//! order** before registering the intermediate table — mirroring the paper's
//! per-partition Sink operators whose local statistics are combined when the
//! job finishes. The fixed merge order makes the registered statistics
//! identical for every worker count.

use crate::exchange::Gather;
use crate::pool::WorkerPool;
use rdo_common::{Result, Schema};
use rdo_exec::{ExecutionMetrics, PartitionedData};
use rdo_sketch::DatasetStatsBuilder;
use rdo_storage::Catalog;

/// What a materialization produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializeOutcome {
    /// Name of the temporary table created.
    pub table: String,
    /// Number of rows materialized.
    pub rows: u64,
    /// Approximate bytes written.
    pub bytes: u64,
    /// Number of individual values observed by online statistics collection
    /// (zero when statistics collection was disabled for this sink).
    pub stats_values: u64,
    /// True if the catalog's spill policy sent the table to the paged disk
    /// store instead of keeping it memory-resident.
    pub spilled: bool,
}

/// Counts how many of `tracked_columns` actually exist in `schema` (matched
/// unqualified or fully qualified) — the per-row statistics work the Sink
/// charges to the cost model.
fn tracked_columns_present(schema: &Schema, tracked_columns: &[String]) -> u64 {
    tracked_columns
        .iter()
        .filter(|c| {
            let unqualified = rdo_common::unqualified(c);
            schema
                .fields()
                .iter()
                .any(|f| f.name.field == unqualified || f.name.qualified() == **c)
        })
        .count() as u64
}

/// Materializes `data` into the catalog as temporary table `name`,
/// hash-partitioned on `partition_key`, collecting online statistics on
/// `tracked_columns` (when `collect_stats` is true) from per-partition
/// partials merged at the barrier. The paper disables online statistics for
/// the final iteration ("the online statistics framework is enabled in all
/// the iterations except for the last one"), which callers express through
/// `collect_stats`. Sketch building runs on the caller's persistent `pool`
/// (one pool per driver execution, shared by every stage).
///
/// When `data` is already hash-partitioned on `partition_key` with the
/// cluster's partition count, its layout is registered verbatim — re-hashing
/// the gathered relation on the coordinator would reproduce exactly the same
/// assignment, so that rebuild is skipped. The catalog's spill policy then
/// decides whether the table stays resident or goes to the paged disk store;
/// logical page writes land in the `spill_*` metrics.
#[allow(clippy::too_many_arguments)]
pub fn materialize(
    pool: &WorkerPool,
    catalog: &mut Catalog,
    name: &str,
    data: &PartitionedData,
    partition_key: Option<&str>,
    tracked_columns: &[String],
    collect_stats: bool,
    metrics: &mut ExecutionMetrics,
) -> Result<MaterializeOutcome> {
    let rows = data.row_count() as u64;
    let bytes = data.approx_bytes() as u64;
    let mut span = rdo_trace::span("sink.materialize");
    span.attr_str("table", name);
    span.attr_u64("rows", rows);
    span.attr_u64("bytes", bytes);

    // Statistics cost accounting: one observation per tracked column actually
    // present in the schema, per row.
    let stats_values = if collect_stats {
        tracked_columns_present(data.schema(), tracked_columns) * rows
    } else {
        0
    };

    // Per-partition sketch building on the pool, merged in partition order.
    let tracked: &[String] = if collect_stats { tracked_columns } else { &[] };
    let partials = pool.map_indexed(data.num_partitions(), |p| {
        let mut builder = DatasetStatsBuilder::new(data.schema(), tracked);
        for row in &data.partitions()[p] {
            builder.observe(row);
        }
        builder
    });
    let mut merged = DatasetStatsBuilder::new(data.schema(), tracked);
    for partial in &partials {
        merged.merge(partial);
    }

    let layout_matches = partition_key.is_some_and(|key| data.is_partitioned_on(key))
        && data.num_partitions() == catalog.num_partitions();
    let stored = if layout_matches {
        catalog.register_intermediate_partitioned(
            name,
            data.schema().clone(),
            data.partitions().to_vec(),
            partition_key,
            merged.build(),
        )?
    } else {
        let relation = Gather.apply(data);
        catalog.register_intermediate_prebuilt(name, relation, partition_key, merged.build())?
    };

    metrics.rows_materialized += rows;
    metrics.bytes_materialized += bytes;
    metrics.stats_values_observed += stats_values;
    metrics.spill_pages_written += stored.pages_written;
    metrics.spill_bytes_written += stored.bytes_written;
    metrics.spill_logical_bytes_written += stored.logical_bytes_written;

    Ok(MaterializeOutcome {
        table: name.to_string(),
        rows,
        bytes,
        stats_values,
        spilled: stored.spilled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelConfig;
    use crate::executor::ParallelExecutor;
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_exec::PhysicalPlan;
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
            ],
        );
        let rows = (0..100)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]))
            .collect();
        cat.ingest(
            "orders",
            Relation::new(schema, rows).unwrap(),
            IngestOptions::partitioned_on("o_orderkey"),
        )
        .unwrap();
        cat
    }

    fn scan(cat: &Catalog, workers: usize) -> (PartitionedData, ExecutionMetrics) {
        let mut metrics = ExecutionMetrics::new();
        let exec = ParallelExecutor::new(cat, ParallelConfig::serial().with_workers(workers));
        let data = exec
            .execute(&PhysicalPlan::scan("orders"), &mut metrics)
            .unwrap();
        (data, metrics)
    }

    #[test]
    fn materialize_registers_table_and_merged_stats() {
        let mut cat = catalog();
        let (data, mut metrics) = scan(&cat, 4);
        let outcome = materialize(
            &WorkerPool::new(4),
            &mut cat,
            "I_1",
            &data,
            Some("o_custkey"),
            &["o_custkey".to_string()],
            true,
            &mut metrics,
        )
        .unwrap();
        assert_eq!(outcome.rows, 100);
        assert_eq!(outcome.stats_values, 100);
        assert_eq!(metrics.rows_materialized, 100);
        assert_eq!(metrics.stats_values_observed, 100);
        let stats = cat.stats().get("I_1").unwrap();
        assert_eq!(stats.row_count, 100);
        let column = stats.column("o_custkey").unwrap();
        assert!((column.distinct_nonzero() - 10.0).abs() < 2.0);
        assert!(cat.table("I_1").unwrap().is_partitioned_on("o_custkey"));
    }

    #[test]
    fn partitioned_fast_path_matches_the_gather_rehash_path() {
        // `I_key` goes through the fast path (data partitioned on o_orderkey,
        // the base table's partition key); `I_rehash` is forced through the
        // gather-and-rehash path by asking for a different partition key. A
        // third registration re-hashes the fast path's gathered rows on the
        // same key, proving the layouts are bit-identical.
        let mut cat = catalog();
        let (data, _) = scan(&cat, 2);
        assert!(data.is_partitioned_on("o_orderkey"));
        let pool = WorkerPool::new(2);
        let mut m = ExecutionMetrics::new();
        materialize(
            &pool,
            &mut cat,
            "I_key",
            &data,
            Some("o_orderkey"),
            &[],
            false,
            &mut m,
        )
        .unwrap();
        let fast = cat.table("I_key").unwrap();
        let rehashed = rdo_storage::Table::from_relation(
            "check",
            fast.gather(),
            cat.num_partitions(),
            Some("o_orderkey"),
        )
        .unwrap();
        for p in 0..cat.num_partitions() {
            assert_eq!(
                fast.partition_to_vec(p).unwrap(),
                rehashed.partition(p),
                "partition {p} layouts identical"
            );
        }
        assert!(fast.is_temporary() && fast.is_partitioned_on("o_orderkey"));
        assert_eq!(cat.stats().row_count("I_key"), Some(100));
    }

    #[test]
    fn materialize_spills_when_the_budget_is_exceeded() {
        use rdo_storage::SpillConfig;
        let mut cat = catalog();
        cat.configure_spill(SpillConfig::default().with_budget(1).with_page_size(512))
            .unwrap();
        let (data, _) = scan(&cat, 2);
        let pool = WorkerPool::new(2);
        let mut m = ExecutionMetrics::new();
        let outcome = materialize(
            &pool,
            &mut cat,
            "I_spill",
            &data,
            Some("o_orderkey"),
            &["o_custkey".to_string()],
            true,
            &mut m,
        )
        .unwrap();
        assert!(outcome.spilled);
        assert!(m.spill_pages_written > 0 && m.spill_bytes_written > 0);
        let table = cat.table("I_spill").unwrap();
        assert!(table.is_spilled());
        assert_eq!(table.row_count(), 100);
        // Statistics were merged from per-partition partials before spilling.
        assert_eq!(m.stats_values_observed, 100);
        assert!(cat
            .stats()
            .get("I_spill")
            .unwrap()
            .column("o_custkey")
            .is_some());
    }

    #[test]
    fn stats_are_identical_for_every_worker_count() {
        let reference = {
            let mut cat = catalog();
            let (data, mut m) = scan(&cat, 1);
            materialize(
                &WorkerPool::new(1),
                &mut cat,
                "I_1",
                &data,
                None,
                &["o_custkey".to_string()],
                true,
                &mut m,
            )
            .unwrap();
            cat.stats().get("I_1").unwrap().clone()
        };
        for workers in [2, 4, 8] {
            let mut cat = catalog();
            let (data, mut m) = scan(&cat, workers);
            materialize(
                &WorkerPool::new(workers),
                &mut cat,
                "I_1",
                &data,
                None,
                &["o_custkey".to_string()],
                true,
                &mut m,
            )
            .unwrap();
            let stats = cat.stats().get("I_1").unwrap();
            assert_eq!(stats.row_count, reference.row_count);
            let (a, b) = (
                stats.column("o_custkey").unwrap(),
                reference.column("o_custkey").unwrap(),
            );
            assert_eq!(
                a.distinct_nonzero(),
                b.distinct_nonzero(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn materialize_without_stats_counts_no_observations() {
        let mut cat = catalog();
        let (data, mut metrics) = scan(&cat, 2);
        let outcome = materialize(
            &WorkerPool::new(2),
            &mut cat,
            "I_last",
            &data,
            None,
            &["o_custkey".to_string()],
            false,
            &mut metrics,
        )
        .unwrap();
        assert_eq!(outcome.stats_values, 0);
        assert_eq!(cat.stats().row_count("I_last"), Some(100));
        assert!(cat.stats().get("I_last").unwrap().columns.is_empty());
    }

    #[test]
    fn materialize_and_read_back() {
        let mut cat = catalog();
        let (data, mut m) = scan(&cat, 1);
        let outcome = materialize(
            &WorkerPool::new(1),
            &mut cat,
            "I_1",
            &data,
            Some("o_custkey"),
            &["o_custkey".to_string()],
            true,
            &mut m,
        )
        .unwrap();
        assert_eq!(outcome.rows, 100);
        assert_eq!(outcome.stats_values, 100);
        assert!(outcome.bytes > 0);
        assert_eq!(m.rows_materialized, 100);
        assert_eq!(m.stats_values_observed, 100);

        // Reading the intermediate back charges intermediate-read metrics, not
        // base-scan metrics.
        let mut m2 = ExecutionMetrics::new();
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let rel = exec
            .execute_to_relation(&PhysicalPlan::scan("I_1"), &mut m2)
            .unwrap();
        assert_eq!(rel.len(), 100);
        assert_eq!(m2.rows_intermediate_read, 100);
        assert_eq!(m2.rows_scanned, 0);

        // Online statistics for the tracked column are available.
        let stats = cat.stats().get("I_1").unwrap();
        assert_eq!(stats.row_count, 100);
        assert!(stats.column("o_custkey").is_some());
        assert!(stats.column("o_orderkey").is_none());
    }

    #[test]
    fn materialize_spills_under_budget_and_scans_charge_spill_reads() {
        use rdo_storage::SpillConfig;
        let mut cat = catalog();
        cat.configure_spill(SpillConfig::default().with_budget(1).with_page_size(512))
            .unwrap();
        let (data, mut m) = scan(&cat, 1);
        let outcome = materialize(
            &WorkerPool::new(1),
            &mut cat,
            "I_spill",
            &data,
            Some("o_custkey"),
            &["o_custkey".to_string()],
            true,
            &mut m,
        )
        .unwrap();
        assert!(outcome.spilled, "1-byte budget forces the disk store");
        assert!(m.spill_pages_written > 0 && m.spill_bytes_written > 0);
        assert!(cat.table("I_spill").unwrap().is_spilled());

        // Reading the spilled intermediate charges the same logical
        // intermediate-read metrics as the memory path, plus page reads.
        let mut m2 = ExecutionMetrics::new();
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let rel = exec
            .execute_to_relation(&PhysicalPlan::scan("I_spill"), &mut m2)
            .unwrap();
        assert_eq!(rel.len(), 100);
        assert_eq!(m2.rows_intermediate_read, 100);
        assert_eq!(m2.spill_pages_read, m.spill_pages_written);
        assert_eq!(m2.spill_bytes_read, m.spill_bytes_written);

        // Statistics were collected before spilling, exactly as in memory.
        let stats = cat.stats().get("I_spill").unwrap();
        assert_eq!(stats.row_count, 100);
        assert!(stats.column("o_custkey").is_some());
    }

    #[test]
    fn tracked_columns_missing_from_schema_are_ignored() {
        let mut cat = catalog();
        let (data, mut m) = scan(&cat, 1);
        let outcome = materialize(
            &WorkerPool::new(1),
            &mut cat,
            "I_2",
            &data,
            None,
            &["not_a_column".to_string(), "o_custkey".to_string()],
            true,
            &mut m,
        )
        .unwrap();
        assert_eq!(
            outcome.stats_values, 100,
            "only the real column is observed"
        );
    }

    #[test]
    fn tracked_columns_match_unqualified_and_qualified_names() {
        let cat = catalog();
        let schema = cat.table("orders").unwrap().schema().clone();
        let tracked = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            tracked_columns_present(&schema, &names)
        };
        assert_eq!(tracked(&["o_custkey", "orders.o_orderkey"]), 2);
        assert_eq!(
            tracked(&["lineitem.o_custkey"]),
            1,
            "the field name matches"
        );
        assert_eq!(tracked(&["o_comment", "orders.o_comment"]), 0);
        assert_eq!(tracked(&[]), 0);
    }
}
