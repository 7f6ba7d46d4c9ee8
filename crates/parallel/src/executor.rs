//! The partition-parallel plan executor, the engine's only executor.
//!
//! Executes [`PhysicalPlan`]s by mapping the per-partition kernels of
//! [`rdo_exec::partition`] across a [`WorkerPool`], one task per partition,
//! and moves tuples between partitions through the explicit exchange
//! operators of [`crate::exchange`]. Results and metrics are identical for
//! every worker count; see the crate docs for why.

use crate::config::ParallelConfig;
use crate::exchange::{Broadcast, HashRepartition};
use crate::pool::WorkerPool;
use crate::transport::{default_transport, Transport};
use rdo_common::{FieldRef, RdoError, Relation, Result, Tuple};
use rdo_exec::grace::{joined_partition, GraceContext, GraceTally};
use rdo_exec::partition::{indexed_join_partition, scan_partition, IndexJoinTally, ScanTally};
use rdo_exec::setup::{prepare_indexed_join, prepare_scan, resolve_keys};
use rdo_exec::{ExecutionMetrics, JoinAlgorithm, PartitionedData, PhysicalPlan, Predicate};
use rdo_storage::{Catalog, SpillReadTally};
use std::sync::Arc;

/// Executes physical plans against a catalog with one task per partition.
pub struct ParallelExecutor<'a> {
    catalog: &'a Catalog,
    config: ParallelConfig,
    pool: WorkerPool,
    transport: Arc<dyn Transport>,
}

impl<'a> ParallelExecutor<'a> {
    /// Creates an executor over the given catalog with its own worker pool.
    /// Callers executing many stages (the dynamic driver) should create one
    /// [`WorkerPool`] up front and use [`ParallelExecutor::with_pool`] so the
    /// persistent threads are spawned once, not per stage.
    pub fn new(catalog: &'a Catalog, config: ParallelConfig) -> Self {
        Self::with_pool(catalog, config, WorkerPool::new(config.workers))
    }

    /// Creates an executor sharing an existing worker pool (an `Arc` clone).
    pub fn with_pool(catalog: &'a Catalog, config: ParallelConfig, pool: WorkerPool) -> Self {
        Self {
            catalog,
            config,
            pool,
            transport: default_transport(),
        }
    }

    /// Routes the exchange operators through `transport` (builder style).
    /// The default is the in-process transport; note that
    /// [`ParallelConfig::transport`] is only a *selection* — resolving it
    /// into a concrete object is the caller's job (the `rdo-core` driver
    /// resolves it through `rdo-net`).
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }

    /// The executor's configuration.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// The executor's worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The transport routing the executor's exchanges.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Executes a plan, returning the partitioned output.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        match plan {
            PhysicalPlan::Scan {
                dataset,
                table,
                predicates,
                projection,
            } => self.execute_scan(dataset, table, predicates, projection.as_deref(), metrics),
            PhysicalPlan::Join {
                left,
                right,
                keys,
                algorithm,
            } => self.execute_join(left, right, keys, *algorithm, metrics),
        }
    }

    /// Executes a plan and gathers the result on the coordinator.
    pub fn execute_to_relation(
        &self,
        plan: &PhysicalPlan,
        metrics: &mut ExecutionMetrics,
    ) -> Result<Relation> {
        let data = self.execute(plan, metrics)?;
        let relation = self.transport.gather(&data)?;
        metrics.result_rows += relation.len() as u64;
        Ok(relation)
    }

    /// Maps a fallible per-partition task over `partitions` partitions, one
    /// task per partition, and returns the outputs in partition order. The
    /// error of the lowest failing partition wins, whichever worker hit it.
    fn map_partitions<T: Send>(
        &self,
        partitions: usize,
        task: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        self.pool
            .map_indexed(partitions, |p| {
                // One span per partition task: the trace shape depends only
                // on the partition count, so it is the same for every worker
                // count.
                let mut span = rdo_trace::span("pool.morsel");
                span.attr_u64("morsel", p as u64);
                span.attr_u64("partitions", 1);
                task(p)
            })
            .into_iter()
            .collect()
    }

    fn execute_scan(
        &self,
        dataset: &str,
        table_name: &str,
        predicates: &[Predicate],
        projection: Option<&[FieldRef]>,
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let mut span = rdo_trace::span("exec.scan");
        span.attr_str("table", table_name);
        let table = self.catalog.table_handle(table_name)?;
        let setup = prepare_scan(&table, dataset, projection)?;

        // Each partition streams page by page through the scan kernel —
        // memory-backed tables hand over the whole partition as one page,
        // spilled ones decode each page through the buffer pool.
        // Per-partition tallies fold in partition order, so metrics are
        // identical for every worker count and every backing.
        let results = self.map_partitions(table.num_partitions(), |p| {
            let mut out_rows: Vec<Tuple> = Vec::new();
            let mut partial = ScanTally::default();
            let page_tally = table.scan_pages(p, |rows| {
                let (out, page_partial) = scan_partition(
                    &setup.schema,
                    predicates,
                    setup.projection_indexes.as_deref(),
                    rows,
                )?;
                partial.add(&page_partial);
                if out_rows.is_empty() {
                    out_rows = out;
                } else {
                    out_rows.extend(out);
                }
                Ok(true)
            })?;
            Ok((out_rows, partial, page_tally))
        })?;
        let mut partitions: Vec<Vec<Tuple>> = Vec::with_capacity(results.len());
        let mut tally = ScanTally::default();
        let mut spill_read = SpillReadTally::default();
        for (rows, partial, page_tally) in results {
            tally.add(&partial);
            spill_read.add(&page_tally);
            partitions.push(rows);
        }
        metrics.spill_pages_read += spill_read.pages;
        metrics.spill_bytes_read += spill_read.bytes;
        metrics.spill_logical_bytes_read += spill_read.logical_bytes;

        if table.is_temporary() {
            metrics.rows_intermediate_read += tally.scanned_rows;
            metrics.bytes_intermediate_read += tally.scanned_bytes;
        } else {
            metrics.rows_scanned += tally.scanned_rows;
            metrics.bytes_scanned += tally.scanned_bytes;
        }
        metrics.output_rows += tally.kept;
        span.attr_u64("rows_in", tally.scanned_rows);
        span.attr_u64("rows_out", tally.kept);
        span.attr_u64("predicates", predicates.len() as u64);
        rdo_trace::counter("progress.rows_produced", tally.kept);

        let mut data = PartitionedData::new(setup.out_schema, partitions, setup.partition_key);
        if predicates.is_empty() && projection.is_none() && !table.is_temporary() {
            data = data.with_base_table(table_name);
        }
        Ok(data)
    }

    fn execute_join(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        keys: &[(FieldRef, FieldRef)],
        algorithm: JoinAlgorithm,
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        if keys.is_empty() {
            return Err(RdoError::Execution("join without key pairs".to_string()));
        }
        match algorithm {
            JoinAlgorithm::Hash => {
                let left_data = self.execute(left, metrics)?;
                let right_data = self.execute(right, metrics)?;
                self.hash_join(left_data, right_data, keys, metrics)
            }
            JoinAlgorithm::Broadcast => {
                let left_data = self.execute(left, metrics)?;
                let right_data = self.execute(right, metrics)?;
                self.broadcast_join(left_data, right_data, keys, metrics)
            }
            JoinAlgorithm::IndexedNestedLoop => {
                let right_data = self.execute(right, metrics)?;
                self.indexed_nested_loop_join(left, right_data, keys, metrics)
            }
        }
    }

    /// Partitioned hash join: a [`HashRepartition`] exchange in front of every
    /// input not already partitioned on its join key, then one build/probe
    /// kernel per partition.
    fn hash_join(
        &self,
        left: PartitionedData,
        right: PartitionedData,
        keys: &[(FieldRef, FieldRef)],
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let (left_key_indexes, right_key_indexes) = resolve_keys(&left, &right, keys)?;
        let (first_left_key, first_right_key) = &keys[0];
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "hash");
        let rows_in =
            |data: &PartitionedData| data.partitions().iter().map(Vec::len).sum::<usize>() as u64;
        span.attr_u64("rows_in", rows_in(&left) + rows_in(&right));

        let left = if left.is_partitioned_on(&first_left_key.field) {
            left
        } else {
            let exchange = HashRepartition::new(left_key_indexes[0], &first_left_key.field);
            let (data, moved_rows, moved_bytes) =
                self.transport.repartition(&exchange, &left, &self.pool)?;
            metrics.rows_shuffled += moved_rows;
            metrics.bytes_shuffled += moved_bytes;
            data
        };
        let right = if right.is_partitioned_on(&first_right_key.field) {
            right
        } else {
            let exchange = HashRepartition::new(right_key_indexes[0], &first_right_key.field);
            let (data, moved_rows, moved_bytes) =
                self.transport.repartition(&exchange, &right, &self.pool)?;
            metrics.rows_shuffled += moved_rows;
            metrics.bytes_shuffled += moved_bytes;
            data
        };

        let out_schema = left.schema().join(right.schema());
        let num_partitions = left.num_partitions().max(right.num_partitions());
        let empty: Vec<Tuple> = Vec::new();
        let grace = GraceContext::from_catalog(self.catalog);
        let results = self.map_partitions(num_partitions, |p| {
            let build_rows = right.partitions().get(p).unwrap_or(&empty);
            let probe_rows = left.partitions().get(p).unwrap_or(&empty);
            joined_partition(
                probe_rows,
                build_rows,
                &left_key_indexes,
                &right_key_indexes,
                grace.as_ref(),
            )
        })?;
        let mut out_partitions: Vec<Vec<Tuple>> = Vec::with_capacity(num_partitions);
        let mut tally = GraceTally::default();
        for (rows, partial) in results {
            tally.add(&partial);
            out_partitions.push(rows);
        }
        tally.record(metrics);
        let joined_rows = out_partitions.iter().map(Vec::len).sum::<usize>() as u64;
        span.attr_u64("rows_out", joined_rows);
        rdo_trace::counter("progress.rows_produced", joined_rows);

        let key_name = rdo_common::unqualified(&first_left_key.field).to_string();
        Ok(PartitionedData::new(
            out_schema,
            out_partitions,
            Some(key_name),
        ))
    }

    /// Broadcast join: a [`Broadcast`] exchange replicates the build side,
    /// then every probe partition builds its own hash table over the shared
    /// replica (each partition of the real cluster would do the same with its
    /// received copy).
    fn broadcast_join(
        &self,
        left: PartitionedData,
        right: PartitionedData,
        keys: &[(FieldRef, FieldRef)],
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let (left_key_indexes, right_key_indexes) = resolve_keys(&left, &right, keys)?;
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "broadcast");
        let rows_in =
            |data: &PartitionedData| data.partitions().iter().map(Vec::len).sum::<usize>() as u64;
        span.attr_u64("rows_in", rows_in(&left) + rows_in(&right));

        let partitions_count = left.num_partitions();
        let (broadcast_rows, replicated_rows, replicated_bytes) = self
            .transport
            .broadcast(&Broadcast::new(partitions_count), &right)?;
        metrics.rows_broadcast += replicated_rows;
        metrics.bytes_broadcast += replicated_bytes;

        let out_schema = left.schema().join(right.schema());
        let grace = GraceContext::from_catalog(self.catalog);
        let results = self.map_partitions(partitions_count, |p| {
            joined_partition(
                &left.partitions()[p],
                &broadcast_rows,
                &left_key_indexes,
                &right_key_indexes,
                grace.as_ref(),
            )
        })?;
        let mut out_partitions: Vec<Vec<Tuple>> = Vec::with_capacity(partitions_count);
        let mut tally = GraceTally::default();
        for (rows, partial) in results {
            tally.add(&partial);
            out_partitions.push(rows);
        }
        tally.record(metrics);
        let joined_rows = out_partitions.iter().map(Vec::len).sum::<usize>() as u64;
        span.attr_u64("rows_out", joined_rows);
        rdo_trace::counter("progress.rows_produced", joined_rows);

        let partition_key = left.partition_key().map(|s| s.to_string());
        Ok(PartitionedData::new(
            out_schema,
            out_partitions,
            partition_key,
        ))
    }

    /// Indexed nested-loop join: the build input is broadcast and every
    /// partition probes its local secondary index (the indexed table is never
    /// scanned).
    fn indexed_nested_loop_join(
        &self,
        left: &PhysicalPlan,
        right: PartitionedData,
        keys: &[(FieldRef, FieldRef)],
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let PhysicalPlan::Scan {
            dataset,
            table: table_name,
            predicates,
            projection,
        } = left
        else {
            return Err(RdoError::Execution(
                "indexed nested-loop join requires its indexed input to be a base-table scan"
                    .to_string(),
            ));
        };
        let (first_left_key, _) = &keys[0];
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "inl");
        let table = self.catalog.table_handle(table_name)?;
        let index = self
            .catalog
            .secondary_index(table_name, &first_left_key.field)
            .ok_or_else(|| {
                RdoError::Execution(format!(
                    "no secondary index on {table_name}.{} for indexed nested-loop join",
                    first_left_key.field
                ))
            })?;
        let setup =
            prepare_indexed_join(&table, dataset, projection.as_deref(), right.schema(), keys)?;

        let partitions_count = table.num_partitions();
        let (broadcast_rows, replicated_rows, replicated_bytes) = self
            .transport
            .broadcast(&Broadcast::new(partitions_count), &right)?;
        metrics.rows_broadcast += replicated_rows;
        metrics.bytes_broadcast += replicated_bytes;

        let results = self.map_partitions(partitions_count, |p| {
            indexed_join_partition(
                &broadcast_rows,
                index,
                p,
                table.partition(p),
                &setup.left_schema,
                predicates,
                setup.projection_indexes.as_deref(),
                &setup.left_key_indexes,
                &setup.right_key_indexes,
                setup.first_right_key_index,
            )
        })?;
        let mut out_partitions: Vec<Vec<Tuple>> = Vec::with_capacity(partitions_count);
        let mut tally = IndexJoinTally::default();
        for (rows, partial) in results {
            tally.add(&partial);
            out_partitions.push(rows);
        }
        metrics.index_lookups += tally.index_lookups;
        metrics.index_fetched_rows += tally.index_fetched_rows;
        metrics.output_rows += tally.output_rows;
        span.attr_u64("rows_out", tally.output_rows);
        rdo_trace::counter("progress.rows_produced", tally.output_rows);

        Ok(PartitionedData::new(
            setup.out_schema,
            out_partitions,
            setup.partition_key,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Relation, Schema, Value};
    use rdo_exec::CmpOp;
    use rdo_storage::IngestOptions;

    /// Builds a small catalog with `orders(o_orderkey, o_custkey)` and
    /// `customer(c_custkey, c_name)`, plus a secondary index on
    /// `orders.o_custkey`.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let orders_schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
            ],
        );
        let orders_rows = (0..200)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 20)]))
            .collect();
        cat.ingest(
            "orders",
            Relation::new(orders_schema, orders_rows).unwrap(),
            IngestOptions::partitioned_on("o_orderkey").with_index("o_custkey"),
        )
        .unwrap();

        let cust_schema = Schema::for_dataset(
            "customer",
            &[("c_custkey", DataType::Int64), ("c_name", DataType::Utf8)],
        );
        let cust_rows = (0..20)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Utf8(format!("cust{i}"))]))
            .collect();
        cat.ingest(
            "customer",
            Relation::new(cust_schema, cust_rows).unwrap(),
            IngestOptions::partitioned_on("c_custkey"),
        )
        .unwrap();
        cat
    }

    /// The 1-worker executor: every task runs inline on the calling thread.
    fn serial(cat: &Catalog) -> ParallelExecutor<'_> {
        ParallelExecutor::new(cat, ParallelConfig::serial())
    }

    fn join_plan(algorithm: JoinAlgorithm) -> PhysicalPlan {
        PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
            algorithm,
        )
    }

    fn plans() -> Vec<PhysicalPlan> {
        vec![
            PhysicalPlan::scan("orders").with_predicates(vec![Predicate::compare(
                FieldRef::new("orders", "o_custkey"),
                CmpOp::Lt,
                7i64,
            )]),
            join_plan(JoinAlgorithm::Hash),
            join_plan(JoinAlgorithm::Broadcast),
            join_plan(JoinAlgorithm::IndexedNestedLoop),
        ]
    }

    #[test]
    fn scan_with_filter_and_projection() {
        let cat = catalog();
        let exec = serial(&cat);
        let mut m = ExecutionMetrics::new();
        let plan = PhysicalPlan::scan("orders")
            .with_predicates(vec![Predicate::compare(
                FieldRef::new("orders", "o_custkey"),
                CmpOp::Eq,
                3i64,
            )])
            .with_projection(vec![FieldRef::new("orders", "o_orderkey")]);
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 10, "200 orders / 20 customers = 10 per customer");
        assert_eq!(rel.schema().len(), 1);
        assert_eq!(m.rows_scanned, 200);
        assert_eq!(m.output_rows, 10);
        assert_eq!(m.result_rows, 10);
    }

    #[test]
    fn all_join_algorithms_agree() {
        let cat = catalog();
        let exec = serial(&cat);
        let mut results = Vec::new();
        for algorithm in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::Broadcast,
            JoinAlgorithm::IndexedNestedLoop,
        ] {
            let mut m = ExecutionMetrics::new();
            let plan = join_plan(algorithm);
            let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
            assert_eq!(rel.len(), 200, "every order matches exactly one customer");
            let mut rows = rel.into_rows();
            rows.sort();
            results.push(rows);
        }
        // Hash and broadcast produce (orders, customer) column order; INL as well.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn hash_join_charges_shuffle_only_when_needed() {
        let cat = catalog();
        let exec = serial(&cat);
        // orders is partitioned on o_orderkey; joining on o_custkey must shuffle
        // the orders side. customer is partitioned on c_custkey already.
        let mut m = ExecutionMetrics::new();
        exec.execute(&join_plan(JoinAlgorithm::Hash), &mut m)
            .unwrap();
        assert!(m.rows_shuffled > 0);
        assert!(
            m.rows_shuffled <= 200,
            "only the orders side should shuffle"
        );

        // Joining orders to customer on the orders primary key needs no shuffle
        // for the orders side.
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "o_orderkey"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::Hash,
        );
        let mut m2 = ExecutionMetrics::new();
        exec.execute(&plan, &mut m2).unwrap();
        assert!(
            m2.rows_shuffled <= 20,
            "only the small customer side may move"
        );
    }

    #[test]
    fn broadcast_join_charges_replication() {
        let cat = catalog();
        let exec = serial(&cat);
        let mut m = ExecutionMetrics::new();
        exec.execute(&join_plan(JoinAlgorithm::Broadcast), &mut m)
            .unwrap();
        assert_eq!(
            m.rows_broadcast,
            20 * 4,
            "20 customers replicated to 4 partitions"
        );
        assert_eq!(m.rows_shuffled, 0);
    }

    #[test]
    fn inl_join_uses_index_not_scan() {
        let cat = catalog();
        let exec = serial(&cat);
        let mut m = ExecutionMetrics::new();
        let rel = exec
            .execute_to_relation(&join_plan(JoinAlgorithm::IndexedNestedLoop), &mut m)
            .unwrap();
        assert_eq!(rel.len(), 200);
        // The orders table itself is never scanned.
        assert_eq!(
            m.rows_scanned, 20,
            "only the customer build side is scanned"
        );
        assert_eq!(m.index_lookups, 20 * 4);
        assert_eq!(m.index_fetched_rows, 200);
    }

    #[test]
    fn inl_join_requires_index() {
        let cat = catalog();
        let exec = serial(&cat);
        // The indexed side is customer, whose join column c_name has no
        // secondary index.
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("customer"),
            PhysicalPlan::scan("orders"),
            FieldRef::new("customer", "c_name"),
            FieldRef::new("orders", "o_custkey"),
            JoinAlgorithm::IndexedNestedLoop,
        );
        let mut m = ExecutionMetrics::new();
        assert!(exec.execute(&plan, &mut m).is_err());
    }

    #[test]
    fn inl_join_requires_scan_input() {
        let cat = catalog();
        let exec = serial(&cat);
        let inner = join_plan(JoinAlgorithm::Hash);
        let plan = PhysicalPlan::join(
            inner,
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::IndexedNestedLoop,
        );
        let mut m = ExecutionMetrics::new();
        assert!(exec.execute(&plan, &mut m).is_err());
    }

    #[test]
    fn join_with_local_predicate_on_build_side() {
        let cat = catalog();
        let exec = serial(&cat);
        let filtered_customer =
            PhysicalPlan::scan("customer").with_predicates(vec![Predicate::compare(
                FieldRef::new("customer", "c_custkey"),
                CmpOp::Lt,
                5i64,
            )]);
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            filtered_customer,
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::Broadcast,
        );
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 50, "5 customers × 10 orders each");
    }

    #[test]
    fn aliased_scan_joins() {
        let cat = catalog();
        let exec = serial(&cat);
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan_aliased("c2", "customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("c2", "c_custkey"),
            JoinAlgorithm::Hash,
        );
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 200);
        assert!(rel.schema().fields().iter().any(|f| f.name.dataset == "c2"));
    }

    #[test]
    fn join_budget_runs_grace_join_with_identical_results() {
        let reference = {
            let cat = catalog();
            let mut m = ExecutionMetrics::new();
            let rel = serial(&cat)
                .execute_to_relation(&join_plan(JoinAlgorithm::Hash), &mut m)
                .unwrap();
            (rel, m)
        };
        let mut cat = catalog();
        // A 1-byte join budget forces every partition's build side out of core.
        cat.configure_spill(
            rdo_storage::SpillConfig::default()
                .with_join_budget(1)
                .with_page_size(512),
        )
        .unwrap();
        let exec = serial(&cat);
        for algorithm in [JoinAlgorithm::Hash, JoinAlgorithm::Broadcast] {
            let mut m = ExecutionMetrics::new();
            let rel = exec
                .execute_to_relation(&join_plan(algorithm), &mut m)
                .unwrap();
            assert!(
                m.grace_bytes_written > 0
                    && m.grace_pages_read > 0
                    && m.grace_partitions_spilled > 0,
                "{algorithm:?} must go out-of-core: {m:?}"
            );
            if algorithm == JoinAlgorithm::Hash {
                assert_eq!(rel, reference.0, "bit-identical to the in-memory join");
                assert_eq!(m.build_rows, reference.1.build_rows);
                assert_eq!(m.probe_rows, reference.1.probe_rows);
                assert_eq!(m.output_rows, reference.1.output_rows);
                assert_eq!(m.rows_shuffled, reference.1.rows_shuffled);
            }
        }
        // Every grace partition file was dropped with its join.
        let dir = cat.spill_dir().expect("join budget configured");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    /// A join whose input is a spilled intermediate (streamed page by page
    /// into the scan kernel) produces the partitions and logical counters of
    /// the same join over the resident intermediate.
    #[test]
    fn joins_over_spilled_intermediates_match_resident_ones() {
        use rdo_storage::SpillConfig;
        let mut cat = catalog();
        let orders = cat.table("orders").unwrap().gather();
        cat.register_intermediate("resident", orders.clone(), Some("o_orderkey"), &[], false)
            .unwrap();
        cat.configure_spill(SpillConfig::default().with_budget(1).with_page_size(512))
            .unwrap();
        cat.register_intermediate("spilled", orders, Some("o_orderkey"), &[], false)
            .unwrap();
        assert!(cat.table("spilled").unwrap().is_spilled());
        let plan = |table: &str| {
            PhysicalPlan::join(
                PhysicalPlan::scan_aliased("orders", table).with_predicates(vec![
                    Predicate::compare(FieldRef::new("orders", "o_custkey"), CmpOp::Ne, 3i64),
                ]),
                PhysicalPlan::scan("customer"),
                FieldRef::new("orders", "o_custkey"),
                FieldRef::new("customer", "c_custkey"),
                JoinAlgorithm::Hash,
            )
        };
        let exec = serial(&cat);
        let (mut resident_metrics, mut spilled_metrics) =
            (ExecutionMetrics::new(), ExecutionMetrics::new());
        let resident = exec
            .execute(&plan("resident"), &mut resident_metrics)
            .unwrap();
        let spilled = exec
            .execute(&plan("spilled"), &mut spilled_metrics)
            .unwrap();
        assert_eq!(spilled.partitions(), resident.partitions());
        assert_eq!(resident.row_count(), 190);
        assert!(spilled_metrics.spill_pages_read > 1);
        assert_eq!(resident_metrics.spill_pages_read, 0);
        // Clearing the spill-read counters leaves identical metrics.
        spilled_metrics.spill_pages_read = 0;
        spilled_metrics.spill_bytes_read = 0;
        spilled_metrics.spill_logical_bytes_read = 0;
        assert_eq!(spilled_metrics, resident_metrics);
    }

    #[test]
    fn unknown_dataset_errors() {
        let cat = catalog();
        let mut m = ExecutionMetrics::new();
        assert!(serial(&cat)
            .execute(&PhysicalPlan::scan("missing"), &mut m)
            .is_err());
    }

    /// The core guarantee: identical partitions, partition keys and metrics
    /// to the 1-worker run, for every worker count.
    #[test]
    fn matches_serial_executor_exactly() {
        let cat = catalog();
        for plan in plans() {
            let mut serial_metrics = ExecutionMetrics::new();
            let expected = serial(&cat).execute(&plan, &mut serial_metrics).unwrap();
            for workers in [2, 4, 8] {
                let config = ParallelConfig::serial().with_workers(workers);
                let parallel = ParallelExecutor::new(&cat, config);
                let mut metrics = ExecutionMetrics::new();
                let data = parallel.execute(&plan, &mut metrics).unwrap();
                assert_eq!(data.partitions(), expected.partitions());
                assert_eq!(data.partition_key(), expected.partition_key());
                assert_eq!(data.base_table(), expected.base_table());
                assert_eq!(metrics, serial_metrics, "workers={workers}");
            }
        }
    }

    #[test]
    fn gathered_relation_and_result_rows_match_serial() {
        let cat = catalog();
        let parallel = ParallelExecutor::new(&cat, ParallelConfig::serial().with_workers(4));
        for plan in plans() {
            let mut sm = ExecutionMetrics::new();
            let mut pm = ExecutionMetrics::new();
            let expected = serial(&cat).execute_to_relation(&plan, &mut sm).unwrap();
            let actual = parallel.execute_to_relation(&plan, &mut pm).unwrap();
            assert_eq!(actual, expected);
            assert_eq!(pm, sm);
        }
    }

    /// The grace path is worker-count invariant too: with a tiny join budget
    /// every partition's build side spills, and results, partitions and every
    /// metric counter (including the grace counters) still match the 1-worker
    /// run exactly.
    #[test]
    fn grace_join_matches_serial_executor_exactly() {
        let mut cat = catalog();
        cat.configure_spill(
            rdo_storage::SpillConfig::default()
                .with_join_budget(1)
                .with_page_size(512),
        )
        .unwrap();
        for plan in plans() {
            let mut serial_metrics = ExecutionMetrics::new();
            let expected = serial(&cat).execute(&plan, &mut serial_metrics).unwrap();
            for workers in [2, 4, 8] {
                let config = ParallelConfig::serial().with_workers(workers);
                let parallel = ParallelExecutor::new(&cat, config);
                let mut metrics = ExecutionMetrics::new();
                let data = parallel.execute(&plan, &mut metrics).unwrap();
                assert_eq!(data.partitions(), expected.partitions());
                assert_eq!(metrics, serial_metrics, "workers={workers}");
            }
        }
        let dir = cat.spill_dir().expect("join budget configured");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "grace partition files are gone after the joins"
        );
    }

    /// A catalog whose `big_orders` intermediate is spilled (1-byte budget,
    /// small pages, so each partition spans many pages) and whose
    /// `small_orders` holds the same rows resident in memory.
    fn catalog_with_spilled_intermediate() -> Catalog {
        let mut cat = catalog();
        let rows = cat.table("orders").unwrap().gather();
        cat.register_intermediate("small_orders", rows.clone(), Some("o_orderkey"), &[], false)
            .unwrap();
        cat.configure_spill(
            rdo_storage::SpillConfig::default()
                .with_budget(1)
                .with_page_size(512),
        )
        .unwrap();
        let stored = cat
            .register_intermediate("big_orders", rows, Some("o_orderkey"), &[], false)
            .unwrap();
        assert!(stored.spilled && stored.pages_written > 4);
        cat
    }

    fn intermediate_plans(table: &str) -> Vec<PhysicalPlan> {
        let scan = || PhysicalPlan::scan_aliased("orders", table);
        vec![
            scan(),
            scan()
                .with_predicates(vec![Predicate::compare(
                    FieldRef::new("orders", "o_custkey"),
                    CmpOp::Ge,
                    13i64,
                )])
                .with_projection(vec![FieldRef::new("orders", "o_custkey")]),
            PhysicalPlan::join(
                scan(),
                PhysicalPlan::scan("customer"),
                FieldRef::new("orders", "o_custkey"),
                FieldRef::new("customer", "c_custkey"),
                JoinAlgorithm::Hash,
            ),
        ]
    }

    /// Spilled partitions reach the scan kernel page by page; every worker
    /// count still matches the 1-worker run exactly, page reads included.
    #[test]
    fn page_by_page_scans_of_spilled_intermediates_match_serial() {
        let cat = catalog_with_spilled_intermediate();
        for plan in intermediate_plans("big_orders") {
            let mut serial_metrics = ExecutionMetrics::new();
            let expected = serial(&cat).execute(&plan, &mut serial_metrics).unwrap();
            assert!(serial_metrics.spill_pages_read > 4);
            for workers in [2, 4] {
                let config = ParallelConfig::serial().with_workers(workers);
                let mut metrics = ExecutionMetrics::new();
                let data = ParallelExecutor::new(&cat, config)
                    .execute(&plan, &mut metrics)
                    .unwrap();
                assert_eq!(data.partitions(), expected.partitions());
                assert_eq!(data.partition_key(), expected.partition_key());
                assert_eq!(metrics, serial_metrics, "workers={workers}");
            }
        }
    }

    /// Where a table lives changes only the spill counters: a spilled
    /// intermediate yields the same partitions and logical counters as the
    /// same rows held in memory.
    #[test]
    fn spilled_and_resident_intermediates_scan_alike() {
        let cat = catalog_with_spilled_intermediate();
        let parallel = ParallelExecutor::new(&cat, ParallelConfig::serial().with_workers(2));
        for (spilled, resident) in intermediate_plans("big_orders")
            .iter()
            .zip(intermediate_plans("small_orders"))
        {
            let mut spilled_metrics = ExecutionMetrics::new();
            let mut resident_metrics = ExecutionMetrics::new();
            let a = parallel.execute(spilled, &mut spilled_metrics).unwrap();
            let b = parallel.execute(&resident, &mut resident_metrics).unwrap();
            assert_eq!(a.partitions(), b.partitions());
            assert_eq!(resident_metrics.spill_pages_read, 0);
            assert!(spilled_metrics.spill_pages_read > 0);
            assert_eq!(
                spilled_metrics.rows_intermediate_read,
                resident_metrics.rows_intermediate_read
            );
            assert_eq!(
                spilled_metrics.bytes_intermediate_read,
                resident_metrics.bytes_intermediate_read
            );
            assert_eq!(spilled_metrics.output_rows, resident_metrics.output_rows);
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        let cat = catalog();
        let parallel = ParallelExecutor::new(&cat, ParallelConfig::serial().with_workers(4));
        let mut metrics = ExecutionMetrics::new();
        assert!(parallel
            .execute(&PhysicalPlan::scan("missing"), &mut metrics)
            .is_err());
        let bad_join = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "not_a_column"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::Hash,
        );
        assert!(parallel.execute(&bad_join, &mut metrics).is_err());
    }

    /// Every partition task records one `pool.morsel` span covering exactly
    /// one partition, so the trace shape is the same at every worker count.
    #[test]
    fn one_pool_morsel_span_per_partition_at_every_worker_count() {
        let cat = catalog();
        let morsels = |workers: usize| {
            let trace = rdo_trace::TraceHandle::enabled();
            {
                let _installed = trace.install();
                let config = ParallelConfig::serial().with_workers(workers);
                ParallelExecutor::new(&cat, config)
                    .execute(
                        &join_plan(JoinAlgorithm::Hash),
                        &mut ExecutionMetrics::new(),
                    )
                    .unwrap();
            }
            let mut indexes: Vec<u64> = trace
                .spans()
                .iter()
                .filter(|s| s.name == "pool.morsel")
                .map(|s| {
                    let attr = |key: &str| {
                        s.attrs
                            .iter()
                            .find(|(k, _)| k == key)
                            .map(|(_, v)| v.clone())
                    };
                    assert_eq!(attr("partitions"), Some(rdo_trace::AttrValue::U64(1)));
                    match attr("morsel") {
                        Some(rdo_trace::AttrValue::U64(p)) => p,
                        other => panic!("morsel attr missing: {other:?}"),
                    }
                })
                .collect();
            indexes.sort_unstable();
            indexes
        };
        let expected = morsels(1);
        // Two scans and one join over 4 partitions.
        assert_eq!(expected, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        for workers in [2, 4] {
            assert_eq!(morsels(workers), expected, "workers={workers}");
        }
    }
}
