//! Exchange operators: the explicit data movements between partitions.
//!
//! In the paper's Hyracks runtime these are the connectors between operator
//! instances. Here each movement is an explicit operator that runs its
//! per-partition half on the worker pool and reports the rows/bytes it moved,
//! so the cost model's network charges correspond to real, metered exchanges.

use crate::pool::WorkerPool;
use rdo_common::{Relation, Tuple};
use rdo_exec::partition::repartition_partition;
use rdo_exec::PartitionedData;
use std::sync::Arc;

/// Re-shuffles tuples so every row lives in the partition its key hashes to
/// (the exchange in front of each hash-join input that is not already
/// partitioned on its join key).
#[derive(Debug, Clone)]
pub struct HashRepartition {
    /// Index of the key column in the input schema.
    pub key_index: usize,
    /// (Possibly qualified) name of the key column; the output is tagged as
    /// partitioned on its unqualified form.
    pub key_name: String,
}

impl HashRepartition {
    /// Creates the exchange.
    pub fn new(key_index: usize, key_name: impl Into<String>) -> Self {
        Self {
            key_index,
            key_name: key_name.into(),
        }
    }

    /// Runs the exchange: each source partition is bucketed on the pool, then
    /// the buckets are concatenated in source-partition order (making the
    /// output independent of worker interleaving). Returns the re-partitioned
    /// data and the rows/bytes that crossed partitions.
    pub fn apply(&self, data: &PartitionedData, pool: &WorkerPool) -> (PartitionedData, u64, u64) {
        let n = data.num_partitions();
        let bucketed = pool.map_indexed(n, |from| {
            repartition_partition(&data.partitions()[from], self.key_index, from, n)
        });

        let mut new_partitions: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        let mut moved_rows = 0u64;
        let mut moved_bytes = 0u64;
        for (buckets, rows, bytes) in bucketed {
            moved_rows += rows;
            moved_bytes += bytes;
            for (to, mut bucket) in buckets.into_iter().enumerate() {
                new_partitions[to].append(&mut bucket);
            }
        }

        let key_name = rdo_common::unqualified(&self.key_name).to_string();
        (
            PartitionedData::new(data.schema().clone(), new_partitions, Some(key_name)),
            moved_rows,
            moved_bytes,
        )
    }
}

/// Replicates an input to every one of `target_partitions` partitions (the
/// exchange in front of broadcast and indexed nested-loop joins). The rows are
/// shared behind an [`Arc`] — workers probe the same replica instead of each
/// cloning it, while the metrics still charge the full `rows × partitions`
/// replication the real cluster would pay.
#[derive(Debug, Clone, Copy)]
pub struct Broadcast {
    /// Number of partitions the input is replicated to.
    pub target_partitions: usize,
}

impl Broadcast {
    /// Creates the exchange.
    pub fn new(target_partitions: usize) -> Self {
        Self { target_partitions }
    }

    /// Runs the exchange: flattens the input into one shared row vector and
    /// returns it with the replication volume (rows, bytes) charged for
    /// shipping a copy to every target partition.
    pub fn apply(&self, data: &PartitionedData) -> (Arc<Vec<Tuple>>, u64, u64) {
        let rows = data.all_rows();
        let copies = self.target_partitions as u64;
        let replicated_rows = rows.len() as u64 * copies;
        let replicated_bytes = rows.iter().map(|r| r.approx_bytes() as u64).sum::<u64>() * copies;
        (Arc::new(rows), replicated_rows, replicated_bytes)
    }
}

/// Collects every partition on the coordinator, in partition order — result
/// delivery to the user (and the input to the Sink's table build).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gather;

impl Gather {
    /// Runs the exchange.
    pub fn apply(&self, data: &PartitionedData) -> Relation {
        data.gather()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Schema, Value};
    use rdo_exec::data::partition_for;

    fn data(n: i64, partitions: usize) -> PartitionedData {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("g", DataType::Int64)]);
        let mut parts = vec![Vec::new(); partitions];
        for i in 0..n {
            parts[(i % partitions as i64) as usize]
                .push(Tuple::new(vec![Value::Int64(i), Value::Int64(i % 7)]));
        }
        PartitionedData::new(schema, parts, None)
    }

    /// Routes every row of `input` to `partition_for(key)`, source partitions
    /// in order: the naive reference for [`HashRepartition`]. Returns the
    /// partitions and the rows/bytes whose target differs from their source.
    fn naive_route(input: &PartitionedData, key_index: usize) -> (Vec<Vec<Tuple>>, u64, u64) {
        let n = input.num_partitions();
        let mut out = vec![Vec::new(); n];
        let (mut moved_rows, mut moved_bytes) = (0, 0);
        for (from, rows) in input.partitions().iter().enumerate() {
            for row in rows {
                let to = partition_for(row.value(key_index), n);
                if to != from {
                    moved_rows += 1;
                    moved_bytes += row.approx_bytes() as u64;
                }
                out[to].push(row.clone());
            }
        }
        (out, moved_rows, moved_bytes)
    }

    fn repartition(
        input: &PartitionedData,
        key_index: usize,
        key: &str,
    ) -> (PartitionedData, u64, u64) {
        HashRepartition::new(key_index, key).apply(input, &WorkerPool::new(1))
    }

    #[test]
    fn hash_repartition_matches_serial_repartition_for_any_worker_count() {
        let input = data(500, 8);
        let (expected, expected_rows, expected_bytes) = repartition(&input, 1, "t.g");
        let (routed, routed_rows, routed_bytes) = naive_route(&input, 1);
        assert_eq!(expected.partitions(), routed.as_slice());
        assert_eq!((expected_rows, expected_bytes), (routed_rows, routed_bytes));
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let (out, rows, bytes) = HashRepartition::new(1, "t.g").apply(&input, &pool);
            assert_eq!(out.partitions(), expected.partitions(), "workers={workers}");
            assert_eq!(rows, expected_rows);
            assert_eq!(bytes, expected_bytes);
            assert!(out.is_partitioned_on("g"));
            for (p, rows) in out.partitions().iter().enumerate() {
                for row in rows {
                    assert_eq!(partition_for(row.value(1), 8), p);
                }
            }
        }
    }

    /// Awkward keys (NULLs, equal-payload `Int64`/`Date`, NaN and both
    /// zeros, strings), empty partitions and a single partition all route
    /// exactly as the naive router does, at every worker count.
    #[test]
    fn hash_repartition_matches_the_naive_router_on_edge_values() {
        let keys = [
            Value::Null,
            Value::Int64(5),
            Value::Date(5),
            Value::Float64(f64::NAN),
            Value::Float64(-0.0),
            Value::Float64(0.0),
            Value::from("Brand#13"),
            Value::from(""),
        ];
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("i", DataType::Int64)]);
        for partitions in [1usize, 2, 3, 5] {
            for len in [0usize, 1, 7, 40] {
                // Rows sit in the first partition only, so the others start
                // empty.
                let mut parts = vec![Vec::new(); partitions];
                parts[0] = (0..len)
                    .map(|i| Tuple::new(vec![keys[i % keys.len()].clone(), Value::Int64(i as i64)]))
                    .collect();
                let input = PartitionedData::new(schema.clone(), parts, None);
                let (routed, routed_rows, routed_bytes) = naive_route(&input, 0);
                for workers in [1, 2, 4] {
                    let (out, rows, bytes) =
                        HashRepartition::new(0, "t.k").apply(&input, &WorkerPool::new(workers));
                    let at = format!("partitions={partitions} len={len} workers={workers}");
                    assert_eq!(
                        format!("{:?}", out.partitions()),
                        format!("{routed:?}"),
                        "{at}"
                    );
                    assert_eq!((rows, bytes), (routed_rows, routed_bytes), "{at}");
                    assert_eq!(out.partition_key(), Some("k"), "{at}");
                }
            }
        }
    }

    #[test]
    fn repartition_moves_rows_to_hash_partition() {
        let d = data(1000, 8);
        let (r, moved_rows, moved_bytes) = repartition(&d, 1, "t.g");
        assert_eq!(r.row_count(), 1000);
        assert!(r.is_partitioned_on("g"));
        assert!(r.is_partitioned_on("t.g"));
        assert!(moved_rows > 0 && moved_rows <= 1000);
        assert!(moved_bytes > 0);
        // Every row must be in the partition its key hashes to.
        for (p, rows) in r.partitions().iter().enumerate() {
            for row in rows {
                assert_eq!(partition_for(row.value(1), 8), p);
            }
        }
    }

    #[test]
    fn repartition_on_same_key_moves_nothing_second_time() {
        let d = data(500, 4);
        let (once, _, _) = repartition(&d, 0, "k");
        let (_twice, moved, _) = repartition(&once, 0, "k");
        assert_eq!(moved, 0, "already partitioned data should not move");
    }

    #[test]
    fn gather_and_all_rows_keep_partition_order() {
        let d = data(20, 3);
        let expected: Vec<Tuple> = d.partitions().iter().flatten().cloned().collect();
        assert_eq!(d.all_rows(), expected);
        assert_eq!(d.gather().into_rows(), expected);
        let (r, _, _) = repartition(&d, 1, "g");
        let mut before = d.all_rows();
        let mut after = r.all_rows();
        before.sort();
        after.sort();
        assert_eq!(before, after, "repartitioning only moves rows");
        assert_eq!(r.partition_key(), Some("g"));
    }

    #[test]
    fn broadcast_charges_replication_volume() {
        let input = data(30, 3);
        let (rows, replicated_rows, replicated_bytes) = Broadcast::new(4).apply(&input);
        assert_eq!(rows.len(), 30);
        assert_eq!(replicated_rows, 30 * 4);
        assert!(replicated_bytes > 0);
        // Shared, not copied: clones of the Arc point at the same rows.
        let other = Arc::clone(&rows);
        assert!(Arc::ptr_eq(&rows, &other));
    }

    #[test]
    fn gather_flattens_in_partition_order() {
        let input = data(10, 2);
        let relation = Gather.apply(&input);
        assert_eq!(relation.len(), 10);
        assert_eq!(relation, input.gather());
    }
}
