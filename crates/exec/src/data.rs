//! Partitioned intermediate data flowing between operators.

use rdo_common::{Relation, Schema, Tuple, Value};
use rdo_sketch::hll::hash_value;

/// Data produced by an operator, kept partitioned exactly as it would be across
/// the nodes of the shared-nothing cluster.
#[derive(Debug, Clone)]
pub struct PartitionedData {
    schema: Schema,
    partitions: Vec<Vec<Tuple>>,
    /// Column (unqualified name) the data is currently hash-partitioned on, if
    /// any. A subsequent hash join on the same column skips the re-partition
    /// exchange for this input — the "already partitioned on the join key(s)"
    /// case of the paper's hash-join description.
    partition_key: Option<String>,
    /// If the data is exactly a base-table scan with *no* residual predicates or
    /// projection, the table name is recorded here so that an indexed
    /// nested-loop join can use the table's secondary indexes.
    base_table: Option<String>,
}

impl PartitionedData {
    /// Creates partitioned data.
    pub fn new(schema: Schema, partitions: Vec<Vec<Tuple>>, partition_key: Option<String>) -> Self {
        Self {
            schema,
            partitions,
            partition_key,
            base_table: None,
        }
    }

    /// Creates empty data with the given schema and partition count.
    pub fn empty(schema: Schema, num_partitions: usize) -> Self {
        Self::new(schema, vec![Vec::new(); num_partitions.max(1)], None)
    }

    /// Tags the data as an un-filtered, un-projected scan of `table`.
    pub fn with_base_table(mut self, table: impl Into<String>) -> Self {
        self.base_table = Some(table.into());
        self
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Vec<Tuple>] {
        &self.partitions
    }

    /// Mutable access to the partitions.
    pub fn partitions_mut(&mut self) -> &mut [Vec<Tuple>] {
        &mut self.partitions
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Column the data is hash-partitioned on, if any.
    pub fn partition_key(&self) -> Option<&str> {
        self.partition_key.as_deref()
    }

    /// Base table name, if the data is a bare scan of one.
    pub fn base_table(&self) -> Option<&str> {
        self.base_table.as_deref()
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Approximate total bytes.
    pub fn approx_bytes(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|p| p.iter())
            .map(|t| t.approx_bytes())
            .sum()
    }

    /// True if the data is hash-partitioned on `column` (unqualified comparison).
    pub fn is_partitioned_on(&self, column: &str) -> bool {
        let unqualified = rdo_common::unqualified(column);
        self.partition_key.as_deref() == Some(unqualified)
    }

    /// Gathers all partitions into a single relation (result delivery).
    pub fn gather(&self) -> Relation {
        let mut rel = Relation::empty(self.schema.clone());
        for p in &self.partitions {
            for row in p {
                rel.push(row.clone());
            }
        }
        rel
    }

    /// Flattens into a single vector of rows (broadcast build sides).
    pub fn all_rows(&self) -> Vec<Tuple> {
        self.partitions
            .iter()
            .flat_map(|p| p.iter().cloned())
            .collect()
    }
}

/// Partition id of a value for a cluster with `n` partitions.
pub fn partition_for(value: &Value, n: usize) -> usize {
    (hash_value(value) % n.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::DataType;

    fn data(n: i64, partitions: usize) -> PartitionedData {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("g", DataType::Int64)]);
        let mut parts = vec![Vec::new(); partitions];
        for i in 0..n {
            parts[(i % partitions as i64) as usize]
                .push(Tuple::new(vec![Value::Int64(i), Value::Int64(i % 7)]));
        }
        PartitionedData::new(schema, parts, None)
    }

    #[test]
    fn row_count_and_bytes() {
        let d = data(100, 4);
        assert_eq!(d.row_count(), 100);
        assert_eq!(d.num_partitions(), 4);
        assert!(d.approx_bytes() > 0);
        assert_eq!(d.gather().len(), 100);
        assert_eq!(d.all_rows().len(), 100);
    }

    #[test]
    fn base_table_tag() {
        let d = data(10, 2).with_base_table("lineitem");
        assert_eq!(d.base_table(), Some("lineitem"));
        assert_eq!(data(10, 2).base_table(), None);
    }

    #[test]
    fn empty_data() {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
        let d = PartitionedData::empty(schema, 3);
        assert_eq!(d.row_count(), 0);
        assert_eq!(d.num_partitions(), 3);
        assert!(d.partition_key().is_none());
    }

    /// Exchanges route rows with `partition_for` while base tables were laid
    /// out with the storage layer's `partition_of`; co-partitioned joins are
    /// only correct if the two agree.
    #[test]
    fn partition_for_agrees_with_the_storage_layout() {
        let values = [
            Value::Null,
            Value::Int64(-5),
            Value::Date(-5),
            Value::Float64(f64::NAN),
            Value::Float64(-0.0),
            Value::from("Brand#13"),
            Value::Bool(true),
        ];
        for n in [1usize, 2, 3, 8] {
            for v in &values {
                let p = partition_for(v, n);
                assert!(p < n);
                assert_eq!(p, rdo_storage::table::partition_of(v, n), "{v:?} over {n}");
            }
        }
        assert_eq!(
            partition_for(&Value::Int64(9), 0),
            0,
            "zero partitions act as one"
        );
    }

    #[test]
    fn equal_payload_ints_and_dates_route_together() {
        for k in -20..20 {
            for n in [2usize, 5, 16] {
                assert_eq!(
                    partition_for(&Value::Int64(k), n),
                    partition_for(&Value::Date(k), n)
                );
            }
        }
    }
}
