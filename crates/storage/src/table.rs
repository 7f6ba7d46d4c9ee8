//! Hash-partitioned tables: memory-resident or spilled to the paged disk
//! store of `rdo-spill`.

use rdo_common::{unqualified, FieldRef, RdoError, Relation, Result, Schema, Tuple, Value};
use rdo_sketch::hll::hash_value;
use rdo_spill::{SpillManager, SpillReadTally, SpillWriteTally, SpilledPartitions};
use std::sync::Arc;

/// Where a table's partitions live.
///
/// Base datasets are always [`Backing::Memory`] (the paper keeps them in the
/// LSM storage of the cluster nodes; the secondary indexes and the indexed
/// nested-loop join borrow their row slices). Materialized intermediates are
/// [`Backing::Memory`] too, unless the catalog's spill policy decides the
/// working set exceeds the memory budget and makes them
/// [`Backing::Spilled`].
#[derive(Debug, Clone)]
enum Backing {
    Memory(Vec<Vec<Tuple>>),
    Spilled(Arc<SpilledPartitions>),
}

/// A dataset hash-partitioned across the simulated cluster nodes.
///
/// Partitioning follows AsterixDB: base datasets are hash-partitioned on their
/// primary key; intermediate results are partitioned on the join key that
/// produced them, which lets a later join on the same key skip the re-partition
/// exchange (and its network cost).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    backing: Backing,
    num_partitions: usize,
    /// Column (unqualified name) on which the table is hash-partitioned, if any.
    partition_key: Option<String>,
    /// True for materialized intermediate results (the paper's temporary files).
    temporary: bool,
}

impl Table {
    /// Builds a table by hash-partitioning `relation` on `partition_key` into
    /// `num_partitions` partitions. With no partition key rows are distributed
    /// round-robin (AsterixDB's behaviour for external data without a key).
    pub fn from_relation(
        name: impl Into<String>,
        relation: Relation,
        num_partitions: usize,
        partition_key: Option<&str>,
    ) -> Result<Self> {
        let name = name.into();
        let num_partitions = num_partitions.max(1);
        let schema = relation.schema().clone();
        let key_index = match partition_key {
            Some(key) => Some(resolve_key(&schema, key)?),
            None => None,
        };
        let mut partitions = vec![Vec::new(); num_partitions];
        for (i, row) in relation.into_rows().into_iter().enumerate() {
            let p = match key_index {
                Some(idx) => partition_of(row.value(idx), num_partitions),
                None => i % num_partitions,
            };
            partitions[p].push(row);
        }
        Ok(Self {
            name,
            schema,
            backing: Backing::Memory(partitions),
            num_partitions,
            partition_key: partition_key.map(|k| unqualified(k).to_string()),
            temporary: false,
        })
    }

    /// Builds a table directly from already-partitioned data, skipping the
    /// gather-and-rehash of [`Table::from_relation`]. The caller guarantees
    /// the rows are hash-partitioned on `partition_key` (the parallel Sink
    /// uses this when the materialized data's partitioning already matches).
    pub fn from_partitions(
        name: impl Into<String>,
        schema: Schema,
        partitions: Vec<Vec<Tuple>>,
        partition_key: Option<&str>,
    ) -> Result<Self> {
        if partitions.is_empty() {
            return Err(RdoError::Execution(
                "a table needs at least one partition".to_string(),
            ));
        }
        if let Some(key) = partition_key {
            // The key must exist in the schema, same as from_relation.
            resolve_key(&schema, key)?;
        }
        let num_partitions = partitions.len();
        Ok(Self {
            name: name.into(),
            schema,
            backing: Backing::Memory(partitions),
            num_partitions,
            partition_key: partition_key.map(|k| unqualified(k).to_string()),
            temporary: false,
        })
    }

    /// Marks the table as a temporary (intermediate) result.
    pub fn into_temporary(mut self) -> Self {
        self.temporary = true;
        self
    }

    /// Moves a memory-backed table into the paged disk store of `manager`,
    /// returning the spilled table and the logical page-write volume. A table
    /// that is already spilled is returned unchanged with a zero tally.
    pub fn into_spilled(self, manager: &Arc<SpillManager>) -> Result<(Self, SpillWriteTally)> {
        let (store, tally) = match self.backing {
            Backing::Memory(ref partitions) => {
                SpilledPartitions::write(Arc::clone(manager), partitions)?
            }
            Backing::Spilled(_) => return Ok((self, SpillWriteTally::default())),
        };
        Ok((
            Self {
                backing: Backing::Spilled(Arc::new(store)),
                ..self
            },
            tally,
        ))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// True if the partitions live in the paged disk store.
    pub fn is_spilled(&self) -> bool {
        matches!(self.backing, Backing::Spilled(_))
    }

    /// Rows of one partition of a **memory-backed** table.
    ///
    /// # Panics
    /// Panics for spilled tables, whose partitions have no borrowable row
    /// slice — use [`Table::scan_pages`] (streaming) or
    /// [`Table::partition_to_vec`] instead. Only base datasets are required to
    /// be memory-backed (secondary indexes and the indexed nested-loop join
    /// rely on this accessor).
    pub fn partition(&self, index: usize) -> &[Tuple] {
        match &self.backing {
            Backing::Memory(partitions) => &partitions[index],
            Backing::Spilled(_) => {
                panic!(
                    "table `{}` is spilled; stream it with scan_pages",
                    self.name
                )
            }
        }
    }

    /// All partitions of a **memory-backed** table.
    ///
    /// # Panics
    /// Panics for spilled tables (see [`Table::partition`]).
    pub fn partitions(&self) -> &[Vec<Tuple>] {
        match &self.backing {
            Backing::Memory(partitions) => partitions,
            Backing::Spilled(_) => {
                panic!(
                    "table `{}` is spilled; stream it with scan_pages",
                    self.name
                )
            }
        }
    }

    /// Streams partition `index` through `f` in storage order, one page of
    /// rows at a time. Memory-backed tables deliver the whole partition as a
    /// single page and report a zero read tally; spilled tables fetch pages
    /// through the buffer pool and report the logical pages/bytes fetched.
    /// `f` returns whether to keep going (early stop charges only what was
    /// read).
    ///
    /// ```
    /// use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    /// use rdo_storage::{SpillConfig, SpillManager, Table};
    ///
    /// let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
    /// let rows = (0..500).map(|i| Tuple::new(vec![Value::Int64(i)])).collect();
    /// let table = Table::from_relation("t", Relation::new(schema, rows).unwrap(), 1, None)
    ///     .unwrap()
    ///     .into_temporary();
    /// let manager =
    ///     SpillManager::create(SpillConfig::default().with_budget(1).with_page_size(512)).unwrap();
    /// let (spilled, written) = table.into_spilled(&manager).unwrap();
    /// let mut pages = 0;
    /// let mut seen = 0;
    /// let read = spilled
    ///     .scan_pages(0, |rows| {
    ///         pages += 1;
    ///         seen += rows.len();
    ///         Ok(true)
    ///     })
    ///     .unwrap();
    /// assert_eq!(seen, 500);
    /// assert_eq!(pages, written.pages);
    /// assert_eq!(read.pages, written.pages);
    /// ```
    pub fn scan_pages<F>(&self, index: usize, mut f: F) -> Result<SpillReadTally>
    where
        F: FnMut(&[Tuple]) -> Result<bool>,
    {
        match &self.backing {
            Backing::Memory(partitions) => {
                f(&partitions[index])?;
                Ok(SpillReadTally::default())
            }
            Backing::Spilled(store) => store.scan_pages(index, f),
        }
    }

    /// Materializes one partition into an owned vector (works for every
    /// backing; prefer [`Table::scan_pages`] on hot paths).
    pub fn partition_to_vec(&self, index: usize) -> Result<Vec<Tuple>> {
        match &self.backing {
            Backing::Memory(partitions) => Ok(partitions[index].clone()),
            Backing::Spilled(store) => store.read_partition(index),
        }
    }

    /// Number of rows in one partition.
    pub fn partition_len(&self, index: usize) -> usize {
        match &self.backing {
            Backing::Memory(partitions) => partitions[index].len(),
            Backing::Spilled(store) => store.partition_rows(index),
        }
    }

    /// The column on which the table is hash-partitioned, if any.
    pub fn partition_key(&self) -> Option<&str> {
        self.partition_key.as_deref()
    }

    /// True if this is a materialized intermediate result.
    pub fn is_temporary(&self) -> bool {
        self.temporary
    }

    /// Total number of rows across partitions.
    pub fn row_count(&self) -> usize {
        match &self.backing {
            Backing::Memory(partitions) => partitions.iter().map(|p| p.len()).sum(),
            Backing::Spilled(store) => store.row_count(),
        }
    }

    /// Approximate total size in bytes (tuple-model accounting, identical for
    /// both backings so cost inputs never depend on where the table lives).
    pub fn approx_bytes(&self) -> usize {
        match &self.backing {
            Backing::Memory(partitions) => partitions
                .iter()
                .flat_map(|p| p.iter())
                .map(|t| t.approx_bytes())
                .sum(),
            Backing::Spilled(store) => store.approx_bytes(),
        }
    }

    /// Exact serialized bytes on disk (zero for memory-resident tables).
    pub fn spilled_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Memory(_) => 0,
            Backing::Spilled(store) => store.serialized_bytes(),
        }
    }

    /// Materializes all partitions back into a single relation, surfacing
    /// spill-read errors (a spilled table's pages live on disk and the read
    /// can fail). Memory-backed tables are infallible.
    pub fn try_gather(&self) -> Result<Relation> {
        let mut rel = Relation::empty(self.schema.clone());
        for p in 0..self.num_partitions {
            self.scan_pages(p, |rows| {
                for row in rows {
                    rel.push(row.clone());
                }
                Ok(true)
            })?;
        }
        Ok(rel)
    }

    /// Materializes all partitions back into a single relation (coordinator-side
    /// gather; used by result delivery and tests).
    ///
    /// # Panics
    /// Panics if a spilled table's pages cannot be read back; spill-capable
    /// call sites should prefer [`Table::try_gather`].
    pub fn gather(&self) -> Relation {
        self.try_gather()
            .expect("gather of a spilled table failed; use try_gather to handle the error")
    }

    /// True if the table is hash-partitioned on the given (possibly qualified)
    /// column, meaning a join on that column needs no re-partitioning of this
    /// side.
    pub fn is_partitioned_on(&self, column: &str) -> bool {
        match &self.partition_key {
            Some(key) => key == unqualified(column),
            None => false,
        }
    }
}

/// Maps a value to a partition id.
pub fn partition_of(value: &Value, num_partitions: usize) -> usize {
    (hash_value(value) % num_partitions as u64) as usize
}

fn resolve_key(schema: &Schema, key: &str) -> Result<usize> {
    if let Ok(field) = FieldRef::parse(key) {
        if let Ok(idx) = schema.resolve(&field) {
            return Ok(idx);
        }
    }
    schema
        .index_of_unqualified(unqualified(key))
        .map_err(|_| RdoError::UnknownField(key.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::DataType;
    use rdo_spill::SpillConfig;

    fn relation(n: i64) -> Relation {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("v", DataType::Utf8)]);
        let rows = (0..n)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Utf8(format!("row{i}"))]))
            .collect();
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn partitioning_preserves_all_rows() {
        let t = Table::from_relation("t", relation(1000), 8, Some("k")).unwrap();
        assert_eq!(t.num_partitions(), 8);
        assert_eq!(t.row_count(), 1000);
        assert_eq!(t.gather().len(), 1000);
    }

    #[test]
    fn same_key_lands_in_same_partition() {
        let t = Table::from_relation("t", relation(500), 4, Some("k")).unwrap();
        // Re-derive each row's partition and check it matches its location.
        for (p, rows) in t.partitions().iter().enumerate() {
            for row in rows {
                assert_eq!(partition_of(row.value(0), 4), p);
            }
        }
    }

    #[test]
    fn round_robin_without_key() {
        let t = Table::from_relation("t", relation(100), 4, None).unwrap();
        assert!(t.partition_key().is_none());
        let sizes: Vec<usize> = t.partitions().iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![25, 25, 25, 25]);
    }

    #[test]
    fn partition_balance_is_reasonable() {
        let t = Table::from_relation("t", relation(10_000), 10, Some("k")).unwrap();
        let sizes: Vec<usize> = t.partitions().iter().map(|p| p.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min > 700 && max < 1300, "unbalanced partitions: {sizes:?}");
    }

    #[test]
    fn qualified_partition_key_accepted() {
        let t = Table::from_relation("t", relation(10), 2, Some("t.k")).unwrap();
        assert!(t.is_partitioned_on("k"));
        assert!(t.is_partitioned_on("t.k"));
        assert!(!t.is_partitioned_on("v"));
    }

    #[test]
    fn unknown_partition_key_errors() {
        assert!(Table::from_relation("t", relation(10), 2, Some("missing")).is_err());
    }

    #[test]
    fn single_partition_cluster() {
        let t = Table::from_relation("t", relation(10), 0, Some("k")).unwrap();
        assert_eq!(t.num_partitions(), 1);
        assert_eq!(t.partition(0).len(), 10);
    }

    #[test]
    fn temporary_flag() {
        let t = Table::from_relation("t", relation(1), 1, None).unwrap();
        assert!(!t.is_temporary());
        assert!(t.into_temporary().is_temporary());
    }

    #[test]
    fn approx_bytes_positive() {
        let t = Table::from_relation("t", relation(10), 2, Some("k")).unwrap();
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn from_partitions_reuses_layout_verbatim() {
        let source = Table::from_relation("t", relation(200), 4, Some("k")).unwrap();
        let cloned: Vec<Vec<Tuple>> = source.partitions().to_vec();
        let direct =
            Table::from_partitions("t2", source.schema().clone(), cloned, Some("k")).unwrap();
        assert_eq!(direct.num_partitions(), 4);
        assert_eq!(direct.partitions(), source.partitions());
        assert!(direct.is_partitioned_on("k"));
        assert!(Table::from_partitions(
            "bad",
            source.schema().clone(),
            vec![Vec::new()],
            Some("missing")
        )
        .is_err());
        assert!(
            Table::from_partitions("empty", source.schema().clone(), Vec::new(), None).is_err()
        );
    }

    #[test]
    fn spilled_table_is_equivalent_to_memory_table() {
        let manager =
            SpillManager::create(SpillConfig::default().with_budget(1).with_page_size(512))
                .unwrap();
        let memory = Table::from_relation("t", relation(777), 4, Some("k"))
            .unwrap()
            .into_temporary();
        let expected_gather = memory.gather();
        let expected_parts: Vec<Vec<Tuple>> = memory.partitions().to_vec();
        let approx = memory.approx_bytes();

        let (spilled, tally) = memory.into_spilled(&manager).unwrap();
        assert!(spilled.is_spilled());
        assert!(tally.pages > 0 && tally.bytes > 0);
        assert_eq!(spilled.spilled_bytes(), tally.bytes);
        assert_eq!(spilled.row_count(), 777);
        assert_eq!(spilled.approx_bytes(), approx);
        assert!(spilled.is_temporary() && spilled.is_partitioned_on("k"));
        assert_eq!(spilled.gather(), expected_gather);
        for (p, expected) in expected_parts.iter().enumerate() {
            assert_eq!(&spilled.partition_to_vec(p).unwrap(), expected);
            assert_eq!(spilled.partition_len(p), expected.len());
            let mut streamed = Vec::new();
            let read = spilled
                .scan_pages(p, |rows| {
                    streamed.extend_from_slice(rows);
                    Ok(true)
                })
                .unwrap();
            assert_eq!(&streamed, expected);
            assert!(read.pages > 0 || expected.is_empty());
        }
        // Spilling an already-spilled table is a no-op.
        let (again, zero) = spilled.into_spilled(&manager).unwrap();
        assert!(again.is_spilled());
        assert_eq!(zero, SpillWriteTally::default());
    }

    #[test]
    #[should_panic(expected = "spilled")]
    fn borrowing_partitions_of_a_spilled_table_panics() {
        let manager = SpillManager::create(SpillConfig::default().with_budget(1)).unwrap();
        let (spilled, _) = Table::from_relation("t", relation(10), 2, Some("k"))
            .unwrap()
            .into_spilled(&manager)
            .unwrap();
        let _ = spilled.partitions();
    }

    #[test]
    fn memory_scan_pages_reports_zero_tally() {
        let t = Table::from_relation("t", relation(30), 2, Some("k")).unwrap();
        let mut seen = 0usize;
        let tally = t
            .scan_pages(0, |rows| {
                seen += rows.len();
                Ok(true)
            })
            .unwrap();
        assert_eq!(seen, t.partition_len(0));
        assert_eq!(tally, SpillReadTally::default());
        assert_eq!(t.spilled_bytes(), 0);
    }

    #[test]
    fn memory_scan_pages_hands_over_each_partition_as_one_page() {
        let schema = relation(0).schema().clone();
        let parts = vec![relation(5).into_rows(), Vec::new(), relation(2).into_rows()];
        let t = Table::from_partitions("t", schema, parts.clone(), None).unwrap();
        for (p, expected) in parts.iter().enumerate() {
            let mut pages: Vec<Vec<Tuple>> = Vec::new();
            t.scan_pages(p, |rows| {
                pages.push(rows.to_vec());
                Ok(true)
            })
            .unwrap();
            assert_eq!(pages, vec![expected.clone()], "partition {p}");
            assert_eq!(t.partition_to_vec(p).unwrap(), *expected);
        }
    }

    #[test]
    fn spilled_scan_pages_stop_when_the_callback_says_so() {
        let manager =
            SpillManager::create(SpillConfig::default().with_budget(1).with_page_size(512))
                .unwrap();
        let (spilled, write) = Table::from_relation("t", relation(400), 1, None)
            .unwrap()
            .into_spilled(&manager)
            .unwrap();
        assert!(write.pages > 2);
        let mut seen = 0usize;
        let read = spilled
            .scan_pages(0, |rows| {
                seen += rows.len();
                Ok(seen < 50)
            })
            .unwrap();
        assert!((50..400).contains(&seen), "stopped early after {seen} rows");
        assert!(read.pages < write.pages);
        let mut first_page = None;
        spilled
            .scan_pages(0, |rows| {
                first_page = Some(rows.to_vec());
                Ok(false)
            })
            .unwrap();
        let first_page = first_page.unwrap();
        assert_eq!(first_page[..], relation(400).rows()[..first_page.len()]);
    }

    #[test]
    fn spilled_tables_keep_awkward_values_bit_exact() {
        let schema = Schema::for_dataset(
            "t",
            &[
                ("k", DataType::Int64),
                ("f", DataType::Float64),
                ("d", DataType::Date),
            ],
        );
        let rows: Vec<Tuple> = (0..120)
            .map(|i| {
                Tuple::new(vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i % 10)
                    },
                    match i % 3 {
                        0 => Value::Float64(f64::NAN),
                        1 => Value::Float64(-0.0),
                        _ => Value::Float64(0.0),
                    },
                    Value::Date(i % 10),
                ])
            })
            .collect();
        let memory =
            Table::from_relation("t", Relation::new(schema, rows).unwrap(), 3, Some("k")).unwrap();
        let manager = SpillManager::create(SpillConfig::default().with_budget(1)).unwrap();
        let expected = format!("{:?}", memory.gather().rows());
        let (spilled, _) = memory.into_spilled(&manager).unwrap();
        assert_eq!(
            format!("{:?}", spilled.try_gather().unwrap().rows()),
            expected
        );
    }
}
