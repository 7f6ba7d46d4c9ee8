//! Per-partition operator kernels, row at a time.
//!
//! Every physical operator of the engine decomposes into work that runs
//! independently on one partition: filter/project a partition's rows, bucket a
//! partition's rows for a re-partition exchange, build-and-probe one
//! partition's hash table, probe one partition of a secondary index. The
//! partition-parallel executor (`rdo-parallel`) maps these kernels across a
//! worker pool, one task per partition. A partition's output depends only on
//! its own input, which is what makes every worker count bit-identical:
//! parallelism only changes *who* runs a partition, never what the partition
//! computes.
//!
//! The kernels work directly on [`Tuple`] rows, the one row format of the
//! engine: base tables and resident intermediates hold rows, spill pages and
//! wire frames carry the row codec, so no operator converts its input or its
//! output.
//!
//! Each kernel returns its output plus a tally of the counters it would
//! contribute to [`crate::ExecutionMetrics`]; tallies are summed in partition
//! order, which makes the merged metrics independent of worker interleaving.

use crate::data::partition_for;
use crate::expr::{evaluate_all, Predicate};
use rdo_common::{Result, Schema, Tuple, Value};
use rdo_storage::SecondaryIndex;
use std::collections::HashMap;

/// Counters produced by scanning one partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTally {
    /// Rows read from the partition.
    pub scanned_rows: u64,
    /// Bytes read from the partition.
    pub scanned_bytes: u64,
    /// Rows surviving the predicates.
    pub kept: u64,
}

impl ScanTally {
    /// Adds another tally into this one (partition-order fold).
    pub fn add(&mut self, other: &ScanTally) {
        self.scanned_rows += other.scanned_rows;
        self.scanned_bytes += other.scanned_bytes;
        self.kept += other.kept;
    }
}

/// Filters and projects the rows of one partition. Counts every input
/// row/byte and keeps survivors in input order.
///
/// Each predicate resolves its column once, on its first evaluation, rather
/// than once per row; a predicate that no row reaches is never resolved,
/// exactly as with per-row [`evaluate_all`].
///
/// ```
/// use rdo_common::{DataType, FieldRef, Schema, Tuple, Value};
/// use rdo_exec::partition::scan_partition;
/// use rdo_exec::{CmpOp, Predicate};
///
/// let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("s", DataType::Utf8)]);
/// let rows: Vec<Tuple> = (0..4)
///     .map(|i| Tuple::new(vec![Value::Int64(i), Value::from(format!("r{i}"))]))
///     .collect();
/// let odd = Predicate::udf("odd", FieldRef::new("t", "k"), |v| {
///     v.as_i64().is_some_and(|k| k % 2 == 1)
/// });
/// let at_most_two = Predicate::compare(FieldRef::new("t", "k"), CmpOp::Le, 2i64);
/// let (out, tally) = scan_partition(&schema, &[odd, at_most_two], Some(&[1]), &rows).unwrap();
/// assert_eq!(out, vec![Tuple::new(vec![Value::from("r1")])]);
/// assert_eq!((tally.scanned_rows, tally.kept), (4, 1));
/// ```
pub fn scan_partition(
    schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
    rows: &[Tuple],
) -> Result<(Vec<Tuple>, ScanTally)> {
    let mut out = Vec::new();
    let mut tally = ScanTally::default();
    let mut columns: Vec<Option<usize>> = vec![None; predicates.len()];
    'rows: for row in rows {
        tally.scanned_rows += 1;
        tally.scanned_bytes += row.approx_bytes() as u64;
        for (predicate, column) in predicates.iter().zip(columns.iter_mut()) {
            let index = match *column {
                Some(index) => index,
                None => *column.insert(predicate.column(schema)?),
            };
            if !predicate.matches(row.value(index)) {
                continue 'rows;
            }
        }
        out.push(match projection {
            Some(indexes) => row.project(indexes),
            None => row.clone(),
        });
        tally.kept += 1;
    }
    Ok((out, tally))
}

/// Extracts a composite join key, treating any NULL component as "no key"
/// (SQL equi-join semantics: NULL never matches).
///
/// ```
/// use rdo_common::{Tuple, Value};
/// use rdo_exec::partition::composite_key;
///
/// let row = Tuple::new(vec![Value::Int64(1), Value::Null, Value::from("x")]);
/// assert_eq!(composite_key(&row, &[2, 0]), Some(vec![Value::from("x"), Value::Int64(1)]));
/// assert_eq!(composite_key(&row, &[0, 1]), None);
/// ```
pub fn composite_key(row: &Tuple, indexes: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(indexes.len());
    for &i in indexes {
        let v = row.value(i);
        if v.is_null() {
            return None;
        }
        key.push(v.clone());
    }
    Some(key)
}

/// Counters produced by one partition of a hash/broadcast join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinTally {
    /// Rows inserted into the build table.
    pub build_rows: u64,
    /// Rows probed against the build table.
    pub probe_rows: u64,
    /// Join output rows.
    pub output_rows: u64,
}

impl JoinTally {
    /// Adds another tally into this one (partition-order fold).
    pub fn add(&mut self, other: &JoinTally) {
        self.build_rows += other.build_rows;
        self.probe_rows += other.probe_rows;
        self.output_rows += other.output_rows;
    }
}

/// Builds a hash table over `build_rows` and probes it with `probe_rows`,
/// emitting `probe ++ build` rows in probe order (matches of one probe row in
/// build insertion order). Used per partition by the hash join (with
/// co-partitioned inputs) and by the broadcast join (with the replicated build
/// side). Every build row counts towards `build_rows`, NULL-keyed ones
/// included, though they never enter the table.
///
/// ```
/// use rdo_common::{Tuple, Value};
/// use rdo_exec::partition::hash_join_partition;
///
/// let row = |k: Value, tag: &str| Tuple::new(vec![k, Value::from(tag)]);
/// let probe = vec![row(Value::Int64(1), "p1"), row(Value::Null, "p2")];
/// let build = vec![row(Value::Date(1), "b1"), row(Value::Int64(1), "b2"), row(Value::Null, "b3")];
/// let (out, tally) = hash_join_partition(&probe, &build, &[0], &[0]);
/// // `Int64(1)` and `Date(1)` are one key; NULL keys never match.
/// assert_eq!(out, vec![probe[0].concat(&build[0]), probe[0].concat(&build[1])]);
/// assert_eq!((tally.build_rows, tally.probe_rows, tally.output_rows), (3, 2, 2));
/// ```
pub fn hash_join_partition(
    probe_rows: &[Tuple],
    build_rows: &[Tuple],
    probe_key_indexes: &[usize],
    build_key_indexes: &[usize],
) -> (Vec<Tuple>, JoinTally) {
    let mut tally = JoinTally::default();
    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::with_capacity(build_rows.len());
    for row in build_rows {
        tally.build_rows += 1;
        if let Some(key) = composite_key(row, build_key_indexes) {
            table.entry(key).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for row in probe_rows {
        tally.probe_rows += 1;
        let Some(key) = composite_key(row, probe_key_indexes) else {
            continue;
        };
        if let Some(matches) = table.get(&key) {
            for m in matches {
                out.push(row.concat(m));
                tally.output_rows += 1;
            }
        }
    }
    (out, tally)
}

/// Counters produced by one partition of an indexed nested-loop join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexJoinTally {
    /// Secondary-index lookups performed.
    pub index_lookups: u64,
    /// Rows fetched through the index.
    pub index_fetched_rows: u64,
    /// Join output rows.
    pub output_rows: u64,
}

impl IndexJoinTally {
    /// Adds another tally into this one (partition-order fold).
    pub fn add(&mut self, other: &IndexJoinTally) {
        self.index_lookups += other.index_lookups;
        self.index_fetched_rows += other.index_fetched_rows;
        self.output_rows += other.output_rows;
    }
}

/// Probes one partition of a secondary index with the broadcast build rows,
/// emitting `indexed ++ probe` rows. `base_rows` is the indexed table's
/// partition; residual key pairs beyond the indexed one and the scan's local
/// predicates are checked after each index fetch.
#[allow(clippy::too_many_arguments)]
pub fn indexed_join_partition(
    broadcast_rows: &[Tuple],
    index: &SecondaryIndex,
    partition: usize,
    base_rows: &[Tuple],
    left_schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
    left_key_indexes: &[usize],
    right_key_indexes: &[usize],
    first_right_key_index: usize,
) -> Result<(Vec<Tuple>, IndexJoinTally)> {
    let mut tally = IndexJoinTally::default();
    let mut out = Vec::new();
    for probe_row in broadcast_rows {
        tally.index_lookups += 1;
        let key = probe_row.value(first_right_key_index);
        for &offset in index.probe(partition, key) {
            tally.index_fetched_rows += 1;
            let base_row = &base_rows[offset];
            let all_keys_match = left_key_indexes
                .iter()
                .zip(right_key_indexes)
                .skip(1)
                .all(|(&li, &ri)| base_row.value(li) == probe_row.value(ri));
            if !all_keys_match {
                continue;
            }
            if !evaluate_all(predicates, left_schema, base_row)? {
                continue;
            }
            let left_row = match projection {
                Some(indexes) => base_row.project(indexes),
                None => base_row.clone(),
            };
            out.push(left_row.concat(probe_row));
            tally.output_rows += 1;
        }
    }
    Ok((out, tally))
}

/// Buckets one source partition's rows by the hash of the key column — the
/// per-partition half of a `HashRepartition` exchange. Returns the buckets
/// (indexed by destination partition, rows in input order) and the rows/bytes
/// that left partition `from` (the shuffle volume the cost model charges
/// for). The exchange concatenates buckets in source-partition order, so the
/// result is deterministic no matter which worker ran which source partition.
///
/// ```
/// use rdo_common::{Tuple, Value};
/// use rdo_exec::data::partition_for;
/// use rdo_exec::partition::repartition_partition;
///
/// let rows: Vec<Tuple> = (0..10).map(|i| Tuple::new(vec![Value::Int64(i)])).collect();
/// let (buckets, moved_rows, _moved_bytes) = repartition_partition(&rows, 0, 0, 3);
/// for (to, bucket) in buckets.iter().enumerate() {
///     assert!(bucket.iter().all(|r| partition_for(r.value(0), 3) == to));
/// }
/// assert_eq!(moved_rows as usize, 10 - buckets[0].len());
/// ```
pub fn repartition_partition(
    rows: &[Tuple],
    key_index: usize,
    from: usize,
    num_partitions: usize,
) -> (Vec<Vec<Tuple>>, u64, u64) {
    let mut buckets: Vec<Vec<Tuple>> = vec![Vec::new(); num_partitions];
    let mut moved_rows = 0u64;
    let mut moved_bytes = 0u64;
    for row in rows {
        let to = partition_for(row.value(key_index), num_partitions);
        if to != from {
            moved_rows += 1;
            moved_bytes += row.approx_bytes() as u64;
        }
        buckets[to].push(row.clone());
    }
    (buckets, moved_rows, moved_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, FieldRef};

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 5)]))
            .collect()
    }

    fn schema() -> Schema {
        Schema::for_dataset("t", &[("k", DataType::Int64), ("g", DataType::Int64)])
    }

    #[test]
    fn scan_kernel_counts_and_filters() {
        let rows = rows(10);
        let predicates = vec![Predicate::compare(
            FieldRef::new("t", "g"),
            crate::expr::CmpOp::Eq,
            2i64,
        )];
        let (out, tally) = scan_partition(&schema(), &predicates, None, &rows).unwrap();
        assert_eq!(tally.scanned_rows, 10);
        assert_eq!(tally.kept, 2);
        assert_eq!(out.len(), 2);
        assert!(tally.scanned_bytes > 0);
    }

    #[test]
    fn scan_resolves_a_predicate_only_once_a_row_reaches_it() {
        let rows = rows(10);
        let unreachable = vec![
            Predicate::compare(FieldRef::new("t", "g"), crate::expr::CmpOp::Gt, 100i64),
            Predicate::compare(FieldRef::new("t", "missing"), crate::expr::CmpOp::Eq, 1i64),
        ];
        let (out, tally) = scan_partition(&schema(), &unreachable, None, &rows).unwrap();
        assert!(out.is_empty());
        assert_eq!(tally.scanned_rows, 10);
        let reachable = vec![
            Predicate::compare(FieldRef::new("t", "g"), crate::expr::CmpOp::Eq, 1i64),
            Predicate::compare(FieldRef::new("t", "missing"), crate::expr::CmpOp::Eq, 1i64),
        ];
        assert!(scan_partition(&schema(), &reachable, None, &rows).is_err());
        assert!(
            scan_partition(&schema(), &reachable, None, &[]).is_ok(),
            "an empty partition resolves nothing"
        );
    }

    #[test]
    fn hash_join_kernel_concats_probe_then_build() {
        let probe = rows(10);
        let build = rows(5);
        let (out, tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        assert_eq!(tally.build_rows, 5);
        assert_eq!(tally.probe_rows, 10);
        assert_eq!(tally.output_rows, 5, "keys 0..5 match");
        assert_eq!(out[0].values().len(), 4);
    }

    #[test]
    fn null_keys_never_match() {
        let probe = vec![Tuple::new(vec![Value::Null, Value::Int64(0)])];
        let build = vec![Tuple::new(vec![Value::Null, Value::Int64(0)])];
        let (out, tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        assert!(out.is_empty());
        assert_eq!(tally.output_rows, 0);
    }

    #[test]
    fn repartition_kernel_buckets_by_hash() {
        let rows = rows(100);
        let (buckets, moved, bytes) = repartition_partition(&rows, 1, 0, 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        assert!(moved > 0 && moved <= 100);
        assert!(bytes > 0);
        for (p, bucket) in buckets.iter().enumerate() {
            for row in bucket {
                assert_eq!(partition_for(row.value(1), 4), p);
            }
        }
    }

    #[test]
    fn tallies_fold_associatively() {
        let a = ScanTally {
            scanned_rows: 1,
            scanned_bytes: 2,
            kept: 3,
        };
        let b = ScanTally {
            scanned_rows: 10,
            scanned_bytes: 20,
            kept: 30,
        };
        let mut left = a;
        left.add(&b);
        let mut right = b;
        right.add(&a);
        assert_eq!(left, right);
    }

    #[test]
    fn join_build_table_counts_build_once() {
        // Every build row counts once — NULL-keyed ones too, though they never
        // enter the table — however many probe rows follow.
        let probe = rows(10);
        let mut build = rows(5);
        build.push(Tuple::new(vec![Value::Null, Value::Int64(0)]));
        let (out, tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        assert_eq!(tally.build_rows, 6);
        assert_eq!(tally.probe_rows, 10);
        assert_eq!(out.len(), 5);
        let (_, empty_probe) = hash_join_partition(&[], &build, &[0], &[0]);
        assert_eq!(empty_probe.build_rows, 6);
    }

    /// Rows with every awkward value the kernels must carry unchanged: NULLs,
    /// NaN, both zeros, `Int64`/`Date` with equal payloads, strings.
    fn awkward_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let key = match i % 6 {
                    0 => Value::Null,
                    1 => Value::Date(i % 4),
                    _ => Value::Int64(i % 4),
                };
                let float = match i % 5 {
                    0 => Value::Float64(f64::NAN),
                    1 => Value::Float64(-0.0),
                    2 => Value::Float64(0.0),
                    _ => Value::Float64(i as f64 / 3.0),
                };
                Tuple::new(vec![key, float, Value::Utf8(format!("r{i}"))])
            })
            .collect()
    }

    fn awkward_schema() -> Schema {
        Schema::for_dataset(
            "t",
            &[
                ("k", DataType::Int64),
                ("f", DataType::Float64),
                ("s", DataType::Utf8),
            ],
        )
    }

    /// Debug form: distinguishes `Int64` from `Date` and NaN/-0.0 bit patterns
    /// that `Value`'s `PartialEq` would fold together.
    fn exact(rows: &[Tuple]) -> String {
        format!("{rows:?}")
    }

    const CHUNK_SIZES: [usize; 5] = [1, 2, 3, 7, 64];

    /// A spilled partition reaches the scan kernel one page at a time; running
    /// it page by page and concatenating must equal one run over the whole
    /// partition, tally included.
    #[test]
    fn scan_is_chunk_size_invariant_and_matches_row_kernel() {
        let rows = awkward_rows(100);
        let predicates = vec![
            Predicate::compare(FieldRef::new("t", "k"), crate::expr::CmpOp::Ge, 1i64),
            Predicate::compare(FieldRef::new("t", "f"), crate::expr::CmpOp::Le, 10.0),
        ];
        let projection = [2usize, 0];
        let (whole, whole_tally) =
            scan_partition(&awkward_schema(), &predicates, Some(&projection), &rows).unwrap();
        assert!(!whole.is_empty() && whole.len() < rows.len());
        for chunk in CHUNK_SIZES {
            let mut out = Vec::new();
            let mut tally = ScanTally::default();
            for page in rows.chunks(chunk) {
                let (part, t) =
                    scan_partition(&awkward_schema(), &predicates, Some(&projection), page)
                        .unwrap();
                out.extend(part);
                tally.add(&t);
            }
            assert_eq!(exact(&out), exact(&whole), "chunk={chunk}");
            assert_eq!(tally, whole_tally, "chunk={chunk}");
        }
    }

    /// Probing page by page against one build table equals probing the whole
    /// partition at once (the probe side of a spilled join streams in pages).
    #[test]
    fn hash_join_is_chunk_size_invariant_and_matches_row_kernel() {
        let probe = awkward_rows(90);
        let build = awkward_rows(25);
        let (whole, whole_tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        assert!(!whole.is_empty());
        for chunk in CHUNK_SIZES {
            let mut out = Vec::new();
            let mut tally = JoinTally::default();
            for page in probe.chunks(chunk) {
                let (part, mut t) = hash_join_partition(page, &build, &[0], &[0]);
                out.extend(part);
                // The build side is built once per partition, not per page.
                t.build_rows = 0;
                tally.add(&t);
            }
            tally.build_rows = whole_tally.build_rows;
            assert_eq!(exact(&out), exact(&whole), "chunk={chunk}");
            assert_eq!(tally, whole_tally, "chunk={chunk}");
        }
    }

    /// Bucketing page by page and appending each page's buckets equals
    /// bucketing the whole partition, shuffle volume included.
    #[test]
    fn repartition_is_chunk_size_invariant_and_matches_row_kernel() {
        let rows = awkward_rows(120);
        let (whole, whole_rows, whole_bytes) = repartition_partition(&rows, 0, 1, 3);
        for chunk in CHUNK_SIZES {
            let mut buckets: Vec<Vec<Tuple>> = vec![Vec::new(); 3];
            let (mut moved_rows, mut moved_bytes) = (0, 0);
            for page in rows.chunks(chunk) {
                let (part, r, b) = repartition_partition(page, 0, 1, 3);
                for (bucket, part) in buckets.iter_mut().zip(part) {
                    bucket.extend(part);
                }
                moved_rows += r;
                moved_bytes += b;
            }
            for (p, (got, want)) in buckets.iter().zip(&whole).enumerate() {
                assert_eq!(exact(got), exact(want), "chunk={chunk} bucket={p}");
            }
            assert_eq!((moved_rows, moved_bytes), (whole_rows, whole_bytes));
        }
    }

    #[test]
    fn projection_keeps_the_requested_columns_in_order() {
        let rows = awkward_rows(12);
        let (out, tally) = scan_partition(&awkward_schema(), &[], Some(&[2, 2, 0]), &rows).unwrap();
        assert_eq!(tally.kept, 12);
        for (got, row) in out.iter().zip(&rows) {
            let want = Tuple::new(vec![
                row.value(2).clone(),
                row.value(2).clone(),
                row.value(0).clone(),
            ]);
            assert_eq!(exact(std::slice::from_ref(got)), exact(&[want]));
        }
        let (empty_projection, _) =
            scan_partition(&awkward_schema(), &[], Some(&[]), &rows).unwrap();
        assert!(empty_projection.iter().all(Tuple::is_empty));
        assert_eq!(empty_projection.len(), rows.len());
    }

    #[test]
    fn scan_without_predicates_keeps_every_row_and_counts_its_bytes() {
        let rows = awkward_rows(40);
        let (out, tally) = scan_partition(&awkward_schema(), &[], None, &rows).unwrap();
        assert_eq!(exact(&out), exact(&rows));
        assert_eq!(tally.scanned_rows, 40);
        assert_eq!(tally.kept, 40);
        let bytes: usize = rows.iter().map(Tuple::approx_bytes).sum();
        assert_eq!(tally.scanned_bytes, bytes as u64);
        let (none, empty) = scan_partition(&awkward_schema(), &[], None, &[]).unwrap();
        assert!(none.is_empty());
        assert_eq!(empty, ScanTally::default());
    }

    #[test]
    fn composite_key_is_none_when_any_component_is_null() {
        let row = Tuple::new(vec![Value::Int64(1), Value::Null, Value::Date(3)]);
        assert_eq!(
            composite_key(&row, &[0, 2]),
            Some(vec![Value::Int64(1), Value::Date(3)])
        );
        assert_eq!(composite_key(&row, &[0, 1]), None);
        assert_eq!(composite_key(&row, &[1]), None);
        assert_eq!(composite_key(&row, &[]), Some(Vec::new()));
    }

    #[test]
    fn multi_column_join_keys_must_all_match() {
        let probe = vec![
            Tuple::new(vec![Value::Int64(1), Value::from("a")]),
            Tuple::new(vec![Value::Int64(1), Value::from("b")]),
            Tuple::new(vec![Value::Int64(2), Value::from("a")]),
            Tuple::new(vec![Value::Int64(1), Value::Null]),
        ];
        let build = vec![
            Tuple::new(vec![Value::from("a"), Value::Int64(1)]),
            Tuple::new(vec![Value::Null, Value::Int64(1)]),
        ];
        let (out, tally) = hash_join_partition(&probe, &build, &[0, 1], &[1, 0]);
        assert_eq!(out, vec![probe[0].concat(&build[0])]);
        assert_eq!(tally.probe_rows, 4);
        assert_eq!(tally.build_rows, 2);
        assert_eq!(tally.output_rows, 1);
    }

    #[test]
    fn duplicate_build_keys_emit_in_build_insertion_order() {
        let build: Vec<Tuple> = (0..4)
            .map(|i| Tuple::new(vec![Value::Int64(7), Value::Int64(i)]))
            .collect();
        let probe = vec![
            Tuple::new(vec![Value::Int64(7)]),
            Tuple::new(vec![Value::Int64(8)]),
            Tuple::new(vec![Value::Int64(7)]),
        ];
        let (out, tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        assert_eq!(tally.output_rows, 8);
        let seq: Vec<i64> = out.iter().map(|r| r.value(2).as_i64().unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn repartition_into_one_partition_moves_nothing() {
        let rows = awkward_rows(30);
        let (buckets, moved_rows, moved_bytes) = repartition_partition(&rows, 0, 0, 1);
        assert_eq!(buckets.len(), 1);
        assert_eq!(exact(&buckets[0]), exact(&rows));
        assert_eq!((moved_rows, moved_bytes), (0, 0));
        let (empty, r, b) = repartition_partition(&[], 0, 0, 4);
        assert_eq!(empty.len(), 4);
        assert!(empty.iter().all(Vec::is_empty));
        assert_eq!((r, b), (0, 0));
    }

    #[test]
    fn repartition_counts_only_rows_that_leave_their_partition() {
        let rows = awkward_rows(60);
        for from in 0..4 {
            let (buckets, moved_rows, moved_bytes) = repartition_partition(&rows, 1, from, 4);
            let leaving: Vec<&Tuple> = buckets
                .iter()
                .enumerate()
                .filter(|(to, _)| *to != from)
                .flat_map(|(_, bucket)| bucket)
                .collect();
            assert_eq!(moved_rows, leaving.len() as u64, "from={from}");
            let bytes: usize = leaving.iter().map(|r| r.approx_bytes()).sum();
            assert_eq!(moved_bytes, bytes as u64, "from={from}");
        }
    }

    #[test]
    fn join_and_index_tallies_fold_in_any_order() {
        let a = JoinTally {
            build_rows: 1,
            probe_rows: 2,
            output_rows: 3,
        };
        let b = JoinTally {
            build_rows: 40,
            probe_rows: 50,
            output_rows: 60,
        };
        let (mut ab, mut ba) = (a, b);
        ab.add(&b);
        ba.add(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.output_rows, 63);
        let c = IndexJoinTally {
            index_lookups: 5,
            index_fetched_rows: 6,
            output_rows: 7,
        };
        let mut total = IndexJoinTally::default();
        total.add(&c);
        total.add(&c);
        assert_eq!(
            total,
            IndexJoinTally {
                index_lookups: 10,
                index_fetched_rows: 12,
                output_rows: 14,
            }
        );
    }
}
