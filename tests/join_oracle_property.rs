//! Property-based tests: the three distributed join algorithms must always
//! produce exactly the multiset a naive single-node nested-loop join produces,
//! for arbitrary data distributions, partition counts and key skew; and the
//! per-partition scan, repartition and hash-join kernels must match naive
//! oracles on the awkward values — NULL keys, NaN and `-0.0` floats, `Date`
//! and `Int64` with equal payloads — and on empty partitions.

use proptest::prelude::*;
// Explicit import: both preludes export a `Strategy` (the proptest trait and
// the runner's strategy enum); the trait is the one this test uses.
use proptest::Strategy;
use runtime_dynamic_optimization::exec::partition::{
    hash_join_partition, repartition_partition, scan_partition,
};
use runtime_dynamic_optimization::net::frame::{read_page_batch, write_page_batch, Tag};
use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::sketch::hll::hash_value;
use runtime_dynamic_optimization::spill::compress::LzScratch;
use runtime_dynamic_optimization::spill::{SpillManager, SpilledPartitions};

/// Naive nested-loop join oracle on gathered relations.
fn oracle_join(
    left: &Relation,
    right: &Relation,
    left_key: usize,
    right_key: usize,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left.rows() {
        for r in right.rows() {
            if !l.value(left_key).is_null() && l.value(left_key) == r.value(right_key) {
                let mut row: Vec<Value> = l.values().to_vec();
                row.extend(r.values().iter().cloned());
                out.push(row);
            }
        }
    }
    out.sort();
    out
}

fn make_catalog(
    left_keys: &[i64],
    right_keys: &[i64],
    partitions: usize,
    with_index: bool,
) -> Catalog {
    let mut catalog = Catalog::new(partitions);
    let left_schema = Schema::for_dataset("l", &[("lk", DataType::Int64), ("lv", DataType::Int64)]);
    let left_rows: Vec<Tuple> = left_keys
        .iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::Int64(*k), Value::Int64(i as i64)]))
        .collect();
    let mut options = IngestOptions::partitioned_on("lv");
    if with_index {
        options = options.with_index("lk");
    }
    catalog
        .ingest("l", Relation::new(left_schema, left_rows).unwrap(), options)
        .unwrap();

    let right_schema =
        Schema::for_dataset("r", &[("rk", DataType::Int64), ("rv", DataType::Int64)]);
    let right_rows: Vec<Tuple> = right_keys
        .iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::Int64(*k), Value::Int64(1000 + i as i64)]))
        .collect();
    catalog
        .ingest(
            "r",
            Relation::new(right_schema, right_rows).unwrap(),
            IngestOptions::partitioned_on("rk"),
        )
        .unwrap();
    catalog
}

fn run_join(catalog: &Catalog, algorithm: JoinAlgorithm) -> Vec<Vec<Value>> {
    let plan = PhysicalPlan::join(
        PhysicalPlan::scan("l"),
        PhysicalPlan::scan("r"),
        FieldRef::new("l", "lk"),
        FieldRef::new("r", "rk"),
        algorithm,
    );
    let executor = ParallelExecutor::new(catalog, ParallelConfig::serial());
    let mut metrics = ExecutionMetrics::new();
    let relation = executor.execute_to_relation(&plan, &mut metrics).unwrap();
    let mut rows: Vec<Vec<Value>> = relation
        .rows()
        .iter()
        .map(|t| t.values().to_vec())
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hash_and_broadcast_joins_match_the_oracle(
        left_keys in prop::collection::vec(0i64..20, 0..60),
        right_keys in prop::collection::vec(0i64..20, 0..60),
        partitions in 1usize..8,
    ) {
        let catalog = make_catalog(&left_keys, &right_keys, partitions, false);
        let left = catalog.table("l").unwrap().gather();
        let right = catalog.table("r").unwrap().gather();
        let expected = oracle_join(&left, &right, 0, 0);

        prop_assert_eq!(run_join(&catalog, JoinAlgorithm::Hash), expected.clone());
        prop_assert_eq!(run_join(&catalog, JoinAlgorithm::Broadcast), expected);
    }

    #[test]
    fn indexed_nested_loop_join_matches_the_oracle(
        left_keys in prop::collection::vec(0i64..15, 1..60),
        right_keys in prop::collection::vec(0i64..15, 1..40),
        partitions in 1usize..6,
    ) {
        let catalog = make_catalog(&left_keys, &right_keys, partitions, true);
        let left = catalog.table("l").unwrap().gather();
        let right = catalog.table("r").unwrap().gather();
        let expected = oracle_join(&left, &right, 0, 0);
        prop_assert_eq!(run_join(&catalog, JoinAlgorithm::IndexedNestedLoop), expected);
    }

    #[test]
    fn partitioning_never_loses_rows(
        keys in prop::collection::vec(any::<i64>(), 0..200),
        partitions in 1usize..12,
    ) {
        let mut catalog = Catalog::new(partitions);
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
        let rows: Vec<Tuple> = keys.iter().map(|k| Tuple::new(vec![Value::Int64(*k)])).collect();
        catalog
            .ingest("t", Relation::new(schema, rows).unwrap(), IngestOptions::partitioned_on("k"))
            .unwrap();
        let table = catalog.table("t").unwrap();
        prop_assert_eq!(table.row_count(), keys.len());
        let mut gathered: Vec<i64> = table
            .gather()
            .rows()
            .iter()
            .map(|t| t.value(0).as_i64().unwrap())
            .collect();
        let mut expected = keys.clone();
        gathered.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(gathered, expected);
    }

    #[test]
    fn scan_kernel_matches_a_naive_filter_and_project(
        rows in edge_rows(),
        conds in prop::collection::vec(cond_strategy(), 0..4),
        projection in prop::option::of(prop::collection::vec(0usize..EDGE_COLUMNS.len(), 0..6)),
    ) {
        let schema = edge_schema();
        let predicates: Vec<Predicate> = conds.iter().map(Cond::predicate).collect();
        let (out, tally) =
            scan_partition(&schema, &predicates, projection.as_deref(), &rows).unwrap();

        let kept: Vec<&Tuple> = rows
            .iter()
            .filter(|row| conds.iter().all(|c| c.holds(row)))
            .collect();
        let expected: Vec<Tuple> = kept
            .iter()
            .map(|row| match &projection {
                Some(indexes) => {
                    Tuple::new(indexes.iter().map(|&i| row.values()[i].clone()).collect())
                }
                None => (*row).clone(),
            })
            .collect();
        // Debug forms keep `Int64(5)` and `Date(5)` apart, which `==` does not.
        prop_assert_eq!(format!("{out:?}"), format!("{expected:?}"));
        prop_assert_eq!(tally.scanned_rows, rows.len() as u64);
        let bytes: usize = rows.iter().map(Tuple::approx_bytes).sum();
        prop_assert_eq!(tally.scanned_bytes, bytes as u64);
        prop_assert_eq!(tally.kept, kept.len() as u64);
    }

    #[test]
    fn repartition_kernel_matches_a_naive_router(
        rows in edge_rows(),
        key in 0usize..EDGE_COLUMNS.len(),
        partitions in 1usize..8,
        from_seed in 0usize..8,
    ) {
        let from = from_seed % partitions;
        let (buckets, moved_rows, moved_bytes) =
            repartition_partition(&rows, key, from, partitions);

        let mut expected = vec![Vec::new(); partitions];
        let (mut rows_out, mut bytes_out) = (0u64, 0u64);
        for row in &rows {
            let to = (hash_value(row.value(key)) % partitions as u64) as usize;
            if to != from {
                rows_out += 1;
                bytes_out += row.approx_bytes() as u64;
            }
            expected[to].push(row.clone());
        }
        prop_assert_eq!(format!("{buckets:?}"), format!("{expected:?}"));
        prop_assert_eq!((moved_rows, moved_bytes), (rows_out, bytes_out));
        // Equal payloads route together whatever their integer variant.
        for payload in -2i64..4 {
            prop_assert_eq!(
                hash_value(&Value::Int64(payload)) % partitions as u64,
                hash_value(&Value::Date(payload)) % partitions as u64
            );
        }
    }

    #[test]
    fn hash_join_kernel_matches_a_nested_loop_on_awkward_keys(
        probe in edge_rows(),
        build in edge_rows(),
        key in 0usize..2,
    ) {
        let (out, tally) = hash_join_partition(&probe, &build, &[key], &[key]);
        let mut expected = Vec::new();
        for p in &probe {
            for b in &build {
                if !p.value(key).is_null() && p.value(key) == b.value(key) {
                    expected.push(p.concat(b));
                }
            }
        }
        prop_assert_eq!(format!("{out:?}"), format!("{expected:?}"));
        prop_assert_eq!(tally.build_rows, build.len() as u64);
        prop_assert_eq!(tally.probe_rows, probe.len() as u64);
        prop_assert_eq!(tally.output_rows, expected.len() as u64);
    }

    #[test]
    fn multi_key_hash_join_kernel_matches_a_nested_loop(
        probe in edge_rows(),
        build in edge_rows(),
        swap in any::<bool>(),
    ) {
        // Join on (k, s) = (k, s), or crosswise with the key order swapped on
        // the build side, so key components pair up by position, not column.
        let (probe_keys, build_keys): (&[usize], &[usize]) =
            if swap { (&[0, 2], &[0, 2]) } else { (&[2, 0], &[2, 0]) };
        let (out, tally) = hash_join_partition(&probe, &build, probe_keys, build_keys);
        let mut expected = Vec::new();
        for p in &probe {
            for b in &build {
                let all_equal = probe_keys.iter().zip(build_keys).all(|(&pk, &bk)| {
                    !p.value(pk).is_null() && p.value(pk) == b.value(bk)
                });
                if all_equal {
                    expected.push(p.concat(b));
                }
            }
        }
        prop_assert_eq!(format!("{out:?}"), format!("{expected:?}"));
        prop_assert_eq!(tally.output_rows, expected.len() as u64);
    }

    #[test]
    fn spill_pages_and_wire_frames_carry_awkward_rows_exactly(
        partitions in prop::collection::vec(edge_rows(), 1..4),
        compress in any::<bool>(),
    ) {
        let manager = SpillManager::create(
            SpillConfig::default()
                .with_budget(1)
                .with_page_size(512)
                .with_compression(compress),
        )
        .unwrap();
        let (store, _) = SpilledPartitions::write(manager, &partitions).unwrap();
        for (p, rows) in partitions.iter().enumerate() {
            let back = store.read_partition(p).unwrap();
            prop_assert_eq!(format!("{back:?}"), format!("{rows:?}"));

            let mut wire = Vec::new();
            let mut scratch = LzScratch::new();
            write_page_batch(&mut wire, Tag::Page, &[], rows, compress, &mut scratch).unwrap();
            let back = read_page_batch(&mut &wire[..]).unwrap();
            prop_assert_eq!(format!("{back:?}"), format!("{rows:?}"));
        }
    }
}

/// A catalog holding the same rows twice: `t` as a base table and `t_spilled`
/// as an intermediate spilled in 512-byte pages.
fn edge_catalog(rows: &[Tuple], partitions: usize) -> Catalog {
    let mut catalog = Catalog::new(partitions);
    let relation = Relation::new(edge_schema(), rows.to_vec()).unwrap();
    catalog
        .ingest(
            "t",
            relation.clone(),
            IngestOptions::default().without_stats(),
        )
        .unwrap();
    catalog
        .configure_spill(SpillConfig::default().with_budget(1).with_page_size(512))
        .unwrap();
    catalog
        .register_intermediate("t_spilled", relation, None, &[], false)
        .unwrap();
    catalog
}

/// Rows as a multiset that still tells `Int64(5)` from `Date(5)`.
fn exact_multiset(rows: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The executor's scans — resident partitions as one page, spilled ones
    /// page by page — keep exactly the rows the naive filter keeps, on one
    /// worker and on two.
    #[test]
    fn executor_scans_match_the_naive_filter_resident_and_spilled(
        rows in edge_rows(),
        conds in prop::collection::vec(cond_strategy(), 0..3),
        partitions in 1usize..4,
    ) {
        let catalog = edge_catalog(&rows, partitions);
        let predicates: Vec<Predicate> = conds.iter().map(Cond::predicate).collect();
        let expected: Vec<Tuple> = rows
            .iter()
            .filter(|row| conds.iter().all(|c| c.holds(row)))
            .cloned()
            .collect();
        for table in ["t", "t_spilled"] {
            let plan = PhysicalPlan::scan_aliased("t", table).with_predicates(predicates.clone());
            let mut metrics = ExecutionMetrics::new();
            let serial = ParallelExecutor::new(&catalog, ParallelConfig::serial())
                .execute(&plan, &mut metrics)
                .unwrap();
            prop_assert_eq!(
                exact_multiset(&serial.all_rows()),
                exact_multiset(&expected),
                "{}", table
            );
            let parallel = ParallelExecutor::new(&catalog, ParallelConfig::serial().with_workers(2));
            let mut parallel_metrics = ExecutionMetrics::new();
            let data = parallel.execute(&plan, &mut parallel_metrics).unwrap();
            prop_assert_eq!(data.partitions(), serial.partitions());
            prop_assert_eq!(parallel_metrics, metrics);
        }
    }
}

/// Columns of the awkward-value relation: `k` holds `Int64` and `Date` with
/// overlapping payloads, `f` the float edge values (NaN, both zeros,
/// infinity), `s` short strings, `b` booleans; every column has NULLs.
const EDGE_COLUMNS: [&str; 4] = ["k", "f", "s", "b"];
const FLOATS: [f64; 6] = [f64::NAN, -0.0, 0.0, 1.5, -2.5, f64::INFINITY];
const STRINGS: [&str; 4] = ["", "a", "ab", "b"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn edge_schema() -> Schema {
    Schema::for_dataset(
        "t",
        &[
            ("k", DataType::Int64),
            ("f", DataType::Float64),
            ("s", DataType::Utf8),
            ("b", DataType::Bool),
        ],
    )
}

/// A non-NULL value of column `column`, picked by `seed`.
fn edge_constant(column: usize, seed: u64) -> Value {
    let pick = seed as usize;
    match column {
        0 if (pick / 6).is_multiple_of(2) => Value::Int64((pick % 6) as i64 - 2),
        0 => Value::Date((pick % 6) as i64 - 2),
        1 => Value::Float64(FLOATS[pick % FLOATS.len()]),
        2 => Value::from(STRINGS[pick % STRINGS.len()]),
        _ => Value::Bool(pick % 2 == 1),
    }
}

/// A value of column `column`: NULL for one seed in five.
fn edge_value(column: usize, seed: u64) -> Value {
    if seed.is_multiple_of(5) {
        Value::Null
    } else {
        edge_constant(column, seed / 5)
    }
}

/// Partitions of 0..30 awkward rows (empty ones included).
fn edge_rows() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(
        prop::collection::vec(any::<u64>(), EDGE_COLUMNS.len()..EDGE_COLUMNS.len() + 1),
        0..30,
    )
    .prop_map(|seeds| {
        seeds
            .into_iter()
            .map(|row| {
                let values = row.iter().enumerate();
                Tuple::new(values.map(|(c, &seed)| edge_value(c, seed)).collect())
            })
            .collect()
    })
}

/// One WHERE condition over an [`EDGE_COLUMNS`] column, with an oracle that
/// decides it from `Value`'s own order, independently of [`Predicate`].
#[derive(Debug, Clone)]
enum Cond {
    Cmp(usize, CmpOp, Value),
    Between(usize, Value, Value),
    In(usize, Vec<Value>),
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    (
        0..EDGE_COLUMNS.len(),
        0usize..3,
        0..OPS.len(),
        prop::collection::vec(any::<u64>(), 0..3),
        any::<u64>(),
    )
        .prop_map(|(column, kind, op, list, seed)| {
            let constant = |seed: u64| edge_constant(column, seed);
            match kind {
                0 => Cond::Cmp(column, OPS[op], constant(seed)),
                1 => Cond::Between(column, constant(seed), constant(seed >> 32)),
                _ => Cond::In(column, list.into_iter().map(constant).collect()),
            }
        })
}

impl Cond {
    fn predicate(&self) -> Predicate {
        let field = |column: &usize| FieldRef::new("t", EDGE_COLUMNS[*column]);
        match self {
            Cond::Cmp(column, op, value) => Predicate::compare(field(column), *op, value.clone()),
            Cond::Between(column, lo, hi) => {
                Predicate::between(field(column), lo.clone(), hi.clone())
            }
            Cond::In(column, values) => Predicate::in_list(field(column), values.clone()),
        }
    }

    fn holds(&self, row: &Tuple) -> bool {
        let column = match self {
            Cond::Cmp(column, ..) | Cond::Between(column, ..) | Cond::In(column, _) => *column,
        };
        let v = row.value(column);
        if v.is_null() {
            return false;
        }
        match self {
            Cond::Cmp(_, op, c) => match op {
                CmpOp::Eq => v == c,
                CmpOp::Ne => v != c,
                CmpOp::Lt => v < c,
                CmpOp::Le => v <= c,
                CmpOp::Gt => v > c,
                CmpOp::Ge => v >= c,
            },
            Cond::Between(_, lo, hi) => lo <= v && v <= hi,
            Cond::In(_, values) => values.contains(v),
        }
    }
}
