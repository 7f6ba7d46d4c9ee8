//! The dynamic driver's stage journal: checkpoint-based fault tolerance.
//!
//! The paper's conclusion points out that the materialized intermediate results
//! the dynamic approach produces anyway can double as *checkpoints*: "runtime
//! dynamic optimization can also be used as a way to achieve fault-tolerance by
//! integrating checkpoints. That would help the system to recover from a
//! failure by not having to start over from the beginning of a long-running
//! query." This module holds the journal that makes that work.
//!
//! Every execution of [`crate::DynamicDriver`] journals each completed stage
//! (a predicate push-down or a materialized join) in a [`CheckpointLog`]:
//! the stage's intermediate table, the remaining query after reconstruction
//! and the stage's audit records. [`crate::DynamicDriver::execute`] uses a
//! private log and drops its tables whatever happens.
//! [`crate::DynamicDriver::resume`] takes the caller's log instead: when the
//! run fails, the journaled intermediates stay in the catalog, and the next
//! `resume` with the same log *replays* those stages (adopting their tables
//! and statistics) and only executes the remaining ones. On success the
//! tables are dropped and the log is cleared. A log remembers the query it
//! was opened for and refuses to resume any other. Journaled tables carry the
//! names of the query's own intermediates, so executing the same query on the
//! catalog in between drops them, and the next resume fails cleanly.
//!
//! [`FailureInjector`], carried by the log, provides deterministic failure
//! injection for tests and experiments.

use rdo_common::{RdoError, Result};
use rdo_planner::{LearnedStatsCatalog, QuerySpec};
use rdo_storage::Catalog;
use rdo_trace::audit::{EstimateRecord, ReoptDecision};

/// Deterministic failure injection: the run fails after a given number of
/// newly executed (and checkpointed) stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailureInjector {
    fail_after: Option<u32>,
}

impl FailureInjector {
    /// Never fails.
    pub fn none() -> Self {
        Self { fail_after: None }
    }

    /// Fails once `stages` newly executed stages have been checkpointed.
    pub fn after_stages(stages: u32) -> Self {
        Self {
            fail_after: Some(stages),
        }
    }

    pub(crate) fn should_fail(&self, executed_stages: u32) -> bool {
        matches!(self.fail_after, Some(limit) if executed_stages >= limit)
    }
}

/// One completed (and materialized) stage.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// The stage's entry in `stage_plans` (its plan signature, prefixed with
    /// `pushdown` for a push-down stage).
    pub description: String,
    /// Name of the materialized temporary table holding the stage's output.
    pub table: String,
    /// The remaining query after the stage's reconstruction.
    pub spec_after: QuerySpec,
    /// The stage's estimate-vs-actual audit record.
    pub estimate: EstimateRecord,
    /// The re-optimization decision that chose the stage; `None` for a
    /// push-down stage.
    pub decision: Option<ReoptDecision>,
}

/// The durable record of completed stages. In AsterixDB this would live next to
/// the temporary files of the Sink operator; here it is an in-memory value the
/// caller keeps across the failed and the recovering execution.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLog {
    /// Completed stages in execution order.
    pub entries: Vec<CheckpointEntry>,
    /// Failure injection applied to every execution that uses this log.
    pub injector: FailureInjector,
    /// Name and identity of the query the log was opened for; set by the
    /// first resume, reset when a run succeeds.
    query: Option<(String, String)>,
}

impl CheckpointLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the failure injection of the executions using this log (builder
    /// style).
    pub fn with_injector(mut self, injector: FailureInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Number of checkpointed stages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been checkpointed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Names of the materialized intermediates the log references.
    pub fn tables(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.table.clone()).collect()
    }

    /// Journals a completed stage. When the injector triggers on this run's
    /// newest stage (the log held `recovered` entries before the run), the
    /// run fails with the entry kept.
    pub(crate) fn record(&mut self, entry: CheckpointEntry, recovered: u32) -> Result<()> {
        self.entries.push(entry);
        let executed = self.entries.len() as u32 - recovered;
        if self.injector.should_fail(executed) {
            return Err(RdoError::Execution(format!(
                "injected failure after {executed} newly executed stage(s); checkpoints retained"
            )));
        }
        Ok(())
    }

    /// Binds the log to `spec`, or checks that it is already bound to it.
    /// A mismatch is an error and changes nothing.
    pub(crate) fn open(&mut self, spec: &QuerySpec) -> Result<()> {
        let identity = query_identity(spec);
        match &self.query {
            Some((name, opened)) if *opened != identity => Err(RdoError::InvalidQuery(format!(
                "checkpoint log was opened for query `{name}`; `{}` cannot resume from it",
                spec.name
            ))),
            Some(_) => Ok(()),
            None => {
                self.query = Some((spec.name.clone(), identity));
                Ok(())
            }
        }
    }

    /// Drops every journaled intermediate from `catalog` and empties the log
    /// (the injector stays).
    pub(crate) fn retire(&mut self, catalog: &mut Catalog) {
        for entry in self.entries.drain(..) {
            catalog.drop_table(&entry.table);
        }
        self.query = None;
    }
}

/// Everything that makes two specs the same query: the name, the datasets,
/// the joins, the projection and the value-qualified predicates.
fn query_identity(spec: &QuerySpec) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}|{}",
        spec.name,
        spec.datasets,
        spec.joins,
        spec.projection,
        LearnedStatsCatalog::filter_key("", &spec.predicates)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DynamicConfig, DynamicDriver};
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, Predicate};
    use rdo_planner::DatasetRef;
    use rdo_storage::IngestOptions;

    /// fact(20_000) joined with four dimensions, two of which carry complex
    /// predicates so the checkpointed run has several stages: two push-downs,
    /// two materialized joins, one final job.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let fact_schema = Schema::for_dataset(
            "fact",
            &[
                ("f_id", DataType::Int64),
                ("f_d1", DataType::Int64),
                ("f_d2", DataType::Int64),
                ("f_d3", DataType::Int64),
                ("f_d4", DataType::Int64),
            ],
        );
        let fact_rows = (0..20_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 100),
                    Value::Int64(i % 200),
                    Value::Int64(i % 50),
                    Value::Int64(i % 25),
                ])
            })
            .collect();
        cat.ingest(
            "fact",
            Relation::new(fact_schema, fact_rows).unwrap(),
            IngestOptions::partitioned_on("f_id"),
        )
        .unwrap();
        for (name, rows) in [("d1", 100i64), ("d2", 200), ("d3", 50), ("d4", 25)] {
            let schema =
                Schema::for_dataset(name, &[("id", DataType::Int64), ("attr", DataType::Int64)]);
            let data = (0..rows)
                .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]))
                .collect();
            cat.ingest(
                name,
                Relation::new(schema, data).unwrap(),
                IngestOptions::partitioned_on("id"),
            )
            .unwrap();
        }
        cat
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("ckpt-query")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("d1"))
            .with_dataset(DatasetRef::named("d2"))
            .with_dataset(DatasetRef::named("d3"))
            .with_dataset(DatasetRef::named("d4"))
            .with_join(FieldRef::new("fact", "f_d1"), FieldRef::new("d1", "id"))
            .with_join(FieldRef::new("fact", "f_d2"), FieldRef::new("d2", "id"))
            .with_join(FieldRef::new("fact", "f_d3"), FieldRef::new("d3", "id"))
            .with_join(FieldRef::new("fact", "f_d4"), FieldRef::new("d4", "id"))
            .with_predicate(Predicate::udf("pick1", FieldRef::new("d1", "attr"), |v| {
                v.as_i64() == Some(3)
            }))
            .with_predicate(Predicate::compare(
                FieldRef::new("d1", "id"),
                CmpOp::Lt,
                1_000i64,
            ))
            .with_predicate(Predicate::udf("pick2", FieldRef::new("d2", "attr"), |v| {
                v.as_i64().map(|x| x < 5).unwrap_or(false)
            }))
            .with_predicate(Predicate::compare(
                FieldRef::new("d2", "id"),
                CmpOp::Ge,
                0i64,
            ))
            .with_projection(vec![FieldRef::new("fact", "f_id")])
    }

    fn reference_result(cat: &mut Catalog) -> Relation {
        DynamicDriver::new(DynamicConfig::default())
            .execute(&spec(), cat)
            .unwrap()
            .result
            .sorted()
    }

    fn driver() -> DynamicDriver {
        DynamicDriver::new(DynamicConfig::default())
    }

    #[test]
    fn no_failure_matches_the_plain_dynamic_driver() {
        let mut cat = catalog();
        let expected = reference_result(&mut cat);
        let tables_before = cat.table_names();
        let mut log = CheckpointLog::new();
        let outcome = driver().resume(&spec(), &mut cat, &mut log).unwrap();
        assert_eq!(outcome.result.clone().sorted(), expected);
        assert_eq!(outcome.stages_recovered, 0);
        assert!(
            outcome.stages_executed() >= 3,
            "pushdowns + at least one join"
        );
        assert!(log.is_empty(), "log cleared after success");
        assert_eq!(cat.table_names(), tables_before, "temporaries cleaned up");
    }

    #[test]
    fn failure_then_recovery_reuses_checkpointed_stages() {
        let mut cat = catalog();
        let expected = reference_result(&mut cat);
        let tables_before = cat.table_names();
        let driver = driver();
        let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(2));

        // First run: crash after two completed stages.
        let error = driver.resume(&spec(), &mut cat, &mut log).unwrap_err();
        assert!(error.to_string().contains("injected failure"));
        assert_eq!(
            log.len(),
            2,
            "two stages were checkpointed before the crash"
        );
        for table in log.tables() {
            assert!(
                cat.has_table(&table),
                "checkpoint `{table}` must survive the failure"
            );
        }

        // Second run: resumes from the log and finishes.
        log.injector = FailureInjector::none();
        let outcome = driver.resume(&spec(), &mut cat, &mut log).unwrap();
        assert_eq!(outcome.stages_recovered, 2);
        assert!(outcome.stages_executed() >= 1);
        assert_eq!(
            outcome.result.clone().sorted(),
            expected,
            "recovered run must agree"
        );
        assert!(log.is_empty());
        assert_eq!(
            cat.table_names(),
            tables_before,
            "all checkpoints dropped after success"
        );
    }

    #[test]
    fn repeated_failures_make_progress_and_eventually_finish() {
        let mut cat = catalog();
        let expected = reference_result(&mut cat);
        let driver = driver();
        let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(1));
        let mut attempts = 0;
        let outcome = loop {
            attempts += 1;
            match driver.resume(&spec(), &mut cat, &mut log) {
                Ok(outcome) => break outcome,
                Err(_) => {
                    assert!(attempts < 20, "must converge");
                    continue;
                }
            }
        };
        assert!(attempts > 1, "at least one failure was injected");
        assert_eq!(outcome.result.sorted(), expected);
    }

    #[test]
    fn missing_checkpoint_table_is_detected() {
        let mut cat = catalog();
        let driver = driver();
        let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(1));
        driver.resume(&spec(), &mut cat, &mut log).unwrap_err();
        // Simulate losing the materialized intermediate (e.g. local disk wiped).
        let table = log.tables()[0].clone();
        cat.drop_table(&table);
        log.injector = FailureInjector::none();
        let error = driver.resume(&spec(), &mut cat, &mut log).unwrap_err();
        assert!(error.to_string().contains("missing from the catalog"));
    }

    #[test]
    fn injector_that_never_triggers_lets_the_run_finish() {
        let mut cat = catalog();
        let mut log = CheckpointLog::new().with_injector(FailureInjector::after_stages(100));
        let outcome = driver().resume(&spec(), &mut cat, &mut log).unwrap();
        assert!(outcome.stages_executed() < 100);
        assert!(log.is_empty());
    }

    #[test]
    fn checkpoint_log_helpers() {
        let mut log = CheckpointLog::new();
        assert!(log.is_empty());
        log.entries.push(CheckpointEntry {
            description: "x".into(),
            table: "t".into(),
            spec_after: QuerySpec::new("q"),
            estimate: EstimateRecord {
                stage: "pushdown:x".into(),
                operator: "x".into(),
                estimated_rows: None,
                actual_rows: 0,
            },
            decision: None,
        });
        assert_eq!(log.len(), 1);
        assert_eq!(log.tables(), vec!["t".to_string()]);
        assert!(!FailureInjector::none().should_fail(10));
        assert!(FailureInjector::after_stages(2).should_fail(2));
        assert!(!FailureInjector::after_stages(2).should_fail(1));
    }

    #[test]
    fn a_log_binds_to_the_first_query_it_resumes() {
        let mut log = CheckpointLog::new();
        log.open(&spec()).unwrap();
        log.open(&spec()).unwrap();
        let renamed = QuerySpec {
            name: "other".into(),
            ..spec()
        };
        let error = log.open(&renamed).unwrap_err();
        assert!(error.to_string().contains("ckpt-query"), "{error}");
        // Same name, different literal: still another query.
        let relit = spec().with_predicate(Predicate::compare(
            FieldRef::new("d3", "id"),
            CmpOp::Lt,
            7i64,
        ));
        assert!(log.open(&relit).is_err());
        // Retiring the log unbinds it.
        log.retire(&mut Catalog::new(1));
        log.open(&renamed).unwrap();
    }
}
