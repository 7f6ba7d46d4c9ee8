//! In-process runs of the workload's SQL outside the timed window: the
//! correctness references and the traced per-layer replay.
//!
//! The replay calls each layer's public functions in the order
//! `rdo_server::run_query` calls them — `rdo_sql::normalize`,
//! `rdo_sql::compile` (cold queries only), `Catalog::clone`,
//! `DynamicDriver::execute` with the server's exact `DynamicConfig`,
//! `BoundQuery.post.apply`, then the protocol's result encode/decode — and
//! times each call itself. Inside `execute` it reads the spans the engine
//! already emits and computes each one's self time.

use crate::serve::{fixed_queries, result_hash, server_params};
use rdo_core::{DynamicConfig, DynamicDriver};
use rdo_exec::ExecutionMetrics;
use rdo_parallel::WorkerPool;
use rdo_planner::LearnedStatsCatalog;
use rdo_server::protocol::{decode_rows, encode_rows, encode_schema, ROWS_PER_FRAME};
use rdo_server::ServerConfig;
use rdo_spill::SpillConfig;
use rdo_sql::{BoundQuery, UdfRegistry};
use rdo_storage::Catalog;
use rdo_trace::{SpanRecord, TraceHandle};
use rdo_workloads::paper_udfs;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The server's base data and configuration, shared by every in-process run.
pub struct Engine<'a> {
    pub catalog: &'a Catalog,
    pub config: ServerConfig,
    udfs: UdfRegistry,
    pool: WorkerPool,
}

impl<'a> Engine<'a> {
    pub fn new(catalog: &'a Catalog, config: ServerConfig) -> Self {
        let pool = WorkerPool::new(config.parallel.workers);
        Self {
            catalog,
            config,
            udfs: paper_udfs(),
            pool,
        }
    }

    fn compile(&self, sql: &str, key: &str) -> Result<BoundQuery, String> {
        rdo_sql::compile(
            sql,
            stable_name(key),
            self.catalog,
            &self.udfs,
            &server_params(),
        )
        .map_err(|e| e.to_string())
    }

    /// The `DynamicConfig` `run_query` builds for one query.
    fn server_dynamic_config(
        &self,
        warm: bool,
        trace: TraceHandle,
        learned: &Arc<LearnedStatsCatalog>,
    ) -> DynamicConfig {
        let mut spill = SpillConfig::from_env();
        if let Some(budget) = self.config.mem_budget {
            // The admission ticket holds the grant clamped to the budget.
            let half = (self.config.query_grant.min(budget) / 2).max(1);
            spill = spill.with_budget(half).with_join_budget(half);
        }
        let config = DynamicConfig::dynamic(self.config.rule)
            .with_parallel(self.config.parallel)
            .with_spill(spill)
            .with_trace(trace)
            .with_pool(self.pool.clone())
            .with_learned(Arc::clone(learned));
        if warm {
            config.with_reopt_budget(0)
        } else {
            config
        }
    }

    /// Reference result hashes of `texts`, computed on two threads. Each
    /// reference plans statically (re-optimization budget 0) and in memory,
    /// so it reaches the server's result through a different plan.
    pub fn references(&self, texts: &[String]) -> Vec<Result<u64, String>> {
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, Result<u64, String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        // A pool per thread keeps both CPUs busy through each
                        // query's serial phases.
                        let pool = WorkerPool::new(self.config.parallel.workers);
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(sql) = texts.get(i) else { break };
                            done.push((i, self.reference(sql, &pool)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, hash)| hash).collect()
    }

    fn reference(&self, sql: &str, pool: &WorkerPool) -> Result<u64, String> {
        let bound = self.compile(sql, "reference")?;
        let config = DynamicConfig::dynamic(self.config.rule)
            .with_parallel(self.config.parallel)
            .with_spill(SpillConfig::default())
            .with_trace(TraceHandle::disabled())
            .with_pool(pool.clone())
            .with_reopt_budget(0);
        let mut catalog = self.catalog.clone();
        let outcome = DynamicDriver::new(config)
            .execute(&bound.spec, &mut catalog)
            .map_err(|e| e.to_string())?;
        let relation = bound
            .post
            .apply(outcome.result)
            .map_err(|e| e.to_string())?;
        Ok(result_hash(relation))
    }

    /// Replays `texts` in order the way the server ran them. A warm replay
    /// first runs the fixed queries once cold, as the server's warm-up did,
    /// and then reuses their bound plans and learned statistics.
    pub fn replay(
        &self,
        texts: &[&str],
        warm: bool,
        traced: bool,
    ) -> Result<Vec<Replayed>, String> {
        let learned = Arc::new(LearnedStatsCatalog::bounded(self.config.learned_cap));
        let mut cache: HashMap<String, Arc<BoundQuery>> = HashMap::new();
        if warm {
            for variant in fixed_queries() {
                let key = rdo_sql::normalize(&variant.sql).map_err(|e| e.to_string())?;
                let bound = Arc::new(self.compile(&variant.sql, &key)?);
                let config = self.server_dynamic_config(false, TraceHandle::disabled(), &learned);
                DynamicDriver::new(config)
                    .execute(&bound.spec, &mut self.catalog.clone())
                    .map_err(|e| e.to_string())?;
                cache.insert(key, bound);
            }
        }
        texts
            .iter()
            .map(|sql| self.replay_one(sql, &mut cache, &learned, traced))
            .collect()
    }

    fn replay_one(
        &self,
        sql: &str,
        cache: &mut HashMap<String, Arc<BoundQuery>>,
        learned: &Arc<LearnedStatsCatalog>,
        traced: bool,
    ) -> Result<Replayed, String> {
        let err = |e: rdo_common::RdoError| e.to_string();
        let start = Instant::now();
        let key = rdo_sql::normalize(sql).map_err(err)?;
        let normalized = Instant::now();
        let cached = cache.get(&key).cloned();
        let warm = cached.is_some();
        let bound = match cached {
            Some(bound) => bound,
            None => Arc::new(self.compile(sql, &key)?),
        };
        let compiled = Instant::now();
        let mut catalog = self.catalog.clone();
        let cloned = Instant::now();
        let trace = if traced {
            TraceHandle::enabled()
        } else {
            TraceHandle::disabled()
        };
        let config = self.server_dynamic_config(warm, trace.clone(), learned);
        let outcome = DynamicDriver::new(config)
            .execute(&bound.spec, &mut catalog)
            .map_err(err)?;
        let executed = Instant::now();
        let plan = outcome.plan_description();
        let relation = bound.post.apply(outcome.result).map_err(err)?;
        let posted = Instant::now();
        let mut result_bytes = encode_schema(relation.schema()).len() as u64;
        let width = relation.schema().fields().len();
        for chunk in relation.rows().chunks(ROWS_PER_FRAME) {
            let frame = encode_rows(chunk);
            result_bytes += frame.len() as u64;
            decode_rows(&frame, width).map_err(err)?;
        }
        let streamed = Instant::now();
        if !warm {
            cache.insert(key, bound);
        }
        let counters = trace.counters();
        Ok(Replayed {
            wall_ns: ns(start, streamed),
            normalize_ns: ns(start, normalized),
            compile_ns: if warm { 0 } else { ns(normalized, compiled) },
            clone_ns: ns(compiled, cloned),
            execute_ns: ns(cloned, executed),
            post_ns: ns(executed, posted),
            stream_ns: ns(posted, streamed),
            result_bytes,
            hash: result_hash(relation),
            plan,
            reopt_points: outcome.reoptimization_points,
            planner_invocations: outcome.planner_invocations,
            max_q_error: outcome.audit.max_q_error(),
            metrics: outcome.total,
            spans: traced.then(|| SpanTimes::from_spans(&trace.spans())),
            pool_hits: counters.get("spill.pool.hits").copied().unwrap_or(0),
            pool_misses: counters.get("spill.pool.misses").copied().unwrap_or(0),
        })
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    (to - from).as_nanos() as u64
}

/// The server's query name for a normalized text (FNV-1a, as in
/// `rdo_server`), so intermediate-table names — and therefore plan
/// descriptions — match the server's.
fn stable_name(key: &str) -> String {
    format!("q{:016x}", crate::stats::fnv1a(key.as_bytes()))
}

/// One replayed query.
pub struct Replayed {
    /// normalize through decode.
    pub wall_ns: u64,
    pub normalize_ns: u64,
    pub compile_ns: u64,
    pub clone_ns: u64,
    pub execute_ns: u64,
    pub post_ns: u64,
    pub stream_ns: u64,
    pub result_bytes: u64,
    pub hash: u64,
    pub plan: String,
    pub reopt_points: u32,
    pub planner_invocations: u32,
    pub max_q_error: f64,
    pub metrics: ExecutionMetrics,
    /// Self times inside `execute` (traced replays only).
    pub spans: Option<SpanTimes>,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

/// Per-span-name self times of one traced execution.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Span name → summed self time: duration minus the union of its
    /// children's intervals. `pool.morsel` spans are an operator's own
    /// partition tasks, so their children count as the operator's children
    /// and the morsels themselves are not subtracted.
    pub self_ns: BTreeMap<String, u64>,
    /// Summed duration of every `pool.morsel` span, across threads.
    pub morsel_busy_ns: u64,
    /// Wall time covered by the stage spans (push-down, re-optimization
    /// points, final job).
    pub stage_cover_ns: u64,
}

impl SpanTimes {
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        const MORSEL: &str = "pool.morsel";
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let effective_parent = |span: &SpanRecord| {
            let mut parent = span.parent;
            while let Some(p) = by_id.get(&parent).filter(|p| p.name == MORSEL) {
                parent = p.parent;
            }
            parent
        };
        let interval = |s: &SpanRecord| (s.start_ns, s.start_ns + s.duration_ns);
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        let mut times = SpanTimes::default();
        let mut stages = Vec::new();
        for span in spans {
            if span.name == MORSEL {
                times.morsel_busy_ns += span.duration_ns;
                continue;
            }
            children
                .entry(effective_parent(span))
                .or_default()
                .push(interval(span));
            if span.name.starts_with("stage.") {
                stages.push(interval(span));
            }
        }
        for span in spans.iter().filter(|s| s.name != MORSEL) {
            let (lo, hi) = interval(span);
            let clipped: Vec<(u64, u64)> = children
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(lo), b.min(hi)))
                .filter(|(a, b)| a < b)
                .collect();
            *times.self_ns.entry(span.name.clone()).or_default() +=
                span.duration_ns - union_len(clipped);
        }
        times.stage_cover_ns = union_len(stages);
        times
    }

    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

/// Total length covered by a set of half-open intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((lo, hi)) if a <= hi => Some((lo, hi.max(b))),
            Some((lo, hi)) => {
                total += hi - lo;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(lo, hi)| hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, duration: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            thread: 0,
            start_ns: start,
            duration_ns: duration,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_folds_morsels() {
        let spans = vec![
            span(1, 0, "stage.reopt", 0, 100),
            span(2, 1, "exec.join", 10, 60),
            // Two parallel morsels of the join; a grace join runs in one.
            span(3, 2, "pool.morsel", 10, 50),
            span(4, 2, "pool.morsel", 15, 50),
            span(5, 3, "exec.grace", 20, 20),
            span(6, 1, "sink.materialize", 75, 20),
        ];
        let times = SpanTimes::from_spans(&spans);
        assert_eq!(times.self_of("stage.reopt"), 100 - 60 - 20);
        assert_eq!(
            times.self_of("exec.join"),
            60 - 20,
            "grace is the join's child"
        );
        assert_eq!(times.self_of("exec.grace"), 20);
        assert_eq!(times.self_of("pool.morsel"), 0);
        assert_eq!(times.morsel_busy_ns, 100);
        assert_eq!(times.stage_cover_ns, 100);
    }
}
