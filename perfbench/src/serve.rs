//! The timed part of a run: set-up (catalog, server, warm-up) and the closed
//! loop that drives `SqlServer` over TCP with `rdo_server::Client`.

use crate::stats::fnv1a;
use crate::variants::{Template, Variant, VariantGen};
use crate::{Workload, MIN_QUERIES, PARTITIONS, SCALE};
use rdo_common::Relation;
use rdo_server::protocol::{encode_rows, encode_schema};
use rdo_server::{Client, ServerHandle, SqlServer};
use rdo_workloads::{paper_udfs, q50_params, BenchmarkEnv};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The parameter bindings the server (and the in-process replay) compile
/// with: the fixed Q50 text of the warm workload binds `$moy`/`$year`.
pub fn server_params() -> rdo_sql::ParamBindings {
    q50_params(9, 2000)
}

/// The four paper queries with their fixed texts (the warm workload).
pub fn fixed_queries() -> Vec<Variant> {
    use rdo_workloads::{Q17_SQL, Q50_SQL, Q8_SQL, Q9_SQL};
    [
        (Template::Q8, Q8_SQL),
        (Template::Q9, Q9_SQL),
        (Template::Q17, Q17_SQL),
        (Template::Q50, Q50_SQL),
    ]
    .into_iter()
    .map(|(template, sql)| Variant {
        template,
        sql: sql.to_string(),
    })
    .collect()
}

/// A loaded catalog plus a started server, ready for the timed window.
pub struct Setup {
    pub env: BenchmarkEnv,
    pub server: ServerHandle,
    /// `BenchmarkEnv::load` alone.
    pub load_s: f64,
    /// Load, server start and warm-up pass.
    pub setup_s: f64,
}

pub fn set_up(workload: &Workload, seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let env = BenchmarkEnv::load(SCALE, PARTITIONS, false, seed).map_err(|e| e.to_string())?;
    let load_s = start.elapsed().as_secs_f64();
    let server = SqlServer::start(
        env.catalog.clone(),
        paper_udfs(),
        server_params(),
        workload.server_config(),
    )
    .map_err(|e| e.to_string())?;
    if workload.warm {
        // One cold pass fills the plan cache and the learned statistics, so
        // every timed query is a cache hit.
        let mut client = Client::connect(&server.addr()).map_err(|e| e.to_string())?;
        for variant in fixed_queries() {
            client
                .query(&variant.sql)
                .map_err(|e| format!("warm-up {}: {e}", variant.template.name()))?;
        }
    }
    Ok(Setup {
        env,
        server,
        load_s,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// What the server answered, reduced to what the checks need.
#[derive(Debug, Clone)]
pub struct Response {
    /// Hash of the sorted, wire-encoded result (see [`result_hash`]).
    pub hash: u64,
    pub plan_cache_hit: bool,
    pub reopt_points: u32,
    pub plan: String,
}

/// One query of the timed window.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Issue order across all clients.
    pub seq: usize,
    pub variant: Variant,
    /// From the Query frame sent until `ResultEnd` decoded.
    pub latency_ms: f64,
    pub outcome: Result<Response, String>,
}

pub struct Window {
    pub samples: Vec<Sample>,
    /// From the clients' common start to the last reply.
    pub seconds: f64,
}

/// Bit-for-bit identity of a result as a multiset of rows: the schema and
/// the sorted rows in the server's own wire encoding, hashed.
pub fn result_hash(relation: Relation) -> u64 {
    let sorted = relation.sorted();
    let mut bytes = encode_schema(sorted.schema());
    bytes.extend(encode_rows(sorted.rows()));
    fnv1a(&bytes)
}

/// Hands out the queries of the window in issue order and decides when the
/// window ends: after `seconds`, once at least [`MIN_QUERIES`] are issued.
struct Issuer {
    cold: Option<VariantGen>,
    fixed: Vec<Variant>,
    issued: usize,
    start: Instant,
    seconds: Duration,
}

impl Issuer {
    fn next(&mut self) -> Option<Result<(usize, Variant), String>> {
        if self.start.elapsed() >= self.seconds && self.issued >= MIN_QUERIES {
            return None;
        }
        let seq = self.issued;
        self.issued += 1;
        let variant = match &mut self.cold {
            Some(generator) => generator.draw(),
            None => Ok(self.fixed[seq % self.fixed.len()].clone()),
        };
        Some(variant.map(|v| (seq, v)))
    }
}

/// Runs the closed loop: `workload.clients` threads, each sending its next
/// query only after the previous reply.
pub fn drive(
    setup: &Setup,
    workload: &Workload,
    seed: u64,
    seconds: u64,
) -> Result<Window, String> {
    let addr = setup.server.addr();
    let barrier = Barrier::new(workload.clients + 1);
    let issuer = Mutex::new(Issuer {
        cold: (!workload.warm).then(|| VariantGen::new(seed, workload.rotation)),
        fixed: fixed_queries(),
        issued: 0,
        // Reset when the clients are released.
        start: Instant::now(),
        seconds: Duration::from_secs(seconds),
    });
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients)
            .map(|_| {
                let (addr, barrier, issuer) = (&addr, &barrier, &issuer);
                scope.spawn(move || -> Result<(Vec<Sample>, Instant), String> {
                    let connect = || Client::connect(addr).map_err(|e| e.to_string());
                    let mut client = connect();
                    barrier.wait();
                    let mut samples = Vec::new();
                    let mut last = Instant::now();
                    loop {
                        let next = issuer.lock().expect("issuer lock poisoned").next();
                        let Some(next) = next else { break };
                        let (seq, variant) = next?;
                        let sent = Instant::now();
                        let reply = match &mut client {
                            Ok(c) => c.query(&variant.sql).map_err(|e| e.to_string()),
                            Err(e) => Err(e.clone()),
                        };
                        last = Instant::now();
                        let latency_ms = (last - sent).as_secs_f64() * 1e3;
                        let outcome = match reply {
                            Ok(reply) => Ok(Response {
                                hash: result_hash(reply.result),
                                plan_cache_hit: reply.summary.plan_cache_hit,
                                reopt_points: reply.summary.reopt_points,
                                plan: reply.summary.plan,
                            }),
                            Err(e) => {
                                // The session may be gone; the next query
                                // gets a fresh connection.
                                client = connect();
                                Err(e)
                            }
                        };
                        samples.push(Sample {
                            seq,
                            variant,
                            latency_ms,
                            outcome,
                        });
                    }
                    Ok((samples, last))
                })
            })
            .collect();
        issuer.lock().expect("issuer lock poisoned").start = Instant::now();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let start = issuer.into_inner().expect("issuer lock poisoned").start;
    let mut samples = Vec::new();
    let mut end = start;
    for client in per_client {
        let (client_samples, last) = client?;
        samples.extend(client_samples);
        end = end.max(last);
    }
    samples.sort_by_key(|s| s.seq);
    Ok(Window {
        samples,
        seconds: (end - start).as_secs_f64(),
    })
}
