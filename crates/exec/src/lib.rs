//! Physical execution layer of the simulated shared-nothing engine.
//!
//! This crate plays the role of Hyracks in the paper's architecture (Figure 2):
//! it provides the physical plan (scans with pushed-down predicates and a tree
//! of joins, each annotated with a join algorithm), the per-partition kernels
//! that `rdo-parallel`'s executor maps across its worker pool against the
//! [`rdo_storage::Catalog`], and a deterministic cost model for the
//! distributed effects — re-partitioning (shuffle), broadcast replication,
//! materialization of intermediate results at re-optimization points,
//! secondary-index lookups and online statistics collection.
//!
//! The operators implemented here mirror Section 3 of the paper:
//!
//! * **Hash join** — both inputs are re-partitioned on the join key (skipped for
//!   an input already partitioned on it), then joined with a per-partition
//!   dynamic hash join. With a join memory budget configured
//!   (`RDO_JOIN_BUDGET`), partitions whose build side exceeds the budget run
//!   as grace/hybrid hash joins through the spill store ([`grace`]).
//! * **Broadcast join** — the (small) build input is replicated to every
//!   partition of the probe input.
//! * **Indexed nested-loop join** — the build input is broadcast and used to
//!   probe a secondary index of a base dataset.
//! * **Reader** — later jobs scan materialized intermediates back (the Sink
//!   that writes them, collecting online statistics, is `rdo_parallel::sink`).
//!
//! Every operator runs the per-partition kernels of [`partition`] directly on
//! [`rdo_common::Tuple`] rows, the engine's one row format in memory, in
//! spill pages and on the wire.

pub mod cost;
pub mod data;
pub mod expr;
pub mod grace;
pub mod partition;
pub mod plan;
pub mod post;
pub mod setup;

pub use cost::{CostModel, ExecutionMetrics};
pub use data::PartitionedData;
pub use expr::{CmpOp, Predicate, PredicateExpr, UdfFn};
pub use grace::{GraceContext, GraceTally};
pub use plan::{JoinAlgorithm, PhysicalPlan};
pub use post::{AggregateExpr, AggregateFunc, PostProcess, SortKey};
