//! Seed-drawn SQL text for the cold workloads.
//!
//! A cold query must miss both server caches: the plan cache (keyed by the
//! normalized SQL text) and the learned-stats catalog (keyed by each pushed-
//! down dataset's value-qualified filter). The paper queries' own literals
//! take few values (`myyear` has four years, `mysub` five brands, `d_moy`
//! twelve months), so every pushed-down dataset also gets a seed-drawn range
//! on one more of its columns (`o_orderdate`, `p_partkey`, `d_dom`). Each
//! filter is drawn afresh until its literal tuple has not been used in the
//! run, so no filter key — and hence no SQL text — repeats.
//!
//! The Q8/Q9 ranges (the queries `spill_admission` sends) are jitter that
//! keeps each variant's selectivity within a few percent of the paper
//! query's, so the cost of a run does not hinge on which literals the seed
//! drew. Every range keeps the result non-empty at `gb(1000)`: Q9 keeps to
//! the generated order years 1995–1998, Q17's return (d2) and catalog-sale
//! (d3) windows start at the sale month and reach at least two months past
//! it (returns follow sales by 1–60 days, catalog sales follow returns by
//! 0–30 days).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdo_workloads::tpch::{PART_TYPES, REGIONS};
use std::collections::HashSet;

/// The paper query a variant instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Template {
    Q8,
    Q9,
    Q17,
    Q50,
}

impl Template {
    pub fn name(self) -> &'static str {
        match self {
            Template::Q8 => "Q8",
            Template::Q9 => "Q9",
            Template::Q17 => "Q17",
            Template::Q50 => "Q50",
        }
    }
}

/// One query a client sends.
#[derive(Debug, Clone)]
pub struct Variant {
    pub template: Template,
    pub sql: String,
}

/// Draws variants of a fixed template rotation; the same seed yields the
/// same sequence.
pub struct VariantGen {
    rng: StdRng,
    rotation: Vec<Template>,
    next: usize,
    /// Literal tuples already used, per pushed-down filter.
    used: HashSet<String>,
}

/// Fresh draws attempted per filter before the literal space counts as
/// exhausted.
const MAX_TRIES: usize = 10_000;

impl VariantGen {
    pub fn new(seed: u64, rotation: &[Template]) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x7661_7269_616e_7473),
            rotation: rotation.to_vec(),
            next: 0,
            used: HashSet::new(),
        }
    }

    /// The next variant of the rotation.
    pub fn draw(&mut self) -> Result<Variant, String> {
        let template = self.rotation[self.next % self.rotation.len()];
        self.next += 1;
        let sql = match template {
            Template::Q8 => self.q8()?,
            Template::Q9 => self.q9()?,
            Template::Q17 => self.q17()?,
            Template::Q50 => self.q50()?,
        };
        Ok(Variant { template, sql })
    }

    /// Draws a literal tuple for one filter that this run has not used yet.
    fn fresh<T: std::fmt::Debug>(
        &mut self,
        filter: &str,
        mut draw: impl FnMut(&mut StdRng) -> T,
    ) -> Result<T, String> {
        for _ in 0..MAX_TRIES {
            let tuple = draw(&mut self.rng);
            if self.used.insert(format!("{filter}{tuple:?}")) {
                return Ok(tuple);
            }
        }
        Err(format!("literal space of filter `{filter}` exhausted"))
    }

    /// A `d_moy = m AND d_year = y AND d_dom BETWEEN a AND b` filter on a
    /// date dimension aliased `d1` (shared by Q17 and Q50, whose `d1`
    /// filters have the same shape and so the same learned key space).
    /// Returns the filter with its month and year.
    fn d1(&mut self, months: std::ops::RangeInclusive<i64>) -> Result<(i64, i64, String), String> {
        let (m, y, a, b) = self.fresh("d1", |rng| {
            (
                rng.gen_range(months.clone()),
                rng.gen_range(1998i64..=2002),
                rng.gen_range(1i64..=8),
                rng.gen_range(23i64..=31),
            )
        })?;
        let filter = format!("d1.d_moy = {m} AND d1.d_year = {y} AND d1.d_dom BETWEEN {a} AND {b}");
        Ok((m, y, filter))
    }

    fn q8(&mut self) -> Result<String, String> {
        let region = REGIONS[self.rng.gen_range(0..REGIONS.len())];
        let ptype = PART_TYPES[self.rng.gen_range(0..PART_TYPES.len())];
        // Status is correlated with the date (orders before day 730 are
        // finalised): each variant filters one order year on the status its
        // orders carry, with window ends jittered by up to a month.
        let (status, lo, hi) = self.fresh("orders/q8", |rng| {
            let start = 365 * rng.gen_range(0i64..4);
            (
                if start < 730 { "F" } else { "O" },
                start + rng.gen_range(0i64..=30),
                start + 364 - rng.gen_range(0i64..=30),
            )
        })?;
        Ok(format!(
            "SELECT lineitem.l_extendedprice, orders.o_orderdate, n2.n_name \
             FROM lineitem, part, supplier, orders, customer, nation n1, nation n2, region \
             WHERE part.p_partkey = lineitem.l_partkey \
             AND supplier.s_suppkey = lineitem.l_suppkey \
             AND lineitem.l_orderkey = orders.o_orderkey \
             AND orders.o_custkey = customer.c_custkey \
             AND customer.c_nationkey = n1.n_nationkey \
             AND n1.n_regionkey = region.r_regionkey \
             AND region.r_name = '{region}' \
             AND supplier.s_nationkey = n2.n_nationkey \
             AND orders.o_orderdate BETWEEN {lo} AND {hi} \
             AND orders.o_orderstatus = '{status}' \
             AND part.p_type = '{ptype}'"
        ))
    }

    fn q9(&mut self) -> Result<String, String> {
        let (year, lo, hi) = self.fresh("orders/q9", |rng| {
            let year = rng.gen_range(1995i64..=1998);
            let start = (year - 1995) * 365;
            (
                year,
                start + rng.gen_range(0i64..=30),
                start + 364 - rng.gen_range(0i64..=30),
            )
        })?;
        // `p_partkey >= k` drops at most 1% of the parts at gb(1000).
        let (brand, min_key) = self.fresh("part/q9", |rng| {
            (rng.gen_range(1i64..=5), rng.gen_range(0i64..200))
        })?;
        Ok(format!(
            "SELECT nation.n_name, orders.o_orderdate, lineitem.l_quantity \
             FROM lineitem, part, supplier, partsupp, orders, nation \
             WHERE supplier.s_suppkey = lineitem.l_suppkey \
             AND partsupp.ps_suppkey = lineitem.l_suppkey \
             AND partsupp.ps_partkey = lineitem.l_partkey \
             AND part.p_partkey = lineitem.l_partkey \
             AND orders.o_orderkey = lineitem.l_orderkey \
             AND myyear(orders.o_orderdate) = {year} \
             AND orders.o_orderdate BETWEEN {lo} AND {hi} \
             AND mysub(part.p_brand) = '#{brand}' \
             AND part.p_partkey >= {min_key} \
             AND supplier.s_nationkey = nation.n_nationkey"
        ))
    }

    fn q17(&mut self) -> Result<String, String> {
        // The sale month and year of d1 anchor the d2/d3 windows.
        let (m, y, d1) = self.d1(2..=8)?;
        let (m2, a2, b2) = self.fresh(&format!("d2/{m}/{y}"), |rng| {
            (
                (m + rng.gen_range(2i64..=4)).min(12),
                rng.gen_range(1i64..=4),
                rng.gen_range(27i64..=31),
            )
        })?;
        let (m3, a3, b3) = self.fresh(&format!("d3/{m}/{y}"), |rng| {
            (
                (m2 + rng.gen_range(1i64..=2)).min(12),
                rng.gen_range(1i64..=4),
                rng.gen_range(27i64..=31),
            )
        })?;
        Ok(format!(
            "SELECT item.i_item_id, store.s_store_name, \
             SUM(store_sales.ss_quantity) AS total_quantity \
             FROM store_sales, store_returns, catalog_sales, date_dim d1, date_dim d2, \
             date_dim d3, store, item \
             WHERE {d1} \
             AND d1.d_date_sk = store_sales.ss_sold_date_sk \
             AND item.i_item_sk = store_sales.ss_item_sk \
             AND store.s_store_sk = store_sales.ss_store_sk \
             AND store_sales.ss_customer_sk = store_returns.sr_customer_sk \
             AND store_sales.ss_item_sk = store_returns.sr_item_sk \
             AND store_sales.ss_ticket_number = store_returns.sr_ticket_number \
             AND store_returns.sr_returned_date_sk = d2.d_date_sk \
             AND d2.d_moy BETWEEN {m} AND {m2} AND d2.d_year = {y} \
             AND d2.d_dom BETWEEN {a2} AND {b2} \
             AND store_returns.sr_customer_sk = catalog_sales.cs_bill_customer_sk \
             AND store_returns.sr_item_sk = catalog_sales.cs_item_sk \
             AND catalog_sales.cs_sold_date_sk = d3.d_date_sk \
             AND d3.d_moy BETWEEN {m} AND {m3} AND d3.d_year = {y} \
             AND d3.d_dom BETWEEN {a3} AND {b3} \
             GROUP BY item.i_item_id, store.s_store_name \
             ORDER BY item.i_item_id, store.s_store_name \
             LIMIT 100"
        ))
    }

    fn q50(&mut self) -> Result<String, String> {
        let (_, _, d1) = self.d1(1..=12)?;
        Ok(format!(
            "SELECT store.s_store_name, store_sales.ss_ticket_number \
             FROM store_sales, store_returns, date_dim d1, date_dim d2, store \
             WHERE {d1} \
             AND d1.d_date_sk = store_returns.sr_returned_date_sk \
             AND store_sales.ss_customer_sk = store_returns.sr_customer_sk \
             AND store_sales.ss_item_sk = store_returns.sr_item_sk \
             AND store_sales.ss_ticket_number = store_returns.sr_ticket_number \
             AND store_sales.ss_sold_date_sk = d2.d_date_sk \
             AND store_sales.ss_store_sk = store.s_store_sk"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Template; 4] = [Template::Q8, Template::Q9, Template::Q17, Template::Q50];

    #[test]
    fn same_seed_same_texts_and_no_text_repeats() {
        let draw = |seed| {
            let mut generator = VariantGen::new(seed, &ALL);
            (0..2_000)
                .map(|_| generator.draw().expect("literal space suffices").sql)
                .collect::<Vec<_>>()
        };
        let texts = draw(7);
        assert_eq!(texts, draw(7));
        assert_ne!(texts, draw(8));
        let distinct: HashSet<&String> = texts.iter().collect();
        assert_eq!(distinct.len(), texts.len());
    }
}
