//! Selection predicates, including the "complex" predicates (UDFs and
//! parameterized values) whose selectivity a static optimizer cannot estimate.
//!
//! Section 5.1 of the paper distinguishes three cases:
//!
//! 1. a single fixed-value predicate — estimable from the equi-height histogram;
//! 2. multiple fixed-value predicates — traditional optimizers multiply the
//!    individual selectivities (assuming independence), which is wrong under
//!    correlation;
//! 3. complex predicates (UDFs, parameterized values) — traditional optimizers
//!    fall back to the System-R default factors (1/10 for equality, 1/3 for
//!    inequalities).
//!
//! The dynamic approach instead *executes* such predicates first and measures
//! the result, so [`Predicate::evaluate`] is the ground truth while
//! [`Predicate::estimate_selectivity`] is what the static baselines see.

use rdo_common::{FieldRef, RdoError, Result, Schema, Tuple, Value};
use rdo_sketch::DatasetStats;
use std::fmt;
use std::sync::Arc;

/// Comparison operators supported in the WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn apply(&self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The System-R default selectivity factor used when nothing is known about
    /// the operand (Selinger et al., as cited by the paper).
    pub fn default_selectivity(&self) -> f64 {
        match self {
            CmpOp::Eq => 0.1,
            CmpOp::Ne => 0.9,
            _ => 1.0 / 3.0,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A user-defined boolean function over one column value.
pub type UdfFn = Arc<dyn Fn(&Value) -> bool + Send + Sync>;

/// The expression forms a local predicate can take.
#[derive(Clone)]
pub enum PredicateExpr {
    /// `field op constant`
    Compare {
        /// Column being filtered.
        field: FieldRef,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: Value,
    },
    /// `field BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column being filtered.
        field: FieldRef,
        /// Lower bound (inclusive).
        lo: Value,
        /// Upper bound (inclusive).
        hi: Value,
    },
    /// `field IN (values...)`.
    InList {
        /// Column being filtered.
        field: FieldRef,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// `udf(field)` — a black-box boolean UDF.
    Udf {
        /// Name used for display/explain output.
        name: String,
        /// Column the UDF reads.
        field: FieldRef,
        /// The function itself.
        func: UdfFn,
    },
}

impl fmt::Debug for PredicateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateExpr::Compare { field, op, value } => {
                write!(f, "{field} {op} {value}")
            }
            PredicateExpr::Between { field, lo, hi } => {
                write!(f, "{field} BETWEEN {lo} AND {hi}")
            }
            PredicateExpr::InList { field, values } => {
                write!(f, "{field} IN ({} values)", values.len())
            }
            PredicateExpr::Udf { name, field, .. } => write!(f, "{name}({field})"),
        }
    }
}

/// A local selection predicate on a single dataset.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// The predicate expression.
    pub expr: PredicateExpr,
    /// True if the constant(s) are query parameters bound only at runtime, so a
    /// static optimizer must use default selectivities even for simple
    /// comparisons.
    pub parameterized: bool,
}

impl Predicate {
    /// A simple comparison with a fixed value.
    pub fn compare(field: FieldRef, op: CmpOp, value: impl Into<Value>) -> Self {
        Self {
            expr: PredicateExpr::Compare {
                field,
                op,
                value: value.into(),
            },
            parameterized: false,
        }
    }

    /// An inclusive range predicate with fixed bounds.
    pub fn between(field: FieldRef, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Self {
            expr: PredicateExpr::Between {
                field,
                lo: lo.into(),
                hi: hi.into(),
            },
            parameterized: false,
        }
    }

    /// An IN-list predicate with fixed values.
    pub fn in_list(field: FieldRef, values: Vec<Value>) -> Self {
        Self {
            expr: PredicateExpr::InList { field, values },
            parameterized: false,
        }
    }

    /// A black-box UDF predicate.
    pub fn udf(
        name: impl Into<String>,
        field: FieldRef,
        func: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            expr: PredicateExpr::Udf {
                name: name.into(),
                field,
                func: Arc::new(func),
            },
            parameterized: false,
        }
    }

    /// Marks the predicate as parameterized (value bound at runtime).
    pub fn parameterized(mut self) -> Self {
        self.parameterized = true;
        self
    }

    /// The dataset the predicate is local to.
    pub fn dataset(&self) -> &str {
        &self.field().dataset
    }

    /// The column the predicate reads.
    pub fn field(&self) -> &FieldRef {
        match &self.expr {
            PredicateExpr::Compare { field, .. }
            | PredicateExpr::Between { field, .. }
            | PredicateExpr::InList { field, .. }
            | PredicateExpr::Udf { field, .. } => field,
        }
    }

    /// True if the predicate is "complex" in the paper's sense: a UDF or a
    /// parameterized comparison, whose selectivity a static optimizer cannot
    /// derive from histograms.
    pub fn is_complex(&self) -> bool {
        self.parameterized || matches!(self.expr, PredicateExpr::Udf { .. })
    }

    /// Evaluates the predicate against one tuple.
    pub fn evaluate(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        Ok(self.matches(tuple.value(self.column(schema)?)))
    }

    /// Index of the predicate's column in `schema`. Kernels that evaluate a
    /// predicate over many rows of one schema resolve it once.
    pub fn column(&self, schema: &Schema) -> Result<usize> {
        schema.resolve(self.field())
    }

    /// The predicate's decision for one column value; NULL never matches.
    ///
    /// ```
    /// use rdo_common::{FieldRef, Value};
    /// use rdo_exec::Predicate;
    ///
    /// let p = Predicate::between(FieldRef::new("t", "k"), 2i64, 4i64);
    /// assert!(p.matches(&Value::Int64(2)) && p.matches(&Value::Date(4)));
    /// assert!(!p.matches(&Value::Int64(5)));
    /// assert!(!p.matches(&Value::Null));
    /// ```
    pub fn matches(&self, value: &Value) -> bool {
        if value.is_null() {
            return false;
        }
        match &self.expr {
            PredicateExpr::Compare { op, value: rhs, .. } => op.apply(value, rhs),
            PredicateExpr::Between { lo, hi, .. } => value >= lo && value <= hi,
            PredicateExpr::InList { values, .. } => values.contains(value),
            PredicateExpr::Udf { func, .. } => func(value),
        }
    }

    /// Selectivity as seen by a *static* optimizer: histogram-based for simple
    /// fixed-value predicates, System-R default factors for complex ones.
    pub fn estimate_selectivity(&self, stats: Option<&DatasetStats>) -> f64 {
        if self.is_complex() {
            return self.default_selectivity();
        }
        let column = stats.and_then(|s| s.column(&self.field().field));
        match (&self.expr, column) {
            (PredicateExpr::Compare { op, value, .. }, Some(col)) => {
                let v = value.numeric_rank();
                match op {
                    CmpOp::Eq => col.equality_selectivity(v),
                    CmpOp::Ne => 1.0 - col.equality_selectivity(v),
                    CmpOp::Lt | CmpOp::Le => col.range_selectivity(f64::NEG_INFINITY, v),
                    CmpOp::Gt | CmpOp::Ge => col.range_selectivity(v, f64::INFINITY),
                }
            }
            (PredicateExpr::Between { lo, hi, .. }, Some(col)) => {
                col.range_selectivity(lo.numeric_rank(), hi.numeric_rank())
            }
            (PredicateExpr::InList { values, .. }, Some(col)) => values
                .iter()
                .map(|v| col.equality_selectivity(v.numeric_rank()))
                .sum::<f64>()
                .min(1.0),
            _ => self.default_selectivity(),
        }
    }

    /// The System-R default selectivity factor for this predicate shape.
    pub fn default_selectivity(&self) -> f64 {
        match &self.expr {
            PredicateExpr::Compare { op, .. } => op.default_selectivity(),
            PredicateExpr::Between { .. } => 0.25,
            PredicateExpr::InList { values, .. } => (0.1 * values.len() as f64).min(0.5),
            PredicateExpr::Udf { .. } => 0.1,
        }
    }

    /// Short human-readable form used by EXPLAIN output.
    pub fn describe(&self) -> String {
        let base = format!("{:?}", self.expr);
        if self.parameterized {
            format!("{base} [param]")
        } else {
            base
        }
    }
}

/// Evaluates a conjunction of predicates.
pub fn evaluate_all(predicates: &[Predicate], schema: &Schema, tuple: &Tuple) -> Result<bool> {
    for p in predicates {
        if !p.evaluate(schema, tuple)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Static selectivity of a conjunction assuming independence (what traditional
/// optimizers do; the paper highlights this as a source of error for correlated
/// predicates).
pub fn combined_selectivity(predicates: &[Predicate], stats: Option<&DatasetStats>) -> f64 {
    predicates
        .iter()
        .map(|p| p.estimate_selectivity(stats))
        .product()
}

/// Convenience error constructor used by operators when a predicate references
/// a column missing from the input schema.
pub fn unknown_field(field: &FieldRef) -> RdoError {
    RdoError::UnknownField(field.qualified())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::DataType;
    use rdo_sketch::DatasetStatsBuilder;

    fn schema() -> Schema {
        Schema::for_dataset(
            "part",
            &[
                ("p_partkey", DataType::Int64),
                ("p_size", DataType::Int64),
                ("p_brand", DataType::Utf8),
            ],
        )
    }

    fn tuple(key: i64, size: i64, brand: &str) -> Tuple {
        Tuple::new(vec![
            Value::Int64(key),
            Value::Int64(size),
            Value::from(brand),
        ])
    }

    fn stats(n: i64) -> DatasetStats {
        let mut b = DatasetStatsBuilder::all_columns(&schema());
        for i in 0..n {
            b.observe(&tuple(i, i % 50, &format!("Brand#{}", i % 5)));
        }
        b.build()
    }

    #[test]
    fn compare_evaluation() {
        let s = schema();
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Lt, 10i64);
        assert!(p.evaluate(&s, &tuple(1, 5, "x")).unwrap());
        assert!(!p.evaluate(&s, &tuple(1, 15, "x")).unwrap());
    }

    #[test]
    fn between_and_inlist_evaluation() {
        let s = schema();
        let b = Predicate::between(FieldRef::new("part", "p_size"), 10i64, 20i64);
        assert!(b.evaluate(&s, &tuple(1, 10, "x")).unwrap());
        assert!(b.evaluate(&s, &tuple(1, 20, "x")).unwrap());
        assert!(!b.evaluate(&s, &tuple(1, 21, "x")).unwrap());

        let l = Predicate::in_list(
            FieldRef::new("part", "p_brand"),
            vec![Value::from("A"), Value::from("B")],
        );
        assert!(l.evaluate(&s, &tuple(1, 1, "A")).unwrap());
        assert!(!l.evaluate(&s, &tuple(1, 1, "C")).unwrap());
    }

    #[test]
    fn udf_evaluation_and_complexity() {
        let s = schema();
        let p = Predicate::udf("mysub", FieldRef::new("part", "p_brand"), |v| {
            v.as_str().map(|s| s.ends_with("#3")).unwrap_or(false)
        });
        assert!(p.is_complex());
        assert!(p.evaluate(&s, &tuple(1, 1, "Brand#3")).unwrap());
        assert!(!p.evaluate(&s, &tuple(1, 1, "Brand#4")).unwrap());
    }

    #[test]
    fn null_never_matches() {
        let s = schema();
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Ne, 5i64);
        let t = Tuple::new(vec![Value::Int64(1), Value::Null, Value::from("x")]);
        assert!(!p.evaluate(&s, &t).unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        let p = Predicate::compare(FieldRef::new("part", "missing"), CmpOp::Eq, 1i64);
        assert!(p.evaluate(&s, &tuple(1, 1, "x")).is_err());
    }

    #[test]
    fn parameterized_predicate_uses_defaults() {
        let st = stats(1000);
        let p =
            Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Eq, 3i64).parameterized();
        assert!(p.is_complex());
        assert_eq!(p.estimate_selectivity(Some(&st)), 0.1);
        // The same predicate un-parameterized uses the histogram (1/50 ≈ 0.02).
        let q = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Eq, 3i64);
        let est = q.estimate_selectivity(Some(&st));
        assert!(est < 0.05, "histogram estimate {est} should be ~1/50");
    }

    #[test]
    fn udf_estimate_is_default_factor() {
        let st = stats(1000);
        let p = Predicate::udf("f", FieldRef::new("part", "p_brand"), |_| true);
        assert_eq!(p.estimate_selectivity(Some(&st)), 0.1);
    }

    #[test]
    fn range_estimate_uses_histogram() {
        let st = stats(10_000);
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Lt, 25i64);
        let est = p.estimate_selectivity(Some(&st));
        assert!((est - 0.5).abs() < 0.1, "estimate {est} should be ~0.5");
    }

    #[test]
    fn missing_stats_fall_back_to_defaults() {
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Gt, 25i64);
        assert!((p.estimate_selectivity(None) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn conjunction_evaluation_and_independence_assumption() {
        let s = schema();
        let preds = vec![
            Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Lt, 10i64),
            Predicate::in_list(FieldRef::new("part", "p_brand"), vec![Value::from("A")]),
        ];
        assert!(evaluate_all(&preds, &s, &tuple(1, 5, "A")).unwrap());
        assert!(!evaluate_all(&preds, &s, &tuple(1, 5, "B")).unwrap());
        let st = stats(1000);
        let combined = combined_selectivity(&preds, Some(&st));
        let individual: f64 = preds
            .iter()
            .map(|p| p.estimate_selectivity(Some(&st)))
            .product();
        assert!((combined - individual).abs() < 1e-12);
    }

    #[test]
    fn describe_mentions_parameterization() {
        let p = Predicate::compare(FieldRef::new("d", "f"), CmpOp::Eq, 1i64).parameterized();
        assert!(p.describe().contains("[param]"));
        let u = Predicate::udf("myudf", FieldRef::new("d", "f"), |_| true);
        assert!(u.describe().contains("myudf"));
    }

    #[test]
    fn column_resolves_the_predicate_field_in_the_schema() {
        let s = schema();
        let p = Predicate::compare(FieldRef::new("part", "p_brand"), CmpOp::Eq, "A");
        assert_eq!(p.column(&s).unwrap(), 2);
        let size = Predicate::between(FieldRef::new("part", "p_size"), 1i64, 2i64);
        assert_eq!(size.column(&s).unwrap(), 1);
        // An alias-qualified field falls back to the unambiguous column name.
        let aliased = Predicate::compare(FieldRef::new("p", "p_size"), CmpOp::Eq, 1i64);
        assert_eq!(aliased.column(&s).unwrap(), 1);
        let missing = Predicate::compare(FieldRef::new("part", "p_name"), CmpOp::Eq, 1i64);
        assert!(missing.column(&s).is_err());
    }

    #[test]
    fn matches_agrees_with_evaluate() {
        let s = schema();
        let predicates = vec![
            Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Ge, 3i64),
            Predicate::between(FieldRef::new("part", "p_size"), 2i64, 4i64),
            Predicate::in_list(
                FieldRef::new("part", "p_brand"),
                vec![Value::from("b1"), Value::from("b3")],
            ),
            Predicate::udf("odd", FieldRef::new("part", "p_partkey"), |v| {
                v.as_i64().is_some_and(|k| k % 2 == 1)
            }),
        ];
        for key in 0..6 {
            let t = tuple(key, key, &format!("b{key}"));
            for p in &predicates {
                let column = p.column(&s).unwrap();
                assert_eq!(
                    p.matches(t.value(column)),
                    p.evaluate(&s, &t).unwrap(),
                    "{} on key {key}",
                    p.describe()
                );
            }
        }
    }

    #[test]
    fn null_never_matches_any_predicate_shape() {
        let field = FieldRef::new("part", "p_size");
        let shapes = vec![
            Predicate::compare(field.clone(), CmpOp::Eq, Value::Null),
            Predicate::compare(field.clone(), CmpOp::Le, 100i64),
            Predicate::between(field.clone(), Value::Null, 100i64),
            Predicate::in_list(field.clone(), vec![Value::Null, Value::Int64(1)]),
            Predicate::udf("always", field, |_| true),
        ];
        for p in &shapes {
            assert!(!p.matches(&Value::Null), "{}", p.describe());
        }
    }

    #[test]
    fn empty_ranges_and_lists_match_nothing() {
        let field = FieldRef::new("part", "p_size");
        let inverted = Predicate::between(field.clone(), 10i64, 5i64);
        let empty = Predicate::in_list(field, Vec::new());
        for v in [0i64, 5, 7, 10, 11] {
            assert!(!inverted.matches(&Value::Int64(v)));
            assert!(!empty.matches(&Value::Int64(v)));
        }
    }

    #[test]
    fn comparisons_follow_the_value_order() {
        let field = FieldRef::new("part", "p_size");
        let ops = [
            (CmpOp::Eq, [false, true, false]),
            (CmpOp::Ne, [true, false, true]),
            (CmpOp::Lt, [true, false, false]),
            (CmpOp::Le, [true, true, false]),
            (CmpOp::Gt, [false, false, true]),
            (CmpOp::Ge, [false, true, true]),
        ];
        for (op, expected) in ops {
            let p = Predicate::compare(field.clone(), op, 5i64);
            for (v, want) in [4i64, 5, 6].into_iter().zip(expected) {
                assert_eq!(p.matches(&Value::Int64(v)), want, "{v} {op} 5");
                // A date with the same payload compares as the same number.
                assert_eq!(p.matches(&Value::Date(v)), want, "d{v} {op} 5");
            }
            // Integers and floats compare numerically.
            assert_eq!(p.matches(&Value::Float64(5.0)), expected[1], "5.0 {op} 5");
        }
    }

    #[test]
    fn float_comparisons_use_a_total_order() {
        let field = FieldRef::new("t", "f");
        let eq_nan = Predicate::compare(field.clone(), CmpOp::Eq, f64::NAN);
        assert!(eq_nan.matches(&Value::Float64(f64::NAN)));
        assert!(!eq_nan.matches(&Value::Float64(1.0)));
        let eq_zero = Predicate::compare(field.clone(), CmpOp::Eq, 0.0);
        assert!(eq_zero.matches(&Value::Float64(0.0)));
        assert!(
            !eq_zero.matches(&Value::Float64(-0.0)),
            "-0.0 sorts below 0.0 under the total order"
        );
        let below = Predicate::compare(field, CmpOp::Lt, f64::INFINITY);
        assert!(below.matches(&Value::Float64(f64::MAX)));
        assert!(!below.matches(&Value::Float64(f64::NAN)));
    }

    #[test]
    fn default_selectivities_follow_the_predicate_shape() {
        let field = FieldRef::new("part", "p_size");
        assert_eq!(CmpOp::Eq.default_selectivity(), 0.1);
        assert_eq!(CmpOp::Ne.default_selectivity(), 0.9);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert!((op.default_selectivity() - 1.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(
            Predicate::between(field.clone(), 1i64, 2i64).default_selectivity(),
            0.25
        );
        let list = |n: i64| Predicate::in_list(field.clone(), (0..n).map(Value::Int64).collect());
        assert!((list(2).default_selectivity() - 0.2).abs() < 1e-12);
        assert_eq!(list(9).default_selectivity(), 0.5, "capped at one half");
        assert_eq!(
            Predicate::udf("u", field, |_| true).default_selectivity(),
            0.1
        );
    }

    #[test]
    fn operators_display_as_sql() {
        let shown: Vec<String> = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(shown, ["=", "!=", "<", "<=", ">", ">="]);
        let p = Predicate::between(FieldRef::new("part", "p_size"), 1i64, 9i64);
        assert_eq!(p.describe(), "part.p_size BETWEEN 1 AND 9");
        assert_eq!(p.dataset(), "part");
        assert!(!p.is_complex());
    }
}
