//! Row-set comparison against an oracle.
//!
//! Rows are compared as sorted multisets. Every non-float value must
//! match exactly. A float must match bit for bit, or else lie within
//! [`SUMMATION_TOLERANCE`] of the oracle: two correct plans (a join
//! order picked by re-optimization, a cached sub-plan, a partitioned
//! aggregate) sum the same values in different orders and may then
//! differ in the last few bits. Every inexact float is counted and its
//! relative error reported, so a drift toward the tolerance is visible.

use midq::common::{Row, Value};

/// Largest relative difference accepted between a float and its oracle.
/// Reordered summation of n values errs by about n·2⁻⁵³ relative to the
/// sum's magnitude; 1e-9 covers far more rows than any workload
/// aggregates while still catching a lost or duplicated row.
pub const SUMMATION_TOLERANCE: f64 = 1e-9;

/// One row in canonical form: its non-float values rendered exactly,
/// and its floats kept aside for the tolerant comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonRow {
    exact: String,
    floats: Vec<f64>,
}

/// A result set in canonical (sorted) form.
pub type Canon = Vec<CanonRow>;

/// Render `rows` canonically.
pub fn canon(rows: &[Row]) -> Canon {
    let mut out: Canon = rows
        .iter()
        .map(|r| {
            let mut exact = String::new();
            let mut floats = Vec::new();
            for v in r.values() {
                match v {
                    Value::Float(f) => {
                        exact.push_str("|f");
                        floats.push(*f);
                    }
                    other => {
                        exact.push('|');
                        exact.push_str(&other.to_string());
                    }
                }
            }
            CanonRow { exact, floats }
        })
        .collect();
    out.sort_by(|a, b| {
        a.exact.cmp(&b.exact).then_with(|| {
            a.floats
                .iter()
                .zip(&b.floats)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    out
}

/// How a result set compared with its oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Agreement {
    /// Floats that matched only within the tolerance.
    pub inexact_floats: u64,
    /// Largest relative difference seen among them.
    pub max_rel_diff: f64,
}

/// Compare `got` with the oracle `want`; `Err` names the first mismatch.
pub fn compare(want: &Canon, got: &Canon) -> Result<Agreement, String> {
    if want.len() != got.len() {
        return Err(format!("{} rows, oracle has {}", got.len(), want.len()));
    }
    let mut agreement = Agreement::default();
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w.exact != g.exact || w.floats.len() != g.floats.len() {
            return Err(format!("row {i}: {} vs oracle {}", g.exact, w.exact));
        }
        for (&x, &y) in w.floats.iter().zip(&g.floats) {
            if x.to_bits() == y.to_bits() {
                continue;
            }
            let rel = (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
            if rel.is_nan() || rel > SUMMATION_TOLERANCE {
                return Err(format!("row {i}: float {y:e} vs oracle {x:e}"));
            }
            agreement.inexact_floats += 1;
            agreement.max_rel_diff = agreement.max_rel_diff.max(rel);
        }
    }
    Ok(agreement)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[(i64, f64)]) -> Vec<Row> {
        vals.iter()
            .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Float(v)]))
            .collect()
    }

    #[test]
    fn identical_and_reordered_rows_agree_exactly() {
        let want = canon(&rows(&[(1, 0.5), (2, 1.25)]));
        let got = canon(&rows(&[(2, 1.25), (1, 0.5)]));
        assert_eq!(compare(&want, &got), Ok(Agreement::default()));
    }

    #[test]
    fn last_bit_summation_differences_are_counted_not_failed() {
        let x: f64 = 0.1 + 0.2 + 0.3;
        let y: f64 = 0.3 + 0.2 + 0.1;
        assert_ne!(x.to_bits(), y.to_bits());
        let a = compare(&canon(&rows(&[(1, x)])), &canon(&rows(&[(1, y)]))).unwrap();
        assert_eq!(a.inexact_floats, 1);
        assert!(a.max_rel_diff > 0.0 && a.max_rel_diff <= SUMMATION_TOLERANCE);
    }

    #[test]
    fn doctored_results_trip_the_comparator() {
        let want = canon(&rows(&[(1, 100.0), (2, 200.0)]));
        // A wrong aggregate.
        assert!(compare(&want, &canon(&rows(&[(1, 100.0), (2, 200.5)]))).is_err());
        // A wrong key.
        assert!(compare(&want, &canon(&rows(&[(1, 100.0), (3, 200.0)]))).is_err());
        // A lost row and a duplicated row.
        assert!(compare(&want, &canon(&rows(&[(1, 100.0)]))).is_err());
        assert!(compare(&want, &canon(&rows(&[(1, 100.0), (1, 100.0)]))).is_err());
        // A NaN never matches.
        assert!(compare(&want, &canon(&rows(&[(1, 100.0), (2, f64::NAN)]))).is_err());
    }
}
