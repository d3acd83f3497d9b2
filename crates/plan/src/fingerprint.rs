//! Canonical sub-plan fingerprints for the cross-query cache.
//!
//! The materialization cache and the statistics feedback store key
//! their entries by a structural hash of the *producing sub-plan*. A
//! plain hash of the tree (like `plan_hash` over `Debug` in the core
//! crate) would split keys on irrelevant differences — collector and
//! exchange decoration, conjunct order inside a predicate, the
//! build/probe orientation of a hash join — so this module renders a
//! plan to a *canonical string* first and FNV-1a-hashes that:
//!
//! * [`PhysOp::StatsCollector`] and [`PhysOp::Exchange`] are
//!   transparent: they pass rows through unchanged, so the canonical
//!   form is their child's;
//! * predicate conjuncts (scan filters, residuals, standalone filters)
//!   are rendered individually and sorted;
//! * a hash join's two children are rendered and then *sorted* as
//!   strings, with the join keys rendered as name pairs (each pair
//!   internally sorted) — `A ⋈ B` and `B ⋈ A` fingerprint equally;
//! * everything else renders operator + operands + children in order.
//!
//! A deliberate limitation: a spliced [`PhysOp::CachedScan`] renders as
//! its own token (`cached:<fp>`), not as the sub-tree it replaced, so a
//! parent of a spliced node does not fingerprint-match its fully-inline
//! form. The engine probes top-down (largest match wins), which makes
//! this case unreachable in practice.

use mq_common::fnv1a;

use crate::physical::{PhysOp, PhysPlan};

/// Canonical fingerprint of the sub-plan rooted at `plan`.
pub fn subplan_fingerprint(plan: &PhysPlan) -> u64 {
    fnv1a(canonical_form(plan).as_bytes())
}

/// Render a predicate as its sorted, individually-rendered conjuncts.
fn canon_predicate(expr: &mq_expr::Expr) -> String {
    let mut parts: Vec<String> = expr.conjuncts().iter().map(|c| c.to_string()).collect();
    parts.sort_unstable();
    parts.join("&")
}

fn canon_opt_predicate(expr: &Option<mq_expr::Expr>) -> String {
    expr.as_ref().map(canon_predicate).unwrap_or_default()
}

/// The canonical string of a sub-plan (exposed for tests; hash this
/// with FNV-1a to get the fingerprint).
pub fn canonical_form(plan: &PhysPlan) -> String {
    match &plan.op {
        // Transparent decoration: rows pass through unchanged.
        PhysOp::StatsCollector { .. } | PhysOp::Exchange { .. } => {
            canonical_form(&plan.children[0])
        }
        PhysOp::SeqScan { spec, filter } => {
            format!("seq({};{})", spec.table, canon_opt_predicate(filter))
        }
        PhysOp::IndexScan {
            spec,
            column,
            lo,
            hi,
            residual,
            ..
        } => format!(
            "idx({};{column};{lo:?};{hi:?};{})",
            spec.table,
            canon_opt_predicate(residual)
        ),
        PhysOp::Filter { predicate } => format!(
            "filter({};{})",
            canon_predicate(predicate),
            canonical_form(&plan.children[0])
        ),
        PhysOp::Project { exprs } => {
            let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{n}={e}")).collect();
            format!(
                "proj({};{})",
                cols.join(","),
                canonical_form(&plan.children[0])
            )
        }
        PhysOp::HashJoin {
            build_keys,
            probe_keys,
        } => {
            // Join keys as (name, name) pairs, each pair internally
            // sorted, the pair list sorted — orientation-insensitive.
            let mut pairs: Vec<String> = build_keys
                .iter()
                .zip(probe_keys)
                .map(|(&b, &p)| {
                    let bn = plan.children[0].schema.field(b).qualified_name();
                    let pn = plan.children[1].schema.field(p).qualified_name();
                    if bn <= pn {
                        format!("{bn}={pn}")
                    } else {
                        format!("{pn}={bn}")
                    }
                })
                .collect();
            pairs.sort_unstable();
            let mut kids = [
                canonical_form(&plan.children[0]),
                canonical_form(&plan.children[1]),
            ];
            kids.sort_unstable();
            format!("hj({};{};{})", pairs.join(","), kids[0], kids[1])
        }
        PhysOp::IndexNLJoin {
            outer_key,
            inner,
            inner_column,
            residual,
            ..
        } => {
            let outer_name = plan.children[0].schema.field(*outer_key).qualified_name();
            format!(
                "inlj({outer_name}={}.{inner_column};{};{})",
                inner.table,
                canon_opt_predicate(residual),
                canonical_form(&plan.children[0])
            )
        }
        PhysOp::Sort { keys } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|(k, asc)| {
                    format!(
                        "{}{}",
                        plan.children[0].schema.field(*k).qualified_name(),
                        if *asc { "+" } else { "-" }
                    )
                })
                .collect();
            format!(
                "sort({};{})",
                ks.join(","),
                canonical_form(&plan.children[0])
            )
        }
        PhysOp::HashAggregate { group, aggs } => {
            let gs: Vec<String> = group
                .iter()
                .map(|&g| plan.children[0].schema.field(g).qualified_name())
                .collect();
            let aspecs: Vec<String> = aggs.iter().map(|a| format!("{a:?}")).collect();
            format!(
                "agg({};{};{})",
                gs.join(","),
                aspecs.join(","),
                canonical_form(&plan.children[0])
            )
        }
        PhysOp::Limit { n } => format!("limit({n};{})", canonical_form(&plan.children[0])),
        PhysOp::CachedScan { fingerprint, .. } => format!("cached:{fingerprint:016x}"),
    }
}

/// All base tables a sub-plan reads, sorted and deduplicated. The
/// cache uses these as the entry's invalidation dependencies; a
/// sub-plan that reads a temp or cache table is not a pure function of
/// base data and must not be promoted.
pub fn base_tables(plan: &PhysPlan) -> Vec<String> {
    let mut out = Vec::new();
    plan.walk(&mut |n| match &n.op {
        PhysOp::SeqScan { spec, .. }
        | PhysOp::IndexScan { spec, .. }
        | PhysOp::CachedScan { spec, .. } => out.push(spec.table.clone()),
        PhysOp::IndexNLJoin { inner, .. } => out.push(inner.table.clone()),
        _ => {}
    });
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{PhysOp, PhysPlan, ScanSpec};
    use mq_common::{DataType, Field, FileId, Schema};

    fn leaf(table: &str, filter: Option<mq_expr::Expr>) -> PhysPlan {
        PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: table.into(),
                    file: FileId(0),
                    pages: 10,
                    rows: 100,
                },
                filter,
            },
            vec![],
            Schema::new(vec![Field::qualified(table, "k", DataType::Int)]).unwrap(),
        )
    }

    fn join(l: PhysPlan, r: PhysPlan) -> PhysPlan {
        let schema = l.schema.join(&r.schema);
        PhysPlan::new(
            PhysOp::HashJoin {
                build_keys: vec![0],
                probe_keys: vec![0],
            },
            vec![l, r],
            schema,
        )
    }

    #[test]
    fn join_orientation_is_normalized() {
        let ab = join(leaf("a", None), leaf("b", None));
        let ba = join(leaf("b", None), leaf("a", None));
        assert_eq!(subplan_fingerprint(&ab), subplan_fingerprint(&ba));
        assert_ne!(
            subplan_fingerprint(&ab),
            subplan_fingerprint(&join(leaf("a", None), leaf("c", None)))
        );
    }

    #[test]
    fn conjunct_order_is_normalized() {
        let p1 = mq_expr::and(vec![
            mq_expr::cmp(mq_expr::CmpOp::Lt, mq_expr::col("k"), mq_expr::lit(5i64)),
            mq_expr::cmp(mq_expr::CmpOp::Gt, mq_expr::col("k"), mq_expr::lit(1i64)),
        ]);
        let p2 = mq_expr::and(vec![
            mq_expr::cmp(mq_expr::CmpOp::Gt, mq_expr::col("k"), mq_expr::lit(1i64)),
            mq_expr::cmp(mq_expr::CmpOp::Lt, mq_expr::col("k"), mq_expr::lit(5i64)),
        ]);
        assert_eq!(
            subplan_fingerprint(&leaf("t", Some(p1))),
            subplan_fingerprint(&leaf("t", Some(p2)))
        );
    }

    #[test]
    fn collectors_and_exchanges_are_transparent() {
        let base = join(leaf("a", None), leaf("b", None));
        let schema = base.schema.clone();
        let wrapped = PhysPlan::new(
            PhysOp::StatsCollector {
                specs: vec![],
                site: "s".into(),
            },
            vec![base.clone()],
            schema,
        );
        assert_eq!(subplan_fingerprint(&base), subplan_fingerprint(&wrapped));
    }

    #[test]
    fn base_tables_are_sorted_unique() {
        let p = join(join(leaf("b", None), leaf("a", None)), leaf("a", None));
        assert_eq!(base_tables(&p), vec!["a".to_string(), "b".to_string()]);
    }
}
