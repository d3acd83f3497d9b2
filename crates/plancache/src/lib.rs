//! # mq-plancache — normalized SQL plan cache
//!
//! The re-optimization engine (and the mq-cache materialization layer
//! under it) still pays full parsing, binding and DP join enumeration
//! for every run of a repeated query family. This crate removes that
//! cost: a [`NormalizedQuery`] key (case/whitespace folding, literal
//! parameterization, deterministic conjunct ordering — see
//! [`normalize`]) maps a whole family to one [`CachedPlan`] holding
//! the optimized physical plan *template* plus the occurrence→slot
//! binding needed to splice a later query's literals into it. A probe
//! that hits rebinds in O(plan) and skips enumeration entirely.
//!
//! Staleness is the engine's call, made through the probe's freshness
//! closure: a cached plan records the base-table data versions and the
//! structural sub-plan fingerprints it was built against; when a write
//! bumps a dependency version or the feedback store accumulates enough
//! corrections against those fingerprints, the probe reports
//! [`PlanProbe::Stale`] and the entry is dropped — the next run pays
//! one full enumeration (the `plan_cache_reoptimized` event) and
//! re-enters a fresh template.
//!
//! Capacity is entry-counted with LRU eviction: plans are metadata,
//! not materialized bytes, so a simple count bound suffices.

mod normalize;
mod prepared;

use std::collections::HashMap;

use mq_expr::{CmpOp, Expr};
use mq_plan::{subplan_fingerprint, PhysOp, PhysPlan};
use parking_lot::Mutex;

pub use normalize::{normalize, LiteralSlot, NormalizedQuery};
pub use prepared::{BoundSql, PreparedSql};

use mq_common::{DepStamp, Value};

/// Cumulative counters, for `\plancache stats` and the workload report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Entry capacity (LRU-evicted beyond this).
    pub capacity: usize,
    /// Lifetime probe hits (template rebound, enumeration skipped).
    pub hits: u64,
    /// Lifetime probe misses (no entry, or rebinding was unsafe).
    pub misses: u64,
    /// Lifetime stale re-optimizations (entry dropped on probe because
    /// a dependency version moved or feedback accumulated against it).
    pub stale_reopts: u64,
    /// Lifetime admissions.
    pub insertions: u64,
    /// Lifetime LRU evictions.
    pub evictions: u64,
    /// Probes that found a fresh entry but could not rebind the new
    /// literals safely (counted inside `misses` too).
    pub rebind_failures: u64,
}

/// Why a probe declared an entry stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Deps and feedback both quiet: the template is servable.
    Fresh,
    /// A dependency table's data version moved since entry.
    StaleWrite,
    /// Feedback corrections against the template's fingerprints passed
    /// the staleness threshold.
    StaleFeedback,
}

/// Result of a plan-cache probe.
pub enum PlanProbe {
    /// Rebound plan ready to execute, plus the optimizer work units
    /// the cold optimization paid (the enumeration cost skipped).
    Hit(Box<PhysPlan>, u64),
    /// The entry went stale and was dropped; re-optimize and re-enter.
    Stale(Freshness),
    /// No entry (or rebinding refused); optimize the ordinary way.
    Miss,
}

/// A cached optimized plan template for one query family.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    plan: PhysPlan,
    /// Occurrence→slot binding, in template literal-visit order.
    binding: Vec<Option<usize>>,
    /// Which slots some occurrence binds — a slot whose value changes
    /// but which no occurrence consumes would silently produce wrong
    /// rows, so rebinding refuses it.
    slot_bound: Vec<bool>,
    /// The literal values the template was captured with.
    slots: Vec<LiteralSlot>,
    /// Base tables (with data versions) the plan reads.
    pub deps: DepStamp,
    /// Structural sub-plan fingerprints — the feedback store's
    /// correction counters against these drive staleness.
    pub fingerprints: Vec<u64>,
    /// Feedback-applied sum over `fingerprints` at capture time.
    pub applied_at: u64,
    /// Optimizer work units the cold optimization charged.
    pub opt_work_units: u64,
    /// A representative member's SQL text (the statement whose cold
    /// optimization produced this template). Snapshots persist it
    /// instead of the physical plan: re-normalizing and re-optimizing
    /// the text at restore reproduces the template against the restored
    /// catalog, so the format never has to version plan internals.
    pub sql: Option<String>,
    last_used: u64,
}

impl CachedPlan {
    /// Capture a template from a freshly optimized plan: clone it,
    /// enumerate its literal occurrences in deterministic visit order,
    /// and match each against the normalized query's slots (preferring
    /// column+operator+value agreement, then column+value, then value
    /// alone; implied-predicate duplicates may share a slot). An
    /// occurrence tying between slots that are not provably the same
    /// predicate stays unbound — rebinding refuses a changed unbound
    /// slot, so ambiguity degrades to a cache miss, never to a literal
    /// spliced into the wrong conjunct. Call *before* collectors,
    /// exchanges or cached-scan splices decorate the plan.
    pub fn capture(
        plan: &PhysPlan,
        norm: &NormalizedQuery,
        opt_work_units: u64,
        deps: DepStamp,
        applied_at: u64,
    ) -> CachedPlan {
        let mut occurrences: Vec<(Option<String>, Option<String>, Value)> = Vec::new();
        let mut template = plan.clone();
        visit_plan_literals(&mut template, &mut |col, op, v| {
            occurrences.push((
                col.map(str::to_string),
                op.map(|o| o.to_string()),
                v.clone(),
            ));
        });

        let mut binding = Vec::with_capacity(occurrences.len());
        let mut used = vec![false; norm.slots.len()];
        let mut slot_bound = vec![false; norm.slots.len()];
        for (col, op, value) in &occurrences {
            let mut scored: Vec<(u32, usize)> = Vec::new();
            for (si, slot) in norm.slots.iter().enumerate() {
                if !values_equal(&slot.value, value) {
                    continue;
                }
                let mut score = 1u32;
                if let (Some(a), Some(b)) = (&slot.column, col) {
                    if a == b {
                        score += 2;
                    }
                }
                if let (Some(a), Some(b)) = (&slot.op, op) {
                    if a == b {
                        score += 1;
                    }
                }
                scored.push((score, si));
            }
            let Some(max) = scored.iter().map(|(s, _)| *s).max() else {
                binding.push(None); // fixed constant, not a family literal
                continue;
            };
            let tied: Vec<usize> = scored
                .iter()
                .filter(|(s, _)| *s == max)
                .map(|(_, si)| *si)
                .collect();
            // Slots tied at the same score are interchangeable only
            // when they all carry one fully-specified column+operator
            // signature (genuinely duplicated predicates). Any other
            // tie — e.g. literals inside arithmetic comparisons, whose
            // occurrences recover no column — is ambiguous: binding
            // either slot could splice one conjunct's literal into the
            // other's position. Refuse the occurrence instead; a later
            // rebind then hits the changed-unbound-slot refusal rather
            // than silently cross-binding.
            let first = &norm.slots[tied[0]];
            let interchangeable = first.column.is_some()
                && first.op.is_some()
                && tied.iter().all(|&si| {
                    norm.slots[si].column == first.column && norm.slots[si].op == first.op
                });
            if tied.len() > 1 && !interchangeable {
                binding.push(None);
                continue;
            }
            // Prefer an unused slot, then the lowest index, for
            // determinism; implied-predicate duplicates may share one.
            let si = tied
                .iter()
                .copied()
                .find(|&si| !used[si])
                .unwrap_or(tied[0]);
            used[si] = true;
            slot_bound[si] = true;
            binding.push(Some(si));
        }

        let fingerprints = structural_fingerprints(&template);
        CachedPlan {
            plan: template,
            binding,
            slot_bound,
            slots: norm.slots.clone(),
            deps,
            fingerprints,
            applied_at,
            opt_work_units,
            sql: None,
            last_used: 0,
        }
    }

    /// Rebind a family member's literals into the template. `None`
    /// when substitution would be unsafe: slot count or value type
    /// drifted, or a changed value belongs to a slot no plan literal
    /// consumes (so the change could not take effect).
    pub fn rebind(&self, slots: &[LiteralSlot]) -> Option<PhysPlan> {
        if slots.len() != self.slots.len() {
            return None;
        }
        for (i, (old, new)) in self.slots.iter().zip(slots).enumerate() {
            if !rebindable(&old.value, &new.value) {
                return None;
            }
            if !self.slot_bound[i] && !values_equal(&old.value, &new.value) {
                return None;
            }
        }
        let mut plan = self.plan.clone();
        let mut k = 0usize;
        visit_plan_literals(&mut plan, &mut |_, _, v| {
            if let Some(Some(si)) = self.binding.get(k) {
                *v = coerce_like(&slots[*si].value, v);
            }
            k += 1;
        });
        Some(plan)
    }
}

/// Structural (non-transparent) sub-plan fingerprints of a template,
/// deduped: the keys feedback corrections are counted under.
fn structural_fingerprints(plan: &PhysPlan) -> Vec<u64> {
    let mut out = Vec::new();
    collect_fps(plan, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn collect_fps(plan: &PhysPlan, out: &mut Vec<u64>) {
    if !matches!(
        plan.op,
        PhysOp::StatsCollector { .. } | PhysOp::Exchange { .. } | PhysOp::CachedScan { .. }
    ) {
        out.push(subplan_fingerprint(plan));
    }
    for c in &plan.children {
        collect_fps(c, out);
    }
}

/// Visit every literal embedded in the plan's operators, in a fixed
/// pre-order: per node, operator expressions first (index bounds
/// before residuals), then children left to right. Capture and rebind
/// both use this walk, so occurrence indexes always line up.
fn visit_plan_literals(
    plan: &mut PhysPlan,
    f: &mut impl FnMut(Option<&str>, Option<CmpOp>, &mut Value),
) {
    match &mut plan.op {
        PhysOp::SeqScan {
            filter: Some(e), ..
        } => visit_expr(e, f),
        PhysOp::IndexScan {
            column,
            lo,
            hi,
            residual,
            ..
        } => {
            if let Some(v) = lo {
                f(Some(column), Some(CmpOp::Ge), v);
            }
            if let Some(v) = hi {
                f(Some(column), Some(CmpOp::Le), v);
            }
            if let Some(e) = residual {
                visit_expr(e, f);
            }
        }
        PhysOp::Filter { predicate } => visit_expr(predicate, f),
        PhysOp::IndexNLJoin {
            residual: Some(e), ..
        } => visit_expr(e, f),
        // Project/aggregate/sort literals are select-list constants —
        // part of the key, never parameterized.
        _ => {}
    }
    for c in &mut plan.children {
        visit_plan_literals(c, f);
    }
}

fn visit_expr(e: &mut Expr, f: &mut impl FnMut(Option<&str>, Option<CmpOp>, &mut Value)) {
    if let Expr::Cmp { op, left, right } = e {
        let op = *op;
        if let Some(name) = expr_col_name(left) {
            if let Expr::Literal(v) = &mut **right {
                f(Some(&name), Some(op), v);
                return;
            }
        }
        if let Some(name) = expr_col_name(right) {
            if let Expr::Literal(v) = &mut **left {
                f(Some(&name), Some(op.flip()), v);
                return;
            }
        }
        visit_expr(left, f);
        visit_expr(right, f);
        return;
    }
    match e {
        Expr::Literal(v) => f(None, None, v),
        Expr::And(es) | Expr::Or(es) => {
            for x in es {
                visit_expr(x, f);
            }
        }
        Expr::Not(x) => visit_expr(x, f),
        Expr::Arith { left, right, .. } => {
            visit_expr(left, f);
            visit_expr(right, f);
        }
        Expr::UdfPred { arg, .. } => visit_expr(arg, f),
        Expr::Column(_) | Expr::BoundColumn { .. } | Expr::Cmp { .. } => {}
    }
}

/// Bare column name of a column-reference expression.
fn expr_col_name(e: &Expr) -> Option<String> {
    let name = match e {
        Expr::Column(n) => n,
        Expr::BoundColumn { name, .. } => name,
        _ => return None,
    };
    Some(name.rsplit('.').next().unwrap_or(name).to_string())
}

/// Literal equality for occurrence matching, with Int/Float coercion
/// (`5` and `5.0` tokenize differently but plan identically).
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => *x as f64 == *y,
        (x, y) => x == y,
    }
}

/// May `new` replace a template literal captured as `old`? Same value
/// kind, with one promotion: an Int literal may stand in where the
/// template carried a Float (the substitution promotes it).
fn rebindable(old: &Value, new: &Value) -> bool {
    matches!(
        (old, new),
        (Value::Int(_), Value::Int(_))
            | (Value::Float(_), Value::Float(_))
            | (Value::Float(_), Value::Int(_))
            | (Value::Str(_), Value::Str(_))
            | (Value::Date(_), Value::Date(_))
            | (Value::Bool(_), Value::Bool(_))
    )
}

/// The value to substitute for a template occurrence: `new`, promoted
/// to Float when the template literal was a Float (so typed
/// comparisons in the plan keep their dtype).
fn coerce_like(new: &Value, old: &Value) -> Value {
    match (old, new) {
        (Value::Float(_), Value::Int(n)) => Value::Float(*n as f64),
        _ => new.clone(),
    }
}

struct Inner {
    map: HashMap<String, CachedPlan>,
    capacity: usize,
    stats: PlanCacheStats,
    seq: u64,
}

/// The normalized-SQL plan cache. Cheap to clone (shared interior);
/// one per engine.
#[derive(Clone)]
pub struct PlanCache {
    inner: std::sync::Arc<Mutex<Inner>>,
}

impl PlanCache {
    /// Create a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: std::sync::Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                capacity,
                stats: PlanCacheStats {
                    capacity,
                    ..PlanCacheStats::default()
                },
                seq: 0,
            })),
        }
    }

    /// Probe for the family's template. `fresh` judges the entry's
    /// dependencies and feedback pressure (engine-side state); a stale
    /// verdict drops the entry so the caller's re-optimization can
    /// re-enter a fresh one.
    pub fn probe(
        &self,
        norm: &NormalizedQuery,
        fresh: impl FnOnce(&CachedPlan) -> Freshness,
    ) -> PlanProbe {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let Some(entry) = inner.map.get_mut(&norm.key) else {
            inner.stats.misses += 1;
            return PlanProbe::Miss;
        };
        match fresh(entry) {
            Freshness::Fresh => match entry.rebind(&norm.slots) {
                Some(plan) => {
                    entry.last_used = seq;
                    let work = entry.opt_work_units;
                    inner.stats.hits += 1;
                    PlanProbe::Hit(Box::new(plan), work)
                }
                None => {
                    // Keep the entry: another family member with
                    // compatible literals may still rebind it. The
                    // caller's re-entry will replace it regardless.
                    inner.stats.misses += 1;
                    inner.stats.rebind_failures += 1;
                    PlanProbe::Miss
                }
            },
            verdict => {
                inner.map.remove(&norm.key);
                inner.stats.stale_reopts += 1;
                PlanProbe::Stale(verdict)
            }
        }
    }

    /// Admit (or replace) the family's template. Returns the keys of
    /// LRU-evicted entries, for event emission.
    pub fn insert(&self, key: &str, mut entry: CachedPlan) -> Vec<String> {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        entry.last_used = inner.seq;
        inner.map.insert(key.to_string(), entry);
        inner.stats.insertions += 1;
        let mut evicted = Vec::new();
        while inner.map.len() > inner.capacity.max(1) {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.map.remove(&victim);
            inner.stats.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    /// Replace the entry capacity; excess entries are LRU-evicted and
    /// their keys returned.
    pub fn set_capacity(&self, capacity: usize) -> Vec<String> {
        {
            let mut inner = self.inner.lock();
            inner.capacity = capacity;
            inner.stats.capacity = capacity;
        }
        // Reuse the insert loop's eviction by running it with no
        // insert: evict until within capacity.
        let mut evicted = Vec::new();
        let mut inner = self.inner.lock();
        while inner.map.len() > inner.capacity && !inner.map.is_empty() {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.map.remove(&victim);
            inner.stats.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    /// Whether a template is cached for `key` (no LRU touch, no
    /// counter movement — a pure existence check for warm-up code).
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().map.contains_key(key)
    }

    /// Export the persistable view of the cache: each entry's family
    /// key and representative SQL text, sorted by key for byte-stable
    /// snapshots. Entries captured without a SQL text (plans that
    /// arrived pre-parsed) cannot be rebuilt from text and are skipped.
    pub fn export_sql(&self) -> Vec<(String, String)> {
        let inner = self.inner.lock();
        let mut out: Vec<(String, String)> = inner
            .map
            .iter()
            .filter_map(|(k, e)| e.sql.as_ref().map(|s| (k.clone(), s.clone())))
            .collect();
        out.sort();
        out
    }

    /// Drop every entry (counters survive).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock();
        let mut s = inner.stats;
        s.entries = inner.map.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{DataType, Field, FileId, Schema};
    use mq_plan::ScanSpec;

    fn scan_with_filter(filter: Expr) -> PhysPlan {
        let schema = Schema::new(vec![
            Field::qualified("t", "a", DataType::Int),
            Field::qualified("t", "b", DataType::Int),
            Field::qualified("t", "s", DataType::Str),
        ])
        .unwrap();
        let bound = filter.bind(&schema).unwrap();
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: "t".into(),
                    file: FileId(0),
                    pages: 10,
                    rows: 100,
                },
                filter: Some(bound),
            },
            vec![],
            schema,
        );
        p.assign_ids();
        p
    }

    fn norm(sql: &str) -> NormalizedQuery {
        normalize(sql).expect("normalizable")
    }

    #[test]
    fn capture_binds_and_rebinds_literals() {
        use mq_expr::{and, cmp, col, lit};
        let n = norm("select a from t where t.a >= 10 and t.s = 'x'");
        let plan = scan_with_filter(and(vec![
            cmp(CmpOp::Ge, col("t.a"), lit(10i64)),
            cmp(CmpOp::Eq, col("t.s"), lit("x")),
        ]));
        let entry = CachedPlan::capture(
            &plan,
            &n,
            7,
            [("t".to_string(), 1)].into_iter().collect(),
            0,
        );
        assert_eq!(entry.opt_work_units, 7);
        assert!(entry.slot_bound.iter().all(|b| *b), "{:?}", entry.binding);

        let n2 = norm("select a from t where t.a >= 99 and t.s = 'y'");
        assert_eq!(n.key, n2.key);
        let rebound = entry.rebind(&n2.slots).expect("rebind");
        let mut vals = Vec::new();
        let mut rb = rebound.clone();
        visit_plan_literals(&mut rb, &mut |_, _, v| vals.push(v.clone()));
        assert!(vals.contains(&Value::Int(99)), "{vals:?}");
        assert!(vals.contains(&Value::Str("y".into())), "{vals:?}");
        assert!(!vals.contains(&Value::Int(10)), "{vals:?}");
    }

    #[test]
    fn changed_unbound_slot_refuses_rebind() {
        use mq_expr::{cmp, col, lit};
        let n = norm("select a from t where t.a >= 10 and t.s = 'x'");
        // Plan only carries the `a` literal (say the optimizer proved
        // `s = 'x'` away) — the 'x' slot binds nothing.
        let plan = scan_with_filter(cmp(CmpOp::Ge, col("t.a"), lit(10i64)));
        let entry = CachedPlan::capture(&plan, &n, 1, DepStamp::default(), 0);

        // Same 'x': safe, only `a` changes.
        let same = norm("select a from t where t.a >= 20 and t.s = 'x'");
        assert!(entry.rebind(&same.slots).is_some());
        // Different 'x': the change cannot take effect — refuse.
        let diff = norm("select a from t where t.a >= 20 and t.s = 'z'");
        assert!(entry.rebind(&diff.slots).is_none());
    }

    #[test]
    fn ambiguous_tie_refuses_cross_bind() {
        use mq_expr::{and, cmp, col, lit, ArithOp};
        let plus1 = |name: &str| Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(col(name)),
            right: Box::new(lit(1i64)),
        };
        // Both conjuncts bury their literal inside an arithmetic
        // comparison, so the plan occurrences recover no column — the
        // two value-5 slots tie at the same score.
        let n = norm("select a from t where b + 1 = 5 and a + 1 = 5");
        let plan = scan_with_filter(and(vec![
            cmp(CmpOp::Eq, plus1("t.b"), lit(5i64)),
            cmp(CmpOp::Eq, plus1("t.a"), lit(5i64)),
        ]));
        let entry = CachedPlan::capture(&plan, &n, 1, DepStamp::default(), 0);
        // Changing one conjunct's literal must refuse rather than risk
        // splicing the value into the other conjunct's position.
        let changed = norm("select a from t where b + 1 = 7 and a + 1 = 5");
        assert_eq!(n.key, changed.key);
        assert!(entry.rebind(&changed.slots).is_none());
        // Identical literals still rebind: the template is unchanged.
        let same = norm("select a from t where b + 1 = 5 and a + 1 = 5");
        assert!(entry.rebind(&same.slots).is_some());
    }

    #[test]
    fn probe_hit_stale_miss_lifecycle() {
        use mq_expr::{cmp, col, lit};
        let cache = PlanCache::new(4);
        let n = norm("select a from t where t.a = 5");
        assert!(matches!(
            cache.probe(&n, |_| Freshness::Fresh),
            PlanProbe::Miss
        ));
        let plan = scan_with_filter(cmp(CmpOp::Eq, col("t.a"), lit(5i64)));
        let entry = CachedPlan::capture(
            &plan,
            &n,
            3,
            [("t".to_string(), 1)].into_iter().collect(),
            0,
        );
        assert!(cache.insert(&n.key, entry).is_empty());

        let n2 = norm("select a from t where t.a = 8");
        match cache.probe(&n2, |_| Freshness::Fresh) {
            PlanProbe::Hit(p, work) => {
                assert_eq!(work, 3);
                let mut vals = Vec::new();
                let mut p = *p;
                visit_plan_literals(&mut p, &mut |_, _, v| vals.push(v.clone()));
                assert_eq!(vals, vec![Value::Int(8)]);
            }
            _ => panic!("expected hit"),
        }

        // A stale verdict drops the entry; the next probe misses.
        assert!(matches!(
            cache.probe(&n, |_| Freshness::StaleWrite),
            PlanProbe::Stale(Freshness::StaleWrite)
        ));
        assert!(matches!(
            cache.probe(&n, |_| Freshness::Fresh),
            PlanProbe::Miss
        ));
        let s = cache.stats();
        assert_eq!((s.hits, s.stale_reopts, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        use mq_expr::{cmp, col, lit};
        let cache = PlanCache::new(2);
        let mut keys = Vec::new();
        for i in 0..3 {
            let n = norm(&format!("select a from t where t.a = 5 limit {i}"));
            let plan = scan_with_filter(cmp(CmpOp::Eq, col("t.a"), lit(5i64)));
            let entry = CachedPlan::capture(&plan, &n, 1, DepStamp::default(), 0);
            keys.push(n.key.clone());
            let evicted = cache.insert(&n.key, entry);
            if i < 2 {
                assert!(evicted.is_empty());
            } else {
                assert_eq!(evicted, vec![keys[0].clone()], "oldest entry goes");
            }
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn type_drift_refuses_rebind() {
        use mq_expr::{cmp, col, lit};
        let n = norm("select a from t where t.a = 5");
        let plan = scan_with_filter(cmp(CmpOp::Eq, col("t.a"), lit(5i64)));
        let entry = CachedPlan::capture(&plan, &n, 1, DepStamp::default(), 0);
        let stringy = norm("select a from t where t.a = 'five'");
        assert_eq!(n.key, stringy.key, "both parameterize to the same key");
        assert!(
            entry.rebind(&stringy.slots).is_none(),
            "Int→Str drift must refuse"
        );
    }
}
