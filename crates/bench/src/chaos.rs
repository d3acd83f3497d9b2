//! Chaos harness: the TPC-D mini-workload under seeded fault
//! schedules.
//!
//! Each seed derives one deterministic [`FaultInjector`] per query
//! (transient/permanent I/O faults, grant denials, cancellation
//! triggers) and runs the workload three times — twice at 1 worker,
//! once at 4 workers. The invariants checked after every run are the
//! robustness contract of the engine:
//!
//! 1. **Correct or cleanly failed** — every query either returns the
//!    fault-free oracle result (transient faults are absorbed by
//!    segment retries) or fails with a clean typed error (permanent
//!    faults, injected cancellation, exhausted retry budget);
//! 2. **Leak-proof** — after each run [`Engine::audit`] is clean (no
//!    surviving `tmp_reopt_*` tables, no orphaned disk pages, no stuck
//!    buffer pins), the broker has zero bytes outstanding and no
//!    cleanup operation failed;
//! 3. **Deterministic** — the three runs of a seed produce identical
//!    per-query fingerprints *and* byte-identical per-query stable
//!    metrics snapshots ([`MetricsSnapshot::stable_text`]: segments,
//!    collector reports, re-opt verdicts, retries, cleanup — everything
//!    except physical-cost metrics, which legitimately vary with pool
//!    warmth). Faults fire on the Nth *logical* buffer access of the
//!    faulted query, so schedules replay byte-identically regardless of
//!    worker interleaving or pool warmth.
//!
//! Determinism across worker counts additionally requires that the runs
//! themselves are replayable: the harness therefore disables
//! statistics feedback (its catalog write-back order depends on query
//! completion order) and gives the broker an ample budget so
//! opportunistic lease growth never depends on what other queries
//! transiently hold. Fault-injected grant denials still exercise the
//! denial path — they clamp regardless of availability.
//!
//! [`Engine::audit`]: midq::Engine::audit
//! [`FaultInjector`]: midq::common::FaultInjector
//! [`MetricsSnapshot::stable_text`]: midq::obs::MetricsSnapshot::stable_text

use std::hash::Hasher;

use midq::common::{EngineConfig, FaultInjector, FaultProfile, Fnv1a};
use midq::obs::{MetricsRegistry, Obs};
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, QueryOutcome, ReoptMode, Result, Runtime, Workload, WorkloadQuery};

/// The chaos query set: two pipeline-heavy single-table queries and two
/// multi-join queries (plan switches under fault are the interesting
/// unwinding paths).
pub const CHAOS_QUERIES: [&str; 4] = ["Q1", "Q3", "Q6", "Q10"];

/// Worker counts every seed is replayed at.
pub const WORKER_CONFIGS: [usize; 2] = [1, 4];

/// Intra-query partition counts the partitioned campaign replays every
/// seed at. Bucket composition is partition-count invariant, so the
/// fault schedules (Nth logical buffer access) — and with them the
/// fingerprints and stable metrics — must replay byte-identically.
pub const PARTITION_CONFIGS: [usize; 2] = [1, 4];

/// A broker budget large enough that lease growth is never contended:
/// pure accounting, no actual allocation behind it.
const AMPLE_BUDGET: usize = 1 << 30;

/// Build the chaos database: a small TPC-D load with statistics
/// feedback disabled (see the module docs on determinism).
pub fn chaos_database() -> Database {
    chaos_database_with(false)
}

/// [`chaos_database`] with the normalized-SQL plan cache toggled.
pub fn chaos_database_with(plan_cache: bool) -> Database {
    let cfg = EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        plan_cache_enabled: plan_cache,
        ..EngineConfig::default()
    };
    let db = Database::new(cfg).expect("engine");
    db.load_tpcd(&TpcdConfig {
        scale: 0.002,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .expect("load");
    db
}

/// How a chaos query is submitted: a built-in logical plan, or SQL
/// text (which routes through the plan cache when it is enabled).
#[derive(Debug, Clone)]
pub enum ChaosQuery {
    /// A built-in TPC-D plan.
    Plan(midq::LogicalPlan),
    /// A SQL statement.
    Sql(String),
}

/// Order-insensitive fingerprint of one query outcome: `ok:<rows>:<hash>`
/// over the sorted row renderings, or `err:<kind>`. Deliberately
/// excludes timings (pool warmth varies across runs) and row order
/// (memory-dependent for hash operators).
pub fn fingerprint(outcome: &Result<QueryOutcome>) -> String {
    match outcome {
        Ok(o) => {
            let mut rows: Vec<String> = o.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            let mut h = Fnv1a::default();
            for r in &rows {
                h.write(r.as_bytes());
                h.write_u8(0xff); // row separator
            }
            format!("ok:{}:{:016x}", rows.len(), h.finish())
        }
        Err(e) => format!("err:{}", e.kind()),
    }
}

/// Error kinds a faulted query may legitimately fail with.
fn is_clean_failure(kind: &str) -> bool {
    matches!(kind, "storage" | "cancelled" | "oom")
}

/// Aggregate result of a chaos campaign.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Seeds exercised.
    pub seeds: usize,
    /// Total query executions across all runs.
    pub executions: usize,
    /// Queries that completed with at least one segment retry (a
    /// transient fault was absorbed, and the rows still matched the
    /// oracle).
    pub transient_recoveries: u64,
    /// Queries that failed with a clean typed error.
    pub clean_failures: u64,
    /// Injected faults that actually fired, by class.
    pub fired_transient: u64,
    /// Permanent I/O faults fired.
    pub fired_permanent: u64,
    /// Grant denials fired.
    pub fired_denials: u64,
    /// Cancellation triggers fired.
    pub fired_cancels: u64,
    /// Invariant violations (empty = the campaign passed).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Did the campaign uphold every invariant — and actually exercise
    /// the recovery path at least once?
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.transient_recoveries > 0
    }

    /// One-paragraph summary for logs and CI output.
    pub fn summary(&self) -> String {
        format!(
            "chaos: {} seeds, {} executions — {} transient recoveries, {} clean failures \
             (fired: {} transient, {} permanent, {} denials, {} cancels) — {} violation(s)",
            self.seeds,
            self.executions,
            self.transient_recoveries,
            self.clean_failures,
            self.fired_transient,
            self.fired_permanent,
            self.fired_denials,
            self.fired_cancels,
            self.violations.len()
        )
    }
}

/// One run of the workload under a seed's fault schedules.
struct RunOutcome {
    fingerprints: Vec<String>,
    retries: Vec<u32>,
    /// Per-query stable metrics expositions, compared byte-for-byte
    /// across a seed's runs (invariant 3).
    stable_metrics: Vec<String>,
    fired: (u64, u64, u64, u64),
}

fn run_once(
    db: &Database,
    specs: &[(&'static str, ChaosQuery)],
    seed: u64,
    workers: usize,
    partitions: Option<usize>,
) -> RunOutcome {
    let mut wl = Workload::new(workers);
    wl.partitions = partitions;
    let mut injectors = Vec::new();
    for (qi, (name, q)) in specs.iter().enumerate() {
        // Alternate modes so fault unwinding is exercised both with and
        // without the re-optimization machinery in the path.
        let mode = if qi % 2 == 0 {
            ReoptMode::Full
        } else {
            ReoptMode::Off
        };
        let inj = FaultInjector::from_seed(
            seed.wrapping_mul(1000).wrapping_add(qi as u64),
            &FaultProfile::default(),
        );
        injectors.push(inj.clone());
        let query = match q {
            ChaosQuery::Plan(plan) => WorkloadQuery::plan(*name, plan.clone()),
            ChaosQuery::Sql(sql) => WorkloadQuery::sql(*name, sql.clone()),
        };
        wl.queries.push(query.with_mode(mode).with_faults(inj));
    }
    wl.obs = Some(Obs::none().with_metrics(MetricsRegistry::new()));
    let runtime = Runtime::new(db.engine_arc(), AMPLE_BUDGET);
    let report = runtime.run_workload(&wl);
    let lease_leak = runtime.broker().in_use();

    let mut out = RunOutcome {
        fingerprints: report
            .results
            .iter()
            .map(|r| fingerprint(&r.outcome))
            .collect(),
        retries: report
            .results
            .iter()
            .map(|r| r.outcome.as_ref().map(|o| o.segment_retries).unwrap_or(0))
            .collect(),
        stable_metrics: report
            .results
            .iter()
            .map(|r| r.metrics.stable_text())
            .collect(),
        fired: (0, 0, 0, 0),
    };
    for inj in &injectors {
        let f = inj.fired();
        out.fired.0 += f.transient;
        out.fired.1 += f.permanent;
        out.fired.2 += f.denials;
        out.fired.3 += f.cancels;
    }
    if lease_leak != 0 {
        out.fingerprints
            .push(format!("VIOLATION: {lease_leak} bytes still leased"));
    }
    out
}

/// The chaos query set as campaign specs (built-in logical plans).
fn builtin_specs() -> Vec<(&'static str, ChaosQuery)> {
    let all = queries::all();
    CHAOS_QUERIES
        .iter()
        .map(|name| {
            all.iter()
                .find(|(n, _)| n == name)
                .map(|(n, p)| (*n, ChaosQuery::Plan(p.clone())))
                .unwrap_or_else(|| panic!("unknown chaos query {name}"))
        })
        .collect()
}

/// Fault-free oracle fingerprint of one spec on `db`.
fn oracle_fingerprint(db: &Database, q: &ChaosQuery, partitioned: bool) -> String {
    match q {
        ChaosQuery::Plan(p) if partitioned => {
            fingerprint(&db.query_plan(p).mode(ReoptMode::Off).partitions(1).run())
        }
        ChaosQuery::Plan(p) => fingerprint(&db.query_plan(p).mode(ReoptMode::Off).run()),
        ChaosQuery::Sql(s) => fingerprint(&db.query(s).mode(ReoptMode::Off).run()),
    }
}

/// Run the chaos campaign over `seeds` consecutive seeds starting at
/// `first_seed`. `verbose` prints one line per seed.
pub fn run_chaos(first_seed: u64, seeds: u64, verbose: bool) -> ChaosReport {
    // Replays: twice at 1 worker (same-config determinism), once at 4.
    let configs = [(1, None, 2), (4, None, 1)];
    let db = chaos_database();
    let specs = builtin_specs();
    let oracle: Vec<String> = specs
        .iter()
        .map(|(_, q)| oracle_fingerprint(&db, q, false))
        .collect();
    run_campaign(first_seed, seeds, verbose, &configs, &db, &specs, &oracle)
}

/// The plan-cache chaos campaign: the same robustness invariants with
/// the normalized-SQL plan cache enabled and warm. Queries arrive as
/// SQL (two literal-variant families), so every seeded run probes the
/// cache; the oracle comes from an independent plan-cache-off database
/// with identical contents, so a wrong rebind can never self-certify.
/// A fault-free warm pass precedes the campaign: plan-cache traffic is
/// part of the stable metrics compared across reps and worker counts,
/// and a warm cache makes it a function of the query sequence alone.
pub fn run_chaos_plancache(first_seed: u64, seeds: u64, verbose: bool) -> ChaosReport {
    let configs = [(1, None, 2), (4, None, 1)];
    let db = chaos_database_with(true);
    let oracle_db = chaos_database();
    let join_family = |qty: i64, price: i64| {
        format!(
            "SELECT o_orderstatus, count(*) AS n, max(o_totalprice) AS top \
             FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_quantity < {qty} \
             AND o_totalprice > {price} \
             GROUP BY o_orderstatus ORDER BY o_orderstatus"
        )
    };
    let agg_family = |qty: i64| {
        format!(
            "SELECT l_returnflag, count(*) AS n, max(l_extendedprice) AS top \
             FROM lineitem WHERE l_quantity < {qty} \
             GROUP BY l_returnflag ORDER BY l_returnflag"
        )
    };
    let specs = vec![
        ("j0", ChaosQuery::Sql(join_family(25, 1000))),
        ("a0", ChaosQuery::Sql(agg_family(30))),
        ("j1", ChaosQuery::Sql(join_family(40, 500))),
        ("a1", ChaosQuery::Sql(agg_family(45))),
    ];
    let oracle: Vec<String> = specs
        .iter()
        .map(|(_, q)| oracle_fingerprint(&oracle_db, q, false))
        .collect();
    for (name, q) in &specs {
        if let ChaosQuery::Sql(s) = q {
            db.query(s)
                .mode(ReoptMode::Off)
                .run()
                .unwrap_or_else(|e| panic!("warm pass {name}: {e}"));
        }
    }
    assert!(
        db.plan_cache_stats().entries > 0,
        "warm pass entered no plan-cache template"
    );
    run_campaign(first_seed, seeds, verbose, &configs, &db, &specs, &oracle)
}

/// The partitioned chaos campaign: the same seeded fault schedules,
/// but every query runs through the intra-query partitioned driver
/// (`mq-par`), so faults now fire inside partition bucket runs — mid
/// hash-join build, mid chunked scan — and the unwinding path crosses
/// the exchange barriers. Invariants are unchanged: oracle rows or a
/// clean typed error, a clean audit after every run, and byte-identical
/// fingerprints *and* stable metrics across partition counts (bucket
/// composition does not depend on the partition count).
pub fn run_chaos_partitioned(first_seed: u64, seeds: u64, verbose: bool) -> ChaosReport {
    // Replays: twice at P=1 (same-config determinism), once at P=4 on
    // two workers (group lease admission + partitioned execution).
    let configs = [
        (1, Some(PARTITION_CONFIGS[0]), 2),
        (2, Some(PARTITION_CONFIGS[1]), 1),
    ];
    let db = chaos_database();
    let specs = builtin_specs();
    // The partitioned campaign computes its oracle through the
    // partitioned driver too: bucketed execution sums floats in bucket
    // order, which differs from serial order at the ulp level — but is
    // invariant across partition counts, so one fault-free P=1 run
    // anchors every configuration.
    let oracle: Vec<String> = specs
        .iter()
        .map(|(_, q)| oracle_fingerprint(&db, q, true))
        .collect();
    run_campaign(first_seed, seeds, verbose, &configs, &db, &specs, &oracle)
}

/// The shared campaign loop: replay every seed under each
/// `(workers, partitions, repetitions)` configuration and check the
/// three robustness invariants. The oracle: every query fault-free, in
/// both modes' row sets (modes agree on rows; the fingerprint is
/// order-insensitive).
fn run_campaign(
    first_seed: u64,
    seeds: u64,
    verbose: bool,
    configs: &[(usize, Option<usize>, usize)],
    db: &Database,
    specs: &[(&'static str, ChaosQuery)],
    oracle: &[String],
) -> ChaosReport {
    let mut report = ChaosReport {
        seeds: seeds as usize,
        ..ChaosReport::default()
    };
    let violate = |violations: &mut Vec<String>, msg: String| {
        if violations.len() < 32 {
            violations.push(msg);
        }
    };

    for seed in first_seed..first_seed + seeds {
        let mut runs: Vec<(String, RunOutcome)> = Vec::new();
        for &(workers, partitions, reps) in configs {
            for rep in 0..reps {
                let label = match partitions {
                    Some(p) => format!("seed {seed} w{workers} p{p} rep{rep}"),
                    None => format!("seed {seed} w{workers} rep{rep}"),
                };
                let run = run_once(db, specs, seed, workers, partitions);
                report.executions += run.fingerprints.len().min(specs.len());
                report.fired_transient += run.fired.0;
                report.fired_permanent += run.fired.1;
                report.fired_denials += run.fired.2;
                report.fired_cancels += run.fired.3;

                // Invariant 2: leak-proof after every run.
                let audit = db.engine().audit();
                if !audit.is_clean() {
                    violate(&mut report.violations, format!("{label}: {audit}"));
                }
                if db.engine().cleanup_failure_count() != 0 {
                    violate(
                        &mut report.violations,
                        format!(
                            "{label}: {} cleanup failure(s)",
                            db.engine().cleanup_failure_count()
                        ),
                    );
                }

                // Invariant 1: oracle result or clean typed error.
                for (qi, fp) in run.fingerprints.iter().enumerate() {
                    if qi >= specs.len() {
                        violate(&mut report.violations, format!("{label}: {fp}"));
                        continue;
                    }
                    if let Some(kind) = fp.strip_prefix("err:") {
                        if !is_clean_failure(kind) {
                            violate(
                                &mut report.violations,
                                format!("{label} {}: dirty failure {fp}", specs[qi].0),
                            );
                        }
                        report.clean_failures += 1;
                    } else if *fp != oracle[qi] {
                        violate(
                            &mut report.violations,
                            format!(
                                "{label} {}: rows diverged from oracle ({fp} vs {})",
                                specs[qi].0, oracle[qi]
                            ),
                        );
                    } else if run.retries[qi] > 0 {
                        report.transient_recoveries += 1;
                    }
                }
                runs.push((label, run));
            }
        }

        // Invariant 3: the seed's runs are byte-identical — result
        // fingerprints and per-query stable metrics alike.
        let (first_label, first) = &runs[0];
        for (label, run) in &runs[1..] {
            if run.fingerprints != first.fingerprints {
                violate(
                    &mut report.violations,
                    format!(
                        "seed {seed}: outcome diverged between {first_label} {:?} and {label} {:?}",
                        first.fingerprints, run.fingerprints
                    ),
                );
            }
            if run.stable_metrics != first.stable_metrics {
                let qi = first
                    .stable_metrics
                    .iter()
                    .zip(&run.stable_metrics)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                violate(
                    &mut report.violations,
                    format!(
                        "seed {seed}: stable metrics diverged between {first_label} and \
                         {label} (first at query {qi})"
                    ),
                );
            }
        }
        if verbose {
            println!(
                "seed {seed}: {:?} (retries {:?})",
                first.fingerprints, first.retries
            );
        }
    }
    report
}
