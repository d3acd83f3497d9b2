//! Integration: segment checkpoint manifests, crash-point injection,
//! and resumable recovery.
//!
//! A simulated crash ([`FaultKind::Crash`]) abandons the query's
//! in-flight state without running its `CleanupGuard` — the checkpoint
//! manifest and every materialized temp table survive in the engine.
//! `Engine::recover` then validates the manifest against the surviving
//! artifacts (data-before-manifest: a record present means the temp
//! table is fully written and registered), sweeps the orphans, and
//! resumes the remainder query over the salvaged prefix. These tests
//! pin the whole lifecycle: salvage, the generation rollover when
//! recovery itself crashes, the runtime's crashed → recovering → done
//! state machine, the bounded recovery budget, and the stale-temp
//! sweep for crashes nobody recovers.

use midq::common::{EngineConfig, FaultInjector, FaultKind, FaultSite, FaultSpec, MqError, Value};
use midq::obs::{json_str, JsonlSink, Obs};
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, PlanSource, QueryOutcome, ReoptMode, Workload, WorkloadQuery};

/// The salvage-friendly load: bench scale with the paper's bare
/// switch-acceptance margin, so the chaos queries actually complete
/// checkpointed segments (plan switches) before any injected crash.
fn switchy_db() -> Database {
    let cfg = EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        switch_margin: 1.0,
        ..EngineConfig::default()
    };
    let db = Database::new(cfg).unwrap();
    db.load_tpcd(&TpcdConfig {
        scale: 0.008,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .unwrap();
    db
}

/// Small fast load for the lifecycle tests that don't need salvage.
fn small_db() -> Database {
    let db = Database::new(EngineConfig::default()).unwrap();
    db.load_tpcd(&TpcdConfig {
        scale: 0.002,
        analyze_after_fraction: 1.0,
        ..TpcdConfig::default()
    })
    .unwrap();
    db
}

/// Canonical multiset rendering (sort tie order may differ between a
/// cold run and a resumed remainder).
fn sorted_rows(outcome: &QueryOutcome) -> Vec<String> {
    let mut rows: Vec<String> = outcome
        .rows
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{f:.3}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

fn crash_at(site: FaultSite, at: u64) -> FaultInjector {
    FaultInjector::new(
        vec![FaultSpec {
            site,
            kind: FaultKind::Crash,
            at,
        }],
        None,
    )
}

/// Tentpole acceptance: crash after the final checkpoint, recover,
/// and the salvaged segments make recovery strictly cheaper than the
/// cold run while producing identical rows. The crash and recovery
/// emit the full observability quartet.
#[test]
fn crash_after_checkpoint_salvages_and_matches_oracle() {
    let db = switchy_db();
    let engine = db.engine();
    let q = queries::q10();
    let cfg = engine.config().clone();

    // Fault-free oracle on a child clock: cold cost + kill-point count.
    let counter = FaultInjector::none();
    let cold_clock = engine.clock().child();
    let mut env = engine.default_env();
    env.clock = cold_clock.clone();
    env.fault = Some(counter.clone());
    let oracle = engine
        .run_with(&q, PlanSource::Optimize, ReoptMode::PlanOnly, env)
        .unwrap();
    assert!(oracle.plan_switches > 0, "Q10 must switch to checkpoint");
    let cold_ms = cold_clock.elapsed_ms(&cfg);
    let boundaries = counter.ops_at(FaultSite::SegmentBoundary);

    // Crash at the last boundary — every completed segment survives.
    let sink = std::sync::Arc::new(JsonlSink::new());
    let obs = Obs::none().with_sink(sink.clone()).for_job(1, "Q10-crash");
    let mut env = engine.default_env();
    env.fault = Some(crash_at(FaultSite::SegmentBoundary, boundaries));
    env.obs = Some(obs.clone());
    let query_id = env.query_id;
    let err = engine
        .run_with(&q, PlanSource::Optimize, ReoptMode::PlanOnly, env)
        .unwrap_err();
    assert!(matches!(err, MqError::Crash(_)), "expected crash: {err}");
    assert_eq!(engine.manifests().open_queries(), vec![query_id]);

    // Recover on a fresh child clock.
    let rec_clock = engine.clock().child();
    let mut env = engine.default_env();
    env.clock = rec_clock;
    env.obs = Some(obs);
    let rec = engine.recover_with(query_id, env).unwrap();

    assert_eq!(sorted_rows(&oracle), sorted_rows(&rec.outcome));
    assert!(
        rec.segments_salvaged > 0,
        "crash after {boundaries} boundaries salvaged nothing"
    );
    assert!(rec.validated_rows > 0, "salvage validated zero rows");
    assert!(
        rec.recovery_ms < cold_ms,
        "salvaged recovery not cheaper: {:.1} >= {cold_ms:.1} sim-ms",
        rec.recovery_ms
    );

    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(engine.manifests().open_queries().is_empty());

    // The crash and the recovery both reached the trace.
    let events: Vec<String> = sink
        .lines()
        .iter()
        .filter_map(|l| json_str(l, "event"))
        .collect();
    for want in [
        "crash_injected",
        "recovery_started",
        "segments_salvaged",
        "orphans_swept",
    ] {
        assert!(
            events.iter().any(|e| e == want),
            "missing {want} in trace: {events:?}"
        );
    }
}

/// A crash *during recovery* rolls the manifest generation: the
/// salvaged temp tables of the interrupted attempt are protected, a
/// second recovery still converges, and nothing leaks.
#[test]
fn crash_during_recovery_rolls_generation_and_converges() {
    let db = switchy_db();
    let engine = db.engine();
    let q = queries::q10();

    let counter = FaultInjector::none();
    let mut env = engine.default_env();
    env.fault = Some(counter.clone());
    let oracle = engine
        .run_with(&q, PlanSource::Optimize, ReoptMode::PlanOnly, env)
        .unwrap();
    let boundaries = counter.ops_at(FaultSite::SegmentBoundary);
    assert!(boundaries >= 2, "need >= 2 boundaries, got {boundaries}");

    // First crash: mid-run. The injector's op counters are shared
    // across runs, so the second spec fires during the recovery.
    let inj = FaultInjector::new(
        vec![
            FaultSpec {
                site: FaultSite::SegmentBoundary,
                kind: FaultKind::Crash,
                at: boundaries,
            },
            FaultSpec {
                site: FaultSite::SegmentBoundary,
                kind: FaultKind::Crash,
                at: boundaries + 1,
            },
        ],
        None,
    );
    let mut env = engine.default_env();
    env.fault = Some(inj.clone());
    let query_id = env.query_id;
    let err = engine
        .run_with(&q, PlanSource::Optimize, ReoptMode::PlanOnly, env)
        .unwrap_err();
    assert!(matches!(err, MqError::Crash(_)), "{err}");
    let gen0 = engine.manifests().get(query_id).unwrap().generation;

    // Second crash: during the resumed remainder of attempt one.
    let mut env = engine.default_env();
    env.fault = Some(inj);
    let err = engine.recover_with(query_id, env).unwrap_err();
    assert!(matches!(err, MqError::Crash(_)), "{err}");
    let m = engine.manifests().get(query_id).unwrap();
    assert!(
        m.generation > gen0,
        "generation did not roll: {} -> {}",
        gen0,
        m.generation
    );

    // Third attempt, fault-free: converges to the oracle.
    let rec = engine.recover_with(query_id, engine.default_env()).unwrap();
    assert_eq!(sorted_rows(&oracle), sorted_rows(&rec.outcome));
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(engine.manifests().open_queries().is_empty());
}

/// The concurrent runtime drives crashed → recovering → done on its
/// own: a workload query killed by an injected crash is recovered
/// in-place (same memory lease, simulated backoff charged) and still
/// succeeds, with the attempt counted on its `JobResult`.
#[test]
fn workload_recovers_crashed_query_in_place() {
    // Learn the boundary count for this load first.
    let counter = FaultInjector::none();
    let db = small_db();
    let mut env = db.engine().default_env();
    env.fault = Some(counter.clone());
    db.engine()
        .run_with(
            &queries::q3(),
            PlanSource::Optimize,
            ReoptMode::PlanOnly,
            env,
        )
        .unwrap();
    let boundaries = counter.ops_at(FaultSite::SegmentBoundary);
    assert!(boundaries >= 1, "Q3 crossed no segment boundary");

    let db = small_db();
    let mut wl = Workload::new(2);
    wl.queries.push(
        WorkloadQuery::plan("Q3-crash", queries::q3())
            .with_mode(ReoptMode::PlanOnly)
            .with_faults(crash_at(FaultSite::SegmentBoundary, boundaries)),
    );
    wl.queries
        .push(WorkloadQuery::plan("Q6", queries::q6()).with_mode(ReoptMode::PlanOnly));
    let report = db.run_concurrent(&wl);

    assert_eq!(report.succeeded(), 2, "{}", report.summary());
    let crashed = &report.results[0];
    assert_eq!(crashed.label, "Q3-crash");
    assert_eq!(crashed.recoveries, 1, "expected exactly one recovery");
    assert_eq!(report.recoveries(), 1);

    let audit = db.engine().audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(db.engine().manifests().open_queries().is_empty());
}

/// Recovery budget exhaustion: a query that crashes on every attempt
/// is reaped after `recovery_attempt_limit` tries — the final error
/// surfaces, the manifest is closed, and the debris is swept.
#[test]
fn recovery_budget_exhaustion_reaps_the_query() {
    let db = small_db();
    let limit = db.engine().config().recovery_attempt_limit;
    assert!(limit >= 1);

    // One crash spec per boundary the run and every retry could reach:
    // the shared op counter keeps climbing, so each attempt dies at its
    // next boundary.
    let specs: Vec<FaultSpec> = (1..=200)
        .map(|at| FaultSpec {
            site: FaultSite::SegmentBoundary,
            kind: FaultKind::Crash,
            at,
        })
        .collect();
    let mut wl = Workload::new(1);
    wl.queries.push(
        WorkloadQuery::plan("Q3-doomed", queries::q3())
            .with_mode(ReoptMode::PlanOnly)
            .with_faults(FaultInjector::new(specs, None)),
    );
    let report = db.run_concurrent(&wl);

    let job = &report.results[0];
    assert!(
        matches!(job.outcome, Err(MqError::Crash(_))),
        "doomed query should stay crashed: {:?}",
        job.outcome
    );
    assert_eq!(job.recoveries, limit, "should spend the whole budget");

    // Reaped, not leaked: manifest closed, debris swept.
    assert!(db.engine().manifests().open_queries().is_empty());
    let audit = db.engine().audit();
    assert!(audit.is_clean(), "{audit}");
}

/// A crash nobody recovers is reclaimed by the stale-temp sweep once
/// its manifest is closed — the startup-sweep path for orphans from a
/// previous incarnation.
#[test]
fn stale_sweep_reclaims_unrecovered_crash_debris() {
    let db = switchy_db();
    let engine = db.engine();
    let q = queries::q3();

    // Count page writes so the crash lands mid-materialization, with
    // a partial temp file on disk.
    let counter = FaultInjector::none();
    let mut env = engine.default_env();
    env.fault = Some(counter.clone());
    engine
        .run_with(&q, PlanSource::Optimize, ReoptMode::PlanOnly, env)
        .unwrap();
    let writes = counter.ops_at(FaultSite::PageWrite);
    assert!(writes > 0, "Q3 wrote no pages");

    let mut env = engine.default_env();
    env.fault = Some(crash_at(FaultSite::PageWrite, writes / 2));
    let query_id = env.query_id;
    let err = engine
        .run_with(&q, PlanSource::Optimize, ReoptMode::PlanOnly, env)
        .unwrap_err();
    assert!(matches!(err, MqError::Crash(_)), "{err}");

    // While the manifest is open the debris is protected (a recovery
    // could still salvage it) — the sweep must not touch it.
    let (tables, files) = engine.sweep_stale_temps();
    assert_eq!((tables, files), (0, 0), "sweep stole from an open crash");

    // Close the manifest (nobody will recover this query): now the
    // sweep reclaims everything and the audit is clean again.
    engine.manifests().remove(query_id);
    let (tables, files) = engine.sweep_stale_temps();
    assert!(
        tables + files > 0,
        "mid-materialization crash left no debris to sweep"
    );
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(audit.stale_swept >= tables + files, "{audit}");
}
