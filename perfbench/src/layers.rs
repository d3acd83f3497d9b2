//! Per-layer metrics of a traced run, named by module.
//!
//! Two sources feed them. Counts and ratios (pages per query, plan-cache
//! hits, collector reports, spills, cache promotions, ...) come from the
//! workload's own traced loop, so a layer the workload bypasses reads 0
//! there. Timings of single layers come from probes that call the
//! layer's public entry point directly, each wrapped in a span, so every
//! workload reports them under one definition: the probes run on the
//! workload's own database where its data matters (scan, index lookup,
//! optimize, the paper queries, the worker pool, snapshots) and on a
//! small throwaway database where they would change its state (ANALYZE,
//! inserts).

use std::collections::HashMap;
use std::time::Instant;

use midq::common::{DataType, DetRng, Row, Value};
use midq::optimizer::Optimizer;
use midq::reopt::insert_collectors;
use midq::stats::{Histogram, HistogramKind};
use midq::tpcd::{queries, TpcdConfig};
use midq::{normalize, Database, ReoptMode, Runtime, Workload, WorkloadQuery};

use crate::spans::{median, percentile, ratio, Tracer};
use crate::workloads::{mode_name, paper_config, ring_obs, Tally, MODES};
use crate::{out_dir, Opts, Report};

/// Wall ms of every run of each (query, mode), with the simulated ms of
/// its last run.
pub type PaperWalls = HashMap<(&'static str, ReoptMode), PaperRuns>;

#[derive(Debug, Default, Clone)]
pub struct PaperRuns {
    pub wall_ms: Vec<f64>,
    pub sim_ms: f64,
}

/// Counters read around the traced loop, and facts only the workload
/// knows.
#[derive(Debug, Default, Clone)]
pub struct LoopFacts {
    pub before: Snap,
    pub after: Snap,
    /// Size of the workload's own set-up snapshot (sql-families).
    pub snapshot_bytes: Option<u64>,
    pub broker_high_water: u64,
    pub max_in_flight: u64,
    pub par_jobs: u64,
    pub par_saved_ms: f64,
    pub skew_before: Vec<f64>,
    pub skew_after: Vec<f64>,
    /// Untraced throughput over traced throughput, minus one.
    pub trace_overhead: f64,
}

/// Engine counters at one instant, summed over a workload's databases.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snap {
    pool_hits: u64,
    pool_misses: u64,
    pc_hits: u64,
    pc_probes: u64,
    pc_stale: u64,
    pc_rebind_failures: u64,
    cache_hits: u64,
    cache_probes: u64,
    cache_promotions: u64,
    cache_saved_ms: f64,
}

impl Snap {
    pub fn take<'a>(dbs: impl IntoIterator<Item = &'a Database>) -> Snap {
        let mut s = Snap::default();
        for db in dbs {
            let (hits, misses) = db.engine().storage().pool().hit_stats();
            let pc = db.plan_cache_stats();
            let cache = db.cache_stats();
            s.pool_hits += hits;
            s.pool_misses += misses;
            s.pc_hits += pc.hits;
            s.pc_probes += pc.hits + pc.misses + pc.stale_reopts;
            s.pc_stale += pc.stale_reopts;
            s.pc_rebind_failures += pc.rebind_failures;
            s.cache_hits += cache.hits;
            s.cache_probes += cache.hits + cache.misses;
            s.cache_promotions += cache.promotions;
            s.cache_saved_ms += cache.saved_ms;
        }
        s
    }
}

/// The short SQL texts the front-end probes parse and normalize: one
/// exemplar per sql-families family, and the paper queries with SQL.
fn probe_texts() -> Vec<String> {
    vec![
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate \
         FROM orders WHERE o_orderkey = 17"
            .to_string(),
        "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice \
         FROM lineitem WHERE l_orderkey = 17"
            .to_string(),
        "SELECT o_orderkey, o_totalprice FROM orders \
         WHERE o_orderkey >= 17 AND o_orderkey < 37"
            .to_string(),
        "SELECT o_orderkey, count(*) AS n, sum(l_extendedprice) AS revenue \
         FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_orderkey >= 17 \
         AND o_orderkey < 25 GROUP BY o_orderkey ORDER BY o_orderkey"
            .to_string(),
        queries::q1_sql().to_string(),
        queries::q3_sql().to_string(),
        queries::q5_sql().to_string(),
        queries::q6_sql().to_string(),
        queries::q10_sql().to_string(),
    ]
}

/// Median over `reps` repetitions of a probe span, divided by the
/// operations each repetition performs. A failing call fails the run.
fn probe<R>(
    tracer: &mut Tracer,
    name: &str,
    reps: usize,
    ops: usize,
    mut f: impl FnMut() -> midq::Result<R>,
) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let (out, d) = tracer.span(name, None, |_| f());
        std::hint::black_box(out.map_err(|e| format!("{name} probe: {e}"))?);
        secs.push(d.as_secs_f64());
    }
    Ok(median(&secs) / ops.max(1) as f64)
}

fn user_bytes(db: &Database) -> Result<u64, String> {
    let storage = db.engine().storage();
    let mut total = 0u64;
    for name in db.engine().catalog().table_names() {
        if name.starts_with("tmp_") || name.starts_with("cache_") {
            continue;
        }
        let t = db
            .engine()
            .catalog()
            .table(&name)
            .map_err(|e| e.to_string())?;
        for item in storage.scan_file(t.file).map_err(|e| e.to_string())? {
            let (_, row) = item.map_err(|e| e.to_string())?;
            for v in row.values() {
                total += match v {
                    Value::Str(s) => s.len() as u64,
                    Value::Bool(_) => 1,
                    Value::Null => 0,
                    _ => 8,
                };
            }
        }
    }
    Ok(total)
}

/// Run the paper's seven queries under Off and Full, `rounds` times,
/// collecting wall and simulated ms. A `RingSink` is attached, as in
/// tpcd-reopt's traced loop, so the numbers compare across workloads.
fn paper_rounds(db: &Database, rounds: usize, tracer: &mut Tracer) -> Result<PaperWalls, String> {
    let mut walls = PaperWalls::new();
    let plans = queries::all();
    let (ring, obs) = ring_obs();
    for _ in 0..rounds.max(1) {
        for (name, plan) in &plans {
            for mode in MODES {
                let (out, d) = tracer.span("probe.paper_query", None, |_| {
                    db.query_plan(plan).mode(mode).observed(&obs).run()
                });
                ring.clear();
                let out = out.map_err(|e| format!("paper probe {name}: {e}"))?;
                let e = walls.entry((name, mode)).or_default();
                e.wall_ms.push(d.as_secs_f64() * 1e3);
                e.sim_ms = out.time_ms;
            }
        }
    }
    Ok(walls)
}

/// Wall seconds of one 14-job Full-mode paper mix on `workers` workers.
fn pool_mix(db: &Database, workers: usize, partitions: Option<usize>) -> Result<f64, String> {
    let mut wl = Workload::new(workers);
    for _ in 0..2 {
        for (name, plan) in queries::all() {
            let mut q = WorkloadQuery::plan(name, plan).with_mode(ReoptMode::Full);
            if let Some(p) = partitions {
                q = q.with_partitions(p);
            }
            wl = wl.query(q);
        }
    }
    let runtime = Runtime::with_default_budget(db.engine_arc(), workers);
    let t = Instant::now();
    let rep = runtime.run_workload(&wl);
    let secs = t.elapsed().as_secs_f64();
    if rep.failed() > 0 {
        return Err(format!("{} jobs of the probe mix failed", rep.failed()));
    }
    Ok(secs)
}

/// Emit every per-layer metric.
pub fn report(
    opts: &Opts,
    db: &Database,
    tracer: &mut Tracer,
    report: &mut Report,
    t: &Tally,
    facts: LoopFacts,
    walls: Option<PaperWalls>,
) -> Result<(), String> {
    let reps = opts.scale.reps;
    let q = t.queries.max(1) as f64;
    let (b, a) = (&facts.before, &facts.after);

    // mq-tpcd / mq-catalog / mq-stats
    report.metric("tpcd.load_s", median(&tracer.durations_s("tpcd.load")), "s");
    let scratch = Database::new(paper_config()).map_err(|e| e.to_string())?;
    scratch
        .load_tpcd(&TpcdConfig {
            scale: opts.scale.sql_sf / 2.0,
            seed: opts.seed,
            ..TpcdConfig::default()
        })
        .map_err(|e| format!("probe load: {e}"))?;
    let analyze_s = probe(tracer, "catalog.analyze", reps, 1, || {
        scratch.analyze("lineitem")
    })?;
    report.metric("catalog.analyze_ms", analyze_s * 1e3, "ms");
    let mut rng = DetRng::new(opts.seed);
    let sample: Vec<f64> = (0..1024)
        .map(|_| (rng.gen_f64() * 1000.0).round())
        .collect();
    let hist_s = probe(tracer, "stats.histogram_build", reps, 100, || {
        for _ in 0..100 {
            std::hint::black_box(Histogram::build(
                HistogramKind::MaxDiff,
                &sample,
                32,
                0.0,
                0.0,
            ));
        }
        Ok(())
    })?;
    report.metric("stats.histogram_build_us", hist_s * 1e6, "us");

    // mq-storage
    report.metric(
        "storage.pool_hit_ratio",
        ratio(
            (a.pool_hits - b.pool_hits) as f64,
            (a.pool_hits + a.pool_misses - b.pool_hits - b.pool_misses) as f64,
        ),
        "ratio",
    );
    report.metric(
        "storage.pages_read_per_query",
        t.pages_read as f64 / q,
        "pages",
    );
    report.metric(
        "storage.pages_written_per_query",
        t.pages_written as f64 / q,
        "pages",
    );
    let storage = db.engine().storage();
    let catalog = db.engine().catalog();
    let lineitem = catalog.table("lineitem").map_err(|e| e.to_string())?;
    let mut scanned = 0usize;
    let scan_s = probe(tracer, "storage.scan_file", reps.min(3), 1, || {
        scanned = 0;
        for item in storage.scan_file(lineitem.file)? {
            std::hint::black_box(item?);
            scanned += 1;
        }
        Ok(())
    })?;
    report.metric(
        "storage.scan_rows_per_s",
        ratio(scanned as f64, scan_s),
        "1/s",
    );
    let orders = catalog.table("orders").map_err(|e| e.to_string())?;
    let index = *orders
        .indexes
        .get("o_orderkey")
        .ok_or("orders has no o_orderkey index")?;
    let n_orders = storage.file_rows(orders.file).map_err(|e| e.to_string())? as i64;
    let keys: Vec<Value> = (0..1000)
        .map(|_| Value::Int(rng.gen_i64(0, n_orders - 1)))
        .collect();
    let lookup_s = probe(tracer, "storage.index_lookup", reps, keys.len(), || {
        keys.iter()
            .map(|k| storage.index_lookup(index, k).map(|rids| rids.len()))
            .sum::<midq::Result<usize>>()
    })?;
    report.metric("storage.index_lookup_us", lookup_s * 1e6, "us");
    scratch
        .create_table(
            "probe_rows",
            vec![("k", DataType::Int), ("v", DataType::Float)],
        )
        .map_err(|e| e.to_string())?;
    let mut next = 0i64;
    let insert_s = probe(tracer, "storage.insert_row", reps, 500, || {
        for _ in 0..500 {
            next += 1;
            let row = Row::new(vec![Value::Int(next), Value::Float(next as f64 * 0.5)]);
            scratch.insert("probe_rows", row)?;
        }
        Ok(())
    })?;
    report.metric("storage.insert_row_us", insert_s * 1e6, "us");

    // mq-sql
    let texts = probe_texts();
    let plan_s = probe(tracer, "sql.plan", reps, texts.len(), || {
        texts
            .iter()
            .map(|s| db.plan_sql(s))
            .collect::<midq::Result<Vec<_>>>()
    })?;
    report.metric("sql.plan_us", plan_s * 1e6, "us");
    let writes = if t.write_lat_ms.is_empty() {
        (0..100)
            .map(|_| {
                next += 1;
                let sql = format!("INSERT INTO probe_rows VALUES ({next}, 0.25)");
                let (res, d) = tracer.span("sql.write", None, |_| {
                    scratch.execute_sql(&sql, ReoptMode::Full)
                });
                res.map(|_| d.as_secs_f64() * 1e3)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<f64>, String>>()?
    } else {
        t.write_lat_ms.clone()
    };
    report.metric("sql.write_p50_ms", percentile(&writes, 50.0), "ms");

    // mq-plancache
    let norm_s = probe(
        tracer,
        "plancache.normalize",
        reps * 20,
        texts.len(),
        || Ok(texts.iter().filter_map(|s| normalize(s)).count()),
    )?;
    report.metric("plancache.normalize_us", norm_s * 1e6, "us");
    report.metric(
        "plancache.hit_ratio",
        ratio(
            (a.pc_hits - b.pc_hits) as f64,
            (a.pc_probes - b.pc_probes) as f64,
        ),
        "ratio",
    );
    report.metric(
        "plancache.stale_reopts_per_write",
        ratio(
            (a.pc_stale - b.pc_stale) as f64,
            t.write_lat_ms.len() as f64,
        ),
        "ratio",
    );
    report.metric(
        "plancache.rebind_failures",
        (a.pc_rebind_failures - b.pc_rebind_failures) as f64,
        "count",
    );

    // mq-optimizer and the SCIA of mq-reopt
    let cfg = db.engine().config().clone();
    let optimizer = Optimizer::new(cfg.clone());
    let mut scia_us = Vec::new();
    for (name, plan) in queries::all() {
        let mut optimized = None;
        let opt_s = probe(
            tracer,
            &format!("optimizer.optimize.{name}"),
            reps,
            1,
            || {
                optimized = Some(optimizer.optimize(&plan, catalog, storage)?);
                Ok(())
            },
        )?;
        report.metric(format!("optimizer.optimize_us.{name}"), opt_s * 1e6, "us");
        let optimized = optimized.expect("the probe ran at least once");
        let mut secs = Vec::new();
        for _ in 0..reps.max(1) {
            let mut p = optimized.plan.clone();
            let (res, d) = tracer.span("reopt.scia", None, |_| {
                insert_collectors(&mut p, catalog, &cfg)
            });
            res.map_err(|e| format!("insert_collectors on {name}: {e}"))?;
            secs.push(d.as_secs_f64());
        }
        scia_us.push(median(&secs) * 1e6);
    }
    report.metric(
        "optimizer.opt_work_per_query",
        t.opt_work as f64 / q,
        "units",
    );
    report.metric(
        "reopt.scia_us",
        scia_us.iter().sum::<f64>() / scia_us.len() as f64,
        "us",
    );

    // mq-reopt and mq-exec: the paper queries on this database.
    report.metric(
        "reopt.collector_reports_per_query",
        t.collector_reports as f64 / q,
        "count",
    );
    report.metric("reopt.plan_switches", t.switches as f64 / q, "count");
    report.metric("reopt.memory_reallocs", t.reallocs as f64 / q, "count");
    let walls = match walls {
        Some(w) => w,
        None => paper_rounds(db, reps.min(2), tracer)?,
    };
    let wall = |name: &'static str, mode| median(&walls[&(name, mode)].wall_ms);
    let sim = |name: &'static str, mode| walls[&(name, mode)].sim_ms;
    let over = |f: &dyn Fn(&'static str, ReoptMode) -> f64| {
        let off: f64 = ["Q1", "Q6"].into_iter().map(|n| f(n, ReoptMode::Off)).sum();
        let full: f64 = ["Q1", "Q6"]
            .into_iter()
            .map(|n| f(n, ReoptMode::Full))
            .sum();
        ratio(full - off, off)
    };
    report.metric("reopt.overhead_wall_frac", over(&wall), "ratio");
    report.metric("reopt.overhead_sim_frac", over(&sim), "ratio");
    let sum = |mode| -> f64 { queries::all().into_iter().map(|(n, _)| wall(n, mode)).sum() };
    report.metric(
        "reopt.wall_gain",
        ratio(sum(ReoptMode::Off), sum(ReoptMode::Full)),
        "x",
    );
    for (name, _) in queries::all() {
        for mode in MODES {
            report.metric(
                format!("exec.wall_ms.{name}.{}", mode_name(mode)),
                wall(name, mode),
                "ms",
            );
        }
    }
    report.metric("exec.cpu_ops_per_query", t.cpu_ops as f64 / q, "ops");

    // mq-memory
    report.metric("memory.spill_events", t.spills as f64 / q, "count");
    report.metric("memory.grant_changes", t.grant_changes as f64 / q, "count");
    report.metric(
        "memory.broker_high_water_bytes",
        facts.broker_high_water as f64,
        "bytes",
    );

    // mq-runtime and mq-par
    // One worker without partitions is the base of both ratios.
    let (mut w1, mut w2, mut p2) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.min(2) {
        w1.push(
            tracer
                .span("runtime.mix_1w", None, |_| pool_mix(db, 1, None))
                .0?,
        );
        w2.push(
            tracer
                .span("runtime.mix_2w", None, |_| pool_mix(db, 2, None))
                .0?,
        );
        p2.push(
            tracer
                .span("par.mix_1w_p2", None, |_| pool_mix(db, 1, Some(2)))
                .0?,
        );
    }
    report.metric("runtime.scaling_2w", ratio(median(&w1), median(&w2)), "x");
    report.metric("runtime.max_in_flight", facts.max_in_flight as f64, "count");
    report.metric(
        "par.saved_sim_ms",
        ratio(facts.par_saved_ms, facts.par_jobs as f64),
        "ms",
    );
    let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
    report.metric("par.skew_ratio_before", mean(&facts.skew_before), "ratio");
    report.metric("par.skew_ratio_after", mean(&facts.skew_after), "ratio");
    report.metric(
        "par.wall_ratio_p2",
        ratio(median(&p2), median(&w1)),
        "ratio",
    );

    // mq-cache
    report.metric(
        "cache.subplan_hit_ratio",
        ratio(
            (a.cache_hits - b.cache_hits) as f64,
            (a.cache_probes - b.cache_probes) as f64,
        ),
        "ratio",
    );
    report.metric(
        "cache.promotions",
        (a.cache_promotions - b.cache_promotions) as f64,
        "count",
    );
    report.metric(
        "cache.saved_sim_ms",
        a.cache_saved_ms - b.cache_saved_ms,
        "ms",
    );

    // persist: the workload's own set-up snapshot, or one of its database.
    let bytes = match facts.snapshot_bytes {
        Some(bytes) => bytes,
        None => {
            let path = out_dir().join(format!("probe-{}.mqsnap", std::process::id()));
            std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
            let saved = tracer.span("persist.save", None, |_| db.save_as(&path)).0;
            let opened = saved.and_then(|_| {
                tracer
                    .span("persist.open", None, |_| {
                        Database::open_with(cfg.clone(), &path)
                    })
                    .0
            });
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let _ = std::fs::remove_file(&path);
            drop(opened.map_err(|e| format!("snapshot probe: {e}"))?);
            bytes
        }
    };
    report.metric(
        "persist.save_ms",
        median(&tracer.durations_s("persist.save")) * 1e3,
        "ms",
    );
    report.metric(
        "persist.open_ms",
        median(&tracer.durations_s("persist.open")) * 1e3,
        "ms",
    );
    report.metric(
        "persist.bytes_per_user_byte",
        ratio(bytes as f64, user_bytes(db)? as f64),
        "ratio",
    );

    // The answer check and the tracer itself.
    report.metric(
        "oracle.inexact_floats_per_query",
        t.inexact_floats as f64 / q,
        "count",
    );
    report.metric("oracle.max_float_rel_diff", t.max_rel_diff, "ratio");
    report.metric("sim.drift_setups", report.drift.len() as f64, "count");
    report.metric("trace.overhead_frac", facts.trace_overhead, "ratio");
    report.metric("trace.spans", tracer.spans().len() as f64, "count");
    Ok(())
}
