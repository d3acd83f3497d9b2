//! The three workloads. Each run covers several data sets, made from
//! seeds derived from `--seed`, so one run averages over data rather
//! than resting on one draw of it: a near-tie in one data set can flip
//! a plan and move every number. Each data set is set up once (the
//! median set-up is `setup_s`) and gets an oracle computed on the same
//! state; the closed loop then takes the data sets in turn, one unit of
//! work (a round, a block, a batch) each, until the requested seconds
//! have passed and every data set has run equally often. Every answer
//! is checked and every engine audited afterwards.
//!
//! An untraced run reports the end-to-end metrics. A traced run spends
//! the first half of its seconds untraced and the second half traced
//! (spans, plus an mq-obs `RingSink` on every statement); the per-layer
//! metrics come from the traced half and from the probes in
//! [`crate::layers`], and the throughput of the two halves gives the
//! tracing overhead.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use midq::common::{DetRng, EngineConfig};
use midq::obs::{Obs, ObsEvent, ObsSink, RingSink, SpanInfo, TeeSink};
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, LogicalPlan, QueryOutcome, ReoptMode, Runtime, Workload, WorkloadQuery};

use crate::layers::{self, LoopFacts, PaperWalls, Snap};
use crate::oracle::{canon, compare, Canon};
use crate::spans::{median, percentile, ratio, Tracer};
use crate::{out_dir, peak_rss_mb, Opts, Report};

/// The paper's regime (`BenchSetup::default()` of mq-bench): a 64-page
/// (256 KiB) buffer pool, 512 KiB of memory per query.
pub fn paper_config() -> EngineConfig {
    EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        ..EngineConfig::default()
    }
}

/// TPC-D at `scale`, analyzed once half of it is loaded (a stale
/// catalog, so re-optimization has estimation errors to correct).
pub fn stale_tpcd(scale: f64, seed: u64, zipf_z: Option<f64>) -> TpcdConfig {
    TpcdConfig {
        scale,
        seed,
        zipf_z,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    }
}

/// The TPC-D seeds of the `n` data sets a run with `seed` covers;
/// distinct seeds give disjoint data sets.
fn data_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| seed.wrapping_mul(n as u64).wrapping_add(i))
        .collect()
}

pub const MODES: [ReoptMode; 2] = [ReoptMode::Off, ReoptMode::Full];

pub fn mode_name(mode: ReoptMode) -> &'static str {
    match mode {
        ReoptMode::Off => "off",
        _ => "full",
    }
}

/// Counts gathered over one loop.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub wall_s: f64,
    /// Statements per second of each unit of work (a round, a batch, a
    /// block of statements); throughput is their median.
    pub unit_rates: Vec<f64>,
    /// Statements completed (queries and writes).
    pub stmts: u64,
    pub lat_ms: Vec<f64>,
    pub write_lat_ms: Vec<f64>,
    /// Query outcomes folded into the sums below.
    pub queries: u64,
    pub sim_ms: f64,
    /// Simulated ms of the Full-mode queries, and of the same queries
    /// under Off mode: their ratio is `reopt_sim_gain`.
    pub gain_full_ms: f64,
    pub gain_off_ms: f64,
    pub pages_read: u64,
    pub pages_written: u64,
    pub cpu_ops: u64,
    pub opt_work: u64,
    pub collector_reports: u64,
    pub switches: u64,
    pub reallocs: u64,
    pub spills: u64,
    pub grant_changes: u64,
    pub inexact_floats: u64,
    pub max_rel_diff: f64,
}

impl Tally {
    /// Fold in a Full-mode outcome and the simulated ms the same
    /// statement took under Off mode.
    fn add_full(&mut self, out: &QueryOutcome, off_ms: f64) {
        self.add_outcome(out);
        self.gain_full_ms += out.time_ms;
        self.gain_off_ms += off_ms;
    }

    fn add_outcome(&mut self, out: &QueryOutcome) {
        self.queries += 1;
        self.sim_ms += out.time_ms;
        self.pages_read += out.cost.pages_read;
        self.pages_written += out.cost.pages_written;
        self.cpu_ops += out.cost.cpu_ops;
        self.opt_work += out.cost.opt_work;
        self.collector_reports += u64::from(out.collector_reports);
        self.switches += u64::from(out.plan_switches);
        self.reallocs += u64::from(out.memory_reallocs);
    }

    /// Add another tally's simulated-cost sums to this one.
    fn add_sims(&mut self, other: &Tally) {
        self.queries += other.queries;
        self.sim_ms += other.sim_ms;
        self.gain_full_ms += other.gain_full_ms;
        self.gain_off_ms += other.gain_off_ms;
        self.pages_read += other.pages_read;
        self.pages_written += other.pages_written;
        self.cpu_ops += other.cpu_ops;
        self.opt_work += other.opt_work;
    }

    fn throughput(&self) -> f64 {
        if self.unit_rates.is_empty() {
            ratio(self.stmts as f64, self.wall_s)
        } else {
            median(&self.unit_rates)
        }
    }

    /// Close a unit of work of `stmts` statements begun at `start`.
    fn unit_done(&mut self, stmts: usize, start: Instant) {
        self.unit_rates
            .push(ratio(stmts as f64, start.elapsed().as_secs_f64()));
    }

    /// Count the memory events a `RingSink` saw, then empty it.
    fn drain_ring(&mut self, ring: &RingSink) {
        for r in ring.records() {
            match r.event {
                ObsEvent::Spill { .. } => self.spills += 1,
                ObsEvent::GrantChange { .. } => self.grant_changes += 1,
                _ => {}
            }
        }
        ring.clear();
    }

    /// Check a result against its oracle; a miss counts as a failed
    /// statement.
    fn check(&mut self, report: &mut Report, what: &str, want: &Canon, got: &Canon) {
        match compare(want, got) {
            Ok(a) => {
                self.inexact_floats += a.inexact_floats;
                self.max_rel_diff = self.max_rel_diff.max(a.max_rel_diff);
            }
            Err(e) => report.fail(format!("{what}: wrong answer: {e}")),
        }
    }
}

/// Statements a measured loop runs at the least, so that at least ten
/// lie beyond its p95 latency.
const MIN_STMTS: u64 = 200;

/// Keep looping while a data set has not had its turn, the seconds are
/// not up, fewer than `min_stmts` statements ran, or the data sets have
/// not run equally often.
fn keep_going(
    units: usize,
    sets: usize,
    t0: Instant,
    secs: f64,
    stmts: u64,
    min_stmts: u64,
) -> bool {
    units < sets
        || t0.elapsed().as_secs_f64() < secs
        || stmts < min_stmts
        || !units.is_multiple_of(sets)
}

/// Build one database per data seed, each set-up timed as a span.
fn timed_setups<T>(
    seeds: &[u64],
    tracer: &mut Tracer,
    mut build: impl FnMut(u64, &mut Tracer) -> Result<T, String>,
) -> Result<(Vec<T>, Vec<f64>), String> {
    let mut built = Vec::with_capacity(seeds.len());
    let mut secs = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let (b, d) = tracer.span("setup", None, |tr| build(seed, tr));
        built.push(b?);
        secs.push(d.as_secs_f64());
    }
    Ok((built, secs))
}

/// The determinism check. Before the measured set-ups, a rehearsal sets
/// up the first data set once more and runs its leading statements; the
/// measured copy must reproduce their simulated-cost fingerprint
/// exactly. A difference is an engine or benchmark bug, never noise: it
/// is printed as a `DRIFT` line and counted in `sim.drift_setups`, but
/// it does not fail the run while the engine has the known drift this
/// check found (see perfbench/README.md).
fn same_sim(report: &mut Report, rehearsal: &str, measured: &str) {
    report.note("sim_fingerprint", measured);
    if rehearsal != measured {
        report.drift.push(format!(
            "the rehearsal gave {rehearsal}, the measured set-up {measured}"
        ));
    }
}

/// The simulated-cost counts that must repeat exactly for one seed.
fn sim_fingerprint(t: &Tally) -> String {
    format!(
        "queries={} sim_ms={} off_ms={} pages={}/{} cpu_ops={} opt_work={}",
        t.queries, t.sim_ms, t.gain_off_ms, t.pages_read, t.pages_written, t.cpu_ops, t.opt_work
    )
}

fn load(db: &Database, cfg: &TpcdConfig, tracer: &mut Tracer) -> Result<(), String> {
    tracer
        .span("tpcd.load", None, |_| db.load_tpcd(cfg))
        .0
        .map(|_| ())
        .map_err(|e| format!("load: {e}"))
}

fn run_plan(
    db: &Database,
    plan: &LogicalPlan,
    mode: ReoptMode,
    obs: Option<&Obs>,
) -> midq::Result<QueryOutcome> {
    let q = db.query_plan(plan).mode(mode);
    match obs {
        Some(o) => q.observed(o).run(),
        None => q.run(),
    }
}

/// A fresh ring sink and the handle that routes events into it.
pub fn ring_obs() -> (Arc<RingSink>, Obs) {
    let ring = Arc::new(RingSink::new(1 << 16));
    let obs = Obs::none().with_sink(ring.clone());
    (ring, obs)
}

/// The end-to-end metrics shared by every workload; `sim` holds the
/// simulated-cost sums they are taken over.
fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    tally: &Tally,
    sim: &Tally,
) -> Result<(), String> {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("throughput_qps", tally.throughput(), "1/s");
    report.metric("latency_p50_ms", percentile(&tally.lat_ms, 50.0), "ms");
    report.metric("latency_p95_ms", percentile(&tally.lat_ms, 95.0), "ms");
    report.metric(
        "sim_ms_per_query",
        ratio(sim.sim_ms, sim.queries as f64),
        "ms",
    );
    report.metric(
        "reopt_sim_gain",
        ratio(sim.gain_off_ms, sim.gain_full_ms),
        "x",
    );
    report.metric(
        "answer_ok_ratio",
        1.0 - ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    report.note("statements", tally.stmts);
    report.note("unit_rates", format!("{:?}", tally.unit_rates));
    report.note("setup_s_each", format!("{setup_s:?}"));
    Ok(())
}

fn audit(db: &Database, report: &mut Report) {
    let a = db.engine().audit();
    if !a.is_clean() {
        report.fault(format!("engine audit not clean: {a}"));
    }
}

/// Fold a traced loop's counts and the probes into per-layer metrics;
/// the probes run on the first data set's database.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    opts: &Opts,
    db: &Database,
    tracer: &mut Tracer,
    report: &mut Report,
    untraced: &Tally,
    traced: &Tally,
    mut facts: LoopFacts,
    walls: Option<PaperWalls>,
) -> Result<(), String> {
    facts.trace_overhead = ratio(untraced.throughput(), traced.throughput()) - 1.0;
    layers::report(opts, db, tracer, report, traced, facts, walls)?;
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.note("spans_file", path.display());
    Ok(())
}

// ---------------------------------------------------------------- tpcd-reopt

/// One tpcd-reopt data set: its database and each paper query's oracle,
/// the Off-mode rows.
struct PaperSet {
    db: Database,
    oracle: HashMap<&'static str, Canon>,
}

impl PaperSet {
    /// Run one Off-mode round serially on the loaded state: the oracle.
    fn new(db: Database) -> Result<PaperSet, String> {
        let mut oracle = HashMap::new();
        for (name, plan) in queries::all() {
            let out = run_plan(&db, &plan, ReoptMode::Off, None)
                .map_err(|e| format!("oracle {name}: {e}"))?;
            oracle.insert(name, canon(&out.rows));
        }
        Ok(PaperSet { db, oracle })
    }
}

/// Rounds of the paper's seven queries, each under Off then Full, the
/// data sets taking turns. Every answer is checked against its oracle.
/// Returns the counts after each round of the first cycle: `[0]` covers
/// the first data set's first round, the last the whole first cycle, the
/// prefix the simulated-cost metrics are taken over.
fn paper_loop(
    sets: &[PaperSet],
    secs: f64,
    min_stmts: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
    walls: &mut PaperWalls,
) -> Vec<Tally> {
    let plans = queries::all();
    let ring = tracer.enabled().then(ring_obs);
    let mut firsts = Vec::new();
    let t0 = Instant::now();
    let mut rounds = 0;
    while keep_going(rounds, sets.len(), t0, secs, tally.stmts, min_stmts) {
        let set = &sets[rounds % sets.len()];
        let round = Instant::now();
        for (name, plan) in &plans {
            let mut off_ms = 0.0;
            for mode in MODES {
                let id = tally.stmts;
                report.attempted += 1;
                let obs = ring.as_ref().map(|(_, o)| o);
                let (res, d) =
                    tracer.span("query", Some(id), |_| run_plan(&set.db, plan, mode, obs));
                tally.stmts += 1;
                let ms = d.as_secs_f64() * 1e3;
                tally.lat_ms.push(ms);
                if let Some((ring, _)) = &ring {
                    tally.drain_ring(ring);
                }
                let what = format!("{name} {}", mode_name(mode));
                let out = match res {
                    Ok(out) => out,
                    Err(e) => {
                        report.fail(format!("{what}: {e}"));
                        continue;
                    }
                };
                let runs = walls.entry((name, mode)).or_default();
                runs.wall_ms.push(ms);
                runs.sim_ms = out.time_ms;
                if mode == ReoptMode::Off {
                    off_ms = out.time_ms;
                    tally.add_outcome(&out);
                } else {
                    tally.add_full(&out, off_ms);
                }
                tally.check(report, &what, &set.oracle[name], &canon(&out.rows));
            }
        }
        tally.unit_done(plans.len() * MODES.len(), round);
        rounds += 1;
        if firsts.len() < sets.len() {
            firsts.push(tally.clone());
        }
    }
    tally.wall_s += t0.elapsed().as_secs_f64();
    firsts
}

pub fn tpcd_reopt(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let sc = &opts.scale;
    let seeds = data_seeds(opts.seed, sc.datasets);
    let build = |seed: u64, tr: &mut Tracer| {
        let db = Database::new(paper_config()).map_err(|e| e.to_string())?;
        load(&db, &stale_tpcd(sc.tpcd_sf, seed, None), tr)?;
        Ok(db)
    };
    let rehearsal = {
        let set = PaperSet::new(build(seeds[0], &mut Tracer::new(false))?)?;
        let mut scratch = Report::default();
        let firsts = paper_loop(
            std::slice::from_ref(&set),
            0.0,
            0,
            &mut Tracer::new(false),
            &mut scratch,
            &mut Tally::default(),
            &mut PaperWalls::new(),
        );
        if let Some(e) = scratch.errors.first() {
            return Err(format!("rehearsal: {e}"));
        }
        sim_fingerprint(&firsts[0])
    };
    let mut tracer = Tracer::new(opts.trace);
    let (dbs, setup_s) = timed_setups(&seeds, &mut tracer, build)?;
    let sets = dbs
        .into_iter()
        .map(PaperSet::new)
        .collect::<Result<Vec<_>, _>>()?;
    let secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut untraced = Tally::default();
    let firsts = paper_loop(
        &sets,
        secs,
        MIN_STMTS,
        &mut Tracer::new(false),
        report,
        &mut untraced,
        &mut PaperWalls::new(),
    );
    same_sim(report, &rehearsal, &sim_fingerprint(&firsts[0]));
    let before = Snap::take(sets.iter().map(|s| &s.db));
    let mut traced = Tally::default();
    let mut walls = PaperWalls::new();
    if opts.trace {
        paper_loop(&sets, secs, 0, &mut tracer, report, &mut traced, &mut walls);
    }
    for s in &sets {
        audit(&s.db, report);
    }
    if !opts.trace {
        let cycle = firsts.last().expect("one cycle ran");
        return end_to_end(report, &setup_s, &untraced, cycle);
    }
    let facts = LoopFacts {
        before,
        after: Snap::take(sets.iter().map(|s| &s.db)),
        ..LoopFacts::default()
    };
    per_layer(
        opts,
        &sets[0].db,
        &mut tracer,
        report,
        &untraced,
        &traced,
        facts,
        Some(walls),
    )
}

// -------------------------------------------------------------- sql-families

/// The statement families of sql-families.
#[derive(Debug, Clone, Copy)]
enum Family {
    InsertOrder,
    InsertLineitem,
    OrderByKey,
    LinesByKey,
    OrderRange,
    RangeJoin,
}

/// The family mix, dealt in a seeded order one deck at a time, so every
/// seed runs the same mix: 10% single-row INSERTs, 30% and 20% point
/// lookups, 20% key ranges and 20% small joins.
const DECK: [Family; 20] = {
    use Family::*;
    [
        InsertOrder,
        InsertLineitem,
        OrderByKey,
        OrderByKey,
        OrderByKey,
        OrderByKey,
        OrderByKey,
        OrderByKey,
        LinesByKey,
        LinesByKey,
        LinesByKey,
        LinesByKey,
        OrderRange,
        OrderRange,
        OrderRange,
        OrderRange,
        RangeJoin,
        RangeJoin,
        RangeJoin,
        RangeJoin,
    ]
};

/// The seeded statement stream of sql-families: point lookups by key,
/// a key range, a small two-way join with a selective filter, and
/// single-row INSERTs into the tables those read.
pub struct SqlStream {
    rng: DetRng,
    deck: Vec<Family>,
    next_order: i64,
    customers: i64,
    parts: i64,
    suppliers: i64,
}

/// Table sizes [`SqlStream`] draws keys from, as loaded by mq-tpcd.
fn tpcd_keys(db: &Database, table: &str) -> Result<i64, String> {
    let t = db
        .engine()
        .catalog()
        .table(table)
        .map_err(|e| e.to_string())?;
    let rows = db
        .engine()
        .storage()
        .file_rows(t.file)
        .map_err(|e| e.to_string())?;
    i64::try_from(rows).map_err(|e| e.to_string())
}

impl SqlStream {
    pub fn new(db: &Database, seed: u64) -> Result<SqlStream, String> {
        Ok(SqlStream {
            rng: DetRng::new(seed ^ 0x51A1_F00D),
            deck: Vec::new(),
            next_order: tpcd_keys(db, "orders")?,
            customers: tpcd_keys(db, "customer")?,
            parts: tpcd_keys(db, "part")?,
            suppliers: tpcd_keys(db, "supplier")?,
        })
    }

    fn date(&mut self) -> String {
        format!(
            "DATE '199{}-{:02}-{:02}'",
            self.rng.gen_i64(2, 8),
            self.rng.gen_i64(1, 12),
            self.rng.gen_i64(1, 28)
        )
    }

    /// The next statement and whether it writes.
    pub fn next_stmt(&mut self) -> (String, bool) {
        if self.deck.is_empty() {
            self.deck = DECK.to_vec();
            self.rng.shuffle(&mut self.deck);
        }
        let family = self.deck.pop().expect("deck refilled");
        let key = self.rng.gen_i64(0, self.next_order - 1);
        match family {
            Family::InsertOrder => {
                let k = self.next_order;
                self.next_order += 1;
                let cust = self.rng.gen_i64(0, self.customers - 1);
                let price = self.rng.gen_i64(100_000, 50_000_000) as f64 / 100.0;
                let date = self.date();
                (
                    format!("INSERT INTO orders VALUES ({k}, {cust}, 'O', {price:.2}, {date}, 0)"),
                    true,
                )
            }
            Family::InsertLineitem => {
                let part = self.rng.gen_i64(0, self.parts - 1);
                let supp = self.rng.gen_i64(0, self.suppliers - 1);
                let qty = self.rng.gen_i64(1, 50);
                let price = qty as f64 * self.rng.gen_i64(90_000, 110_000) as f64 / 100.0;
                let disc = self.rng.gen_i64(0, 10) as f64 / 100.0;
                let tax = self.rng.gen_i64(0, 8) as f64 / 100.0;
                let (d1, d2, d3) = (self.date(), self.date(), self.date());
                (
                    format!(
                        "INSERT INTO lineitem VALUES ({key}, {part}, {supp}, {qty}, {price:.2}, \
                         {disc:.2}, {tax:.2}, 'N', 'O', {d1}, {d2}, {d3})"
                    ),
                    true,
                )
            }
            Family::OrderByKey => (
                format!(
                    "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate \
                     FROM orders WHERE o_orderkey = {key}"
                ),
                false,
            ),
            Family::LinesByKey => (
                format!(
                    "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice \
                     FROM lineitem WHERE l_orderkey = {key}"
                ),
                false,
            ),
            Family::OrderRange => (
                format!(
                    "SELECT o_orderkey, o_totalprice FROM orders \
                     WHERE o_orderkey >= {key} AND o_orderkey < {}",
                    key + 20
                ),
                false,
            ),
            Family::RangeJoin => (
                format!(
                    "SELECT o_orderkey, count(*) AS n, sum(l_extendedprice) AS revenue \
                     FROM orders, lineitem \
                     WHERE o_orderkey = l_orderkey AND o_orderkey >= {key} AND o_orderkey < {} \
                     GROUP BY o_orderkey ORDER BY o_orderkey",
                    key + 8
                ),
                false,
            ),
        }
    }
}

/// The sql-families configuration: a buffer pool the working set fits
/// in (8 MiB against ~3 MB of data), the plan cache on or off.
fn sql_config(plan_cache: bool) -> EngineConfig {
    EngineConfig {
        buffer_pool_pages: 2048,
        plan_cache_enabled: plan_cache,
        ..EngineConfig::default()
    }
}

/// Run one sql-families statement; queries return their outcome.
fn run_sql(
    db: &Database,
    sql: &str,
    write: bool,
    mode: ReoptMode,
    obs: Option<&Obs>,
) -> midq::Result<Option<QueryOutcome>> {
    if write {
        return db.execute_sql(sql, mode).map(|_| None);
    }
    let q = db.query(sql).mode(mode);
    match obs {
        Some(o) => q.observed(o).run().map(Some),
        None => q.run().map(Some),
    }
}

/// Statements per unit of work of sql-families: ten decks.
const SQL_BLOCK: usize = 10 * DECK.len();

/// One sql-families data set: the measured database, restored from its
/// set-up snapshot, and its statement stream, with what the loop kept
/// for the oracle replay and the determinism check.
struct SqlSet {
    db: Database,
    seed: u64,
    snap: PathBuf,
    stream: SqlStream,
    /// Each statement's rows, in stream order (writes keep `None`).
    rows: Vec<Option<Canon>>,
    /// Counts over the first `sql_prefix` statements.
    prefix: Tally,
    /// Plan-cache counters when the stream started and after its
    /// prefix.
    pc_start: midq::PlanCacheStats,
    pc_prefix: midq::PlanCacheStats,
}

impl SqlSet {
    /// Load data set `seed`, snapshot it to `snap` and reopen it from
    /// there: set-up includes a restart.
    fn build(sf: f64, seed: u64, snap: &Path, tr: &mut Tracer) -> Result<SqlSet, String> {
        let _ = std::fs::remove_file(snap);
        let loaded = Database::new(sql_config(true)).map_err(|e| e.to_string())?;
        let fresh = TpcdConfig {
            scale: sf,
            seed,
            ..TpcdConfig::default()
        };
        load(&loaded, &fresh, tr)?;
        tr.span("persist.save", None, |_| loaded.save_as(snap))
            .0
            .map_err(|e| format!("save: {e}"))?;
        drop(loaded);
        let db = tr
            .span("persist.open", None, |_| {
                Database::open_with(sql_config(true), snap)
            })
            .0
            .map_err(|e| format!("open: {e}"))?;
        Ok(SqlSet {
            stream: SqlStream::new(&db, seed)?,
            pc_start: db.plan_cache_stats(),
            pc_prefix: db.plan_cache_stats(),
            db,
            seed,
            snap: snap.to_path_buf(),
            rows: Vec::new(),
            prefix: Tally::default(),
        })
    }

    /// Run the next `n` statements of the stream.
    fn run_block(
        &mut self,
        n: usize,
        prefix: u64,
        tracer: &mut Tracer,
        obs: Option<&Obs>,
        report: &mut Report,
        tally: &mut Tally,
    ) {
        for _ in 0..n {
            let (sql, write) = self.stream.next_stmt();
            let id = self.rows.len() as u64;
            report.attempted += 1;
            let name = if write { "write" } else { "query" };
            let (res, d) = tracer.span(name, Some(tally.stmts), |_| {
                run_sql(&self.db, &sql, write, ReoptMode::Full, obs)
            });
            tally.stmts += 1;
            let ms = d.as_secs_f64() * 1e3;
            tally.lat_ms.push(ms);
            if write {
                tally.write_lat_ms.push(ms);
            }
            match res {
                Ok(Some(out)) => {
                    tally.add_outcome(&out);
                    if id < prefix {
                        // The Off-mode side of the gain comes from the
                        // oracle replay.
                        self.prefix.add_full(&out, 0.0);
                    }
                    self.rows.push(Some(canon(&out.rows)));
                }
                Ok(None) => self.rows.push(None),
                Err(e) => {
                    report.fail(format!("statement {id} ({sql}): {e}"));
                    self.rows.push(None);
                }
            }
            if self.rows.len() as u64 == prefix {
                self.pc_prefix = self.db.plan_cache_stats();
            }
        }
    }

    /// The simulated-cost and plan-cache counts of the prefix.
    fn fingerprint(&self) -> String {
        let (a, b) = (&self.pc_start, &self.pc_prefix);
        format!(
            "{} plancache_hits={} misses={} stale={}",
            sim_fingerprint(&self.prefix),
            b.hits - a.hits,
            b.misses - a.misses,
            b.stale_reopts - a.stale_reopts
        )
    }

    /// Replay every statement run on this data set on an oracle: the
    /// same snapshot opened with the plan cache off, in Off mode.
    fn replay(
        &mut self,
        prefix: u64,
        report: &mut Report,
        checked: &mut Tally,
    ) -> Result<(), String> {
        let oracle = Database::open_with(sql_config(false), &self.snap)
            .map_err(|e| format!("oracle open: {e}"))?;
        let mut stream = SqlStream::new(&oracle, self.seed)?;
        for (id, got) in self.rows.iter().enumerate() {
            let (sql, write) = stream.next_stmt();
            match run_sql(&oracle, &sql, write, ReoptMode::Off, None) {
                Ok(Some(out)) => {
                    if (id as u64) < prefix {
                        self.prefix.gain_off_ms += out.time_ms;
                    }
                    if let Some(got) = got {
                        let what = format!("statement {id} ({sql})");
                        checked.check(report, &what, &canon(&out.rows), got);
                    }
                }
                Ok(None) => {}
                Err(e) => return Err(format!("oracle statement {id} ({sql}): {e}")),
            }
        }
        audit(&oracle, report);
        Ok(())
    }
}

/// Blocks of statements, the data sets taking turns, until every data
/// set has run its prefix and the seconds are up.
fn sql_loop(
    sets: &mut [SqlSet],
    secs: f64,
    min_stmts: u64,
    prefix: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) {
    let ring = tracer.enabled().then(ring_obs);
    let obs = ring.as_ref().map(|(_, o)| o);
    let t0 = Instant::now();
    let mut blocks = 0;
    while keep_going(blocks, sets.len(), t0, secs, tally.stmts, min_stmts)
        || sets.iter().any(|s| (s.rows.len() as u64) < prefix)
    {
        let n = sets.len();
        let block = Instant::now();
        sets[blocks % n].run_block(SQL_BLOCK, prefix, tracer, obs, report, tally);
        tally.unit_done(SQL_BLOCK, block);
        if let Some((ring, _)) = &ring {
            tally.drain_ring(ring);
        }
        blocks += 1;
    }
    tally.wall_s += t0.elapsed().as_secs_f64();
}

pub fn sql_families(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let snap = |tag: &str| dir.join(format!("sql-families-{}-{tag}.mqsnap", std::process::id()));
    let seeds = data_seeds(opts.seed, opts.scale.datasets);
    let mut paths: Vec<PathBuf> = seeds.iter().map(|s| snap(&s.to_string())).collect();
    paths.push(snap("rehearsal"));
    let result = sql_measure(opts, report, &seeds, &paths);
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    result
}

fn sql_measure(
    opts: &Opts,
    report: &mut Report,
    seeds: &[u64],
    paths: &[PathBuf],
) -> Result<(), String> {
    let sc = &opts.scale;
    let prefix = sc.sql_prefix;
    let rehearsal = {
        let rehearsal_snap = paths.last().expect("a rehearsal path");
        let mut quiet = Tracer::new(false);
        let mut set = SqlSet::build(sc.sql_sf, seeds[0], rehearsal_snap, &mut quiet)?;
        let mut scratch = Report::default();
        let n = prefix as usize;
        set.run_block(
            n,
            prefix,
            &mut quiet,
            None,
            &mut scratch,
            &mut Tally::default(),
        );
        if let Some(e) = scratch.errors.first() {
            return Err(format!("rehearsal: {e}"));
        }
        set.fingerprint()
    };
    let mut tracer = Tracer::new(opts.trace);
    let mut i = 0;
    let (mut sets, setup_s) = timed_setups(seeds, &mut tracer, |seed, tr| {
        i += 1;
        SqlSet::build(sc.sql_sf, seed, &paths[i - 1], tr)
    })?;
    let snap_bytes = std::fs::metadata(&paths[0]).map(|m| m.len()).unwrap_or(0);
    let secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut untraced = Tally::default();
    sql_loop(
        &mut sets,
        secs,
        MIN_STMTS,
        prefix,
        &mut Tracer::new(false),
        report,
        &mut untraced,
    );
    let before = Snap::take(sets.iter().map(|s| &s.db));
    let mut traced = Tally::default();
    if opts.trace {
        sql_loop(&mut sets, secs, 0, 0, &mut tracer, report, &mut traced);
    }
    let after = Snap::take(sets.iter().map(|s| &s.db));
    same_sim(report, &rehearsal, &sets[0].fingerprint());
    let mut checked = Tally::default();
    let mut sims = Tally::default();
    for set in &mut sets {
        set.replay(prefix, report, &mut checked)?;
        audit(&set.db, report);
        sims.add_sims(&set.prefix);
    }
    if !opts.trace {
        return end_to_end(report, &setup_s, &untraced, &sims);
    }
    traced.inexact_floats = checked.inexact_floats;
    traced.max_rel_diff = checked.max_rel_diff;
    let facts = LoopFacts {
        before,
        after,
        snapshot_bytes: Some(snap_bytes),
        ..LoopFacts::default()
    };
    per_layer(
        opts,
        &sets[0].db,
        &mut tracer,
        report,
        &untraced,
        &traced,
        facts,
        None,
    )
}

// ----------------------------------------------------------- concurrent-skew

/// Per-job wall-clock marks: the instants of each job's `QueryStart`
/// and `QueryEnd` events, taken on whichever worker runs it.
type Marks = HashMap<u64, (Option<Instant>, Option<Instant>)>;

/// An mq-obs sink that only timestamps job starts and ends: the
/// runtime reports no per-job wall time, so latency is measured here.
#[derive(Default)]
struct WallSink {
    marks: Mutex<Marks>,
}

impl ObsSink for WallSink {
    fn emit(&self, span: &SpanInfo, event: &ObsEvent) {
        let start = match event {
            ObsEvent::QueryStart { .. } => true,
            ObsEvent::QueryEnd { .. } => false,
            _ => return,
        };
        let now = Instant::now();
        let mut marks = self.marks.lock().expect("wall sink lock poisoned");
        let e = marks.entry(span.job).or_default();
        if start {
            e.0.get_or_insert(now);
        } else {
            e.1 = Some(now);
        }
    }
}

impl WallSink {
    fn take(&self) -> Marks {
        std::mem::take(&mut *self.marks.lock().expect("wall sink lock poisoned"))
    }
}

/// One job of the concurrent mix, with its oracle.
struct Job {
    label: String,
    query: WorkloadQuery,
    oracle: Canon,
    oracle_sim_ms: f64,
}

/// One concurrent-skew data set: its database, the worker pool over it
/// and its jobs.
struct SkewSet {
    db: Database,
    runtime: Runtime,
    jobs: Vec<Job>,
    /// Deals each batch's job order.
    rng: DetRng,
}

const SKEW_WORKERS: usize = 2;

impl SkewSet {
    /// The paper queries in Full mode, each serial and at two
    /// partitions; the five with SQL text go through SQL so the plan
    /// cache sees them. Each job's oracle is its Off-mode answer, run
    /// serially on the loaded state (through the partitioned driver for
    /// partitioned jobs).
    fn new(db: Database, seed: u64) -> Result<SkewSet, String> {
        let sql: HashMap<&str, &'static str> = [
            ("Q1", queries::q1_sql()),
            ("Q3", queries::q3_sql()),
            ("Q5", queries::q5_sql()),
            ("Q6", queries::q6_sql()),
            ("Q10", queries::q10_sql()),
        ]
        .into_iter()
        .collect();
        let mut jobs = Vec::new();
        for (name, plan) in queries::all() {
            for partitions in [None, Some(2)] {
                let label = match partitions {
                    Some(p) => format!("{name}.p{p}"),
                    None => name.to_string(),
                };
                let (mut query, oracle) = match sql.get(name) {
                    Some(text) => (WorkloadQuery::sql(label.clone(), *text), db.query(text)),
                    None => (
                        WorkloadQuery::plan(label.clone(), plan.clone()),
                        db.query_plan(&plan),
                    ),
                };
                let mut oracle = oracle.mode(ReoptMode::Off);
                if let Some(p) = partitions {
                    query = query.with_partitions(p);
                    oracle = oracle.partitions(p);
                }
                let out = oracle.run().map_err(|e| format!("oracle {label}: {e}"))?;
                jobs.push(Job {
                    label,
                    query: query.with_mode(ReoptMode::Full),
                    oracle: canon(&out.rows),
                    oracle_sim_ms: out.time_ms,
                });
            }
        }
        // The pool `Database::run_concurrent` builds, kept in hand so
        // its broker can be audited for leaked bytes afterwards.
        let runtime = Runtime::with_default_budget(db.engine_arc(), SKEW_WORKERS);
        Ok(SkewSet {
            db,
            runtime,
            jobs,
            rng: DetRng::new(seed ^ 0x5CE3),
        })
    }
}

/// The concurrent-skew configuration: the paper regime with the
/// sub-plan cache and the plan cache on.
fn skew_config() -> EngineConfig {
    EngineConfig {
        cache_enabled: true,
        plan_cache_enabled: true,
        ..paper_config()
    }
}

/// Batches handed to the worker pools in a closed loop, the data sets
/// taking turns; each batch is the job mix twice, in a seeded order.
fn skew_loop(
    sets: &mut [SkewSet],
    secs: f64,
    min_stmts: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
    facts: &mut LoopFacts,
) {
    let wall = Arc::new(WallSink::default());
    let ring = tracer.enabled().then(|| Arc::new(RingSink::new(1 << 16)));
    let sink: Arc<dyn ObsSink> = match &ring {
        Some(r) => Arc::new(TeeSink::new(vec![wall.clone(), r.clone()])),
        None => wall.clone(),
    };
    let t0 = Instant::now();
    let mut batches = 0;
    while keep_going(batches, sets.len(), t0, secs, tally.stmts, min_stmts) {
        let n = sets.len();
        let set = &mut sets[batches % n];
        batches += 1;
        let mut order: Vec<usize> = (0..set.jobs.len()).chain(0..set.jobs.len()).collect();
        set.rng.shuffle(&mut order);
        let mut wl = Workload::new(SKEW_WORKERS).with_obs(Obs::none().with_sink(sink.clone()));
        for &k in &order {
            wl = wl.query(set.jobs[k].query.clone());
        }
        let first_id = tally.stmts;
        let batch = Instant::now();
        let ((rep, marks), _) = tracer.span("batch", None, |tr| {
            let rep = set.runtime.run_workload(&wl);
            let marks = wall.take();
            for (&job, &(s, e)) in &marks {
                if let (Some(s), Some(e)) = (s, e) {
                    tr.record("job", Some(first_id + job - 1), s, e);
                }
            }
            (rep, marks)
        });
        tally.unit_done(rep.results.len(), batch);
        if let Some(ring) = &ring {
            tally.drain_ring(ring);
        }
        facts.broker_high_water = facts.broker_high_water.max(rep.broker_high_water as u64);
        facts.max_in_flight = facts.max_in_flight.max(rep.max_in_flight as u64);
        for r in &rep.results {
            let job = &set.jobs[order[r.index]];
            let what = format!("job {} ({})", first_id + r.index as u64, job.label);
            report.attempted += 1;
            tally.stmts += 1;
            let out = match &r.outcome {
                Ok(out) => out,
                Err(e) => {
                    report.fail(format!("{what}: {e}"));
                    continue;
                }
            };
            match marks.get(&(r.index as u64 + 1)) {
                Some(&(Some(s), Some(e))) => tally.lat_ms.push((e - s).as_secs_f64() * 1e3),
                _ => report.fault(format!("{what}: no start/end events to time it by")),
            }
            tally.add_full(out, job.oracle_sim_ms);
            tally.check(report, &what, &job.oracle, &canon(&out.rows));
            if let Some(par) = &out.par {
                facts.par_jobs += 1;
                facts.par_saved_ms += par.saved_ms;
                // Per repartitioning exchange: max/mean rows per
                // partition before and after any skew re-balance.
                for x in par.exchanges.iter().filter(|x| x.mode == "repartition") {
                    let loads = &x.per_partition_rows;
                    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
                    let after = ratio(loads.iter().copied().max().unwrap_or(0) as f64, mean);
                    let before = par
                        .skew
                        .iter()
                        .find(|s| s.node == x.node)
                        .map_or(after, |s| s.ratio);
                    facts.skew_before.push(before);
                    facts.skew_after.push(after);
                }
            }
        }
    }
    tally.wall_s += t0.elapsed().as_secs_f64();
}

pub fn concurrent_skew(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let sc = &opts.scale;
    let seeds = data_seeds(opts.seed, sc.datasets);
    let mut tracer = Tracer::new(opts.trace);
    // Simulated costs here depend on how the workers interleave on the
    // shared buffer pool, so they are reported but not checked for
    // drift, and there is no rehearsal.
    let (dbs, setup_s) = timed_setups(&seeds, &mut tracer, |seed, tr| {
        let db = Database::new(skew_config()).map_err(|e| e.to_string())?;
        load(&db, &stale_tpcd(sc.skew_sf, seed, Some(0.6)), tr)?;
        Ok(db)
    })?;
    let mut sets = dbs
        .into_iter()
        .zip(&seeds)
        .map(|(db, &seed)| SkewSet::new(db, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut facts = LoopFacts::default();
    // One unmeasured batch per data set fills the plan cache and the
    // sub-plan cache, which every later batch finds warm.
    let mut quiet = Tracer::new(false);
    skew_loop(
        &mut sets,
        0.0,
        0,
        &mut quiet,
        report,
        &mut Tally::default(),
        &mut facts,
    );
    let secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut untraced = Tally::default();
    skew_loop(
        &mut sets,
        secs,
        MIN_STMTS,
        &mut quiet,
        report,
        &mut untraced,
        &mut facts,
    );
    let mut traced = Tally::default();
    if opts.trace {
        facts = LoopFacts {
            before: Snap::take(sets.iter().map(|s| &s.db)),
            ..LoopFacts::default()
        };
        skew_loop(
            &mut sets,
            secs,
            0,
            &mut tracer,
            report,
            &mut traced,
            &mut facts,
        );
        facts.after = Snap::take(sets.iter().map(|s| &s.db));
    }
    for s in &sets {
        if s.runtime.broker().in_use() != 0 {
            report.fault(format!(
                "broker still leases {} bytes after the workload",
                s.runtime.broker().in_use()
            ));
        }
        audit(&s.db, report);
    }
    if !opts.trace {
        return end_to_end(report, &setup_s, &untraced, &untraced);
    }
    per_layer(
        opts,
        &sets[0].db,
        &mut tracer,
        report,
        &untraced,
        &traced,
        facts,
        None,
    )
}
