//! # midq — dynamic mid-query re-optimization
//!
//! A production-quality Rust reproduction of **Kabra & DeWitt,
//! "Efficient Mid-Query Re-Optimization of Sub-Optimal Query Execution
//! Plans" (SIGMOD 1998)**: a single-node relational engine whose
//! optimizer annotates plans with its estimates, whose executor
//! collects statistics at strategically chosen points, and whose
//! runtime controller re-allocates memory and re-optimizes the
//! remainder of a running query when the observations prove the plan
//! sub-optimal.
//!
//! ## Quick start
//!
//! ```
//! use midq::Database;
//! use midq::common::{DataType, EngineConfig, Row, Value};
//!
//! let db = Database::new(EngineConfig::default()).unwrap();
//! db.create_table("t", vec![("k", DataType::Int), ("v", DataType::Int)]).unwrap();
//! for i in 0..100 {
//!     db.insert("t", Row::new(vec![Value::Int(i), Value::Int(i % 10)])).unwrap();
//! }
//! db.analyze("t").unwrap();
//! let outcome = db
//!     .query("SELECT v, count(*) AS n FROM t GROUP BY v ORDER BY v")
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.rows.len(), 10);
//! ```
//!
//! ## Durability
//!
//! [`Database::new`] is in-memory; [`Database::open`] restores a
//! database from a snapshot file (or creates a fresh one when the file
//! does not exist yet), and [`Database::save`] writes the catalog,
//! heap data, ANALYZE statistics, cardinality feedback and plan-cache
//! templates back to it atomically:
//!
//! ```
//! use midq::Database;
//! use midq::common::{DataType, Row, Value};
//!
//! let path = std::env::temp_dir().join("midq_doc_quickstart.mqsnap");
//! # let _ = std::fs::remove_file(&path);
//! let db = Database::open(&path).unwrap();
//! db.create_table("t", vec![("k", DataType::Int)]).unwrap();
//! db.insert("t", Row::new(vec![Value::Int(7)])).unwrap();
//! db.save().unwrap();
//!
//! let db2 = Database::open(&path).unwrap();
//! let out = db2.query("SELECT k FROM t").run().unwrap();
//! assert_eq!(out.rows.len(), 1);
//! # let _ = std::fs::remove_file(&path);
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate |
//! |---|---|
//! | shared types, config, simulated clock | [`common`] (`mq-common`) |
//! | disk, buffer pool, heap files, B+-trees | [`storage`] (`mq-storage`) |
//! | histograms, sketches, sampling, Zipf | [`stats`] (`mq-stats`) |
//! | catalogs & ANALYZE | [`catalog`] (`mq-catalog`) |
//! | expressions & selectivity | [`expr`] (`mq-expr`) |
//! | logical & annotated physical plans | [`plan`] (`mq-plan`) |
//! | memory manager | [`memory`] (`mq-memory`) |
//! | System-R optimizer + calibration | [`optimizer`] (`mq-optimizer`) |
//! | operators, collectors, dispatcher | [`exec`] (`mq-exec`) |
//! | **dynamic re-optimization** | [`reopt`] (`mq-reopt`) |
//! | concurrent sessions, memory broker, worker pool | [`runtime`] (`mq-runtime`) |
//! | SQL frontend | [`sql`] (`mq-sql`) |
//! | TPC-D workload | [`tpcd`] (`mq-tpcd`) |

pub use mq_catalog as catalog;
pub use mq_common as common;
pub use mq_exec as exec;
pub use mq_expr as expr;
pub use mq_memory as memory;
pub use mq_obs as obs;
pub use mq_optimizer as optimizer;
pub use mq_plan as plan;
pub use mq_reopt as reopt;
pub use mq_runtime as runtime;
pub use mq_sql as sql;
pub use mq_stats as stats;
pub use mq_storage as storage;
pub use mq_tpcd as tpcd;

pub use mq_common::{EngineConfig, MqError, Result};
pub use mq_plan::LogicalPlan;
pub use mq_reopt::SnapshotReport;
pub use mq_reopt::{
    explain_analyze, explain_plan, normalize, Engine, NormalizedQuery, PlanCacheStats, PlanSource,
    QueryOutcome, RecoveryReport, ReoptMode,
};
pub use mq_runtime::{JobResult, Runtime, Session, Workload, WorkloadQuery, WorkloadReport};
pub use mq_tpcd::TpcdConfig;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mq_common::{DataType, Row, Value};
use mq_memory::MemoryBroker;
use mq_plancache::PreparedSql;

/// Result of [`Database::execute_sql`].
#[derive(Debug)]
pub enum SqlOutcome {
    /// A SELECT's result set and execution report (boxed: a
    /// [`QueryOutcome`] carries the full annotated plan).
    Query(Box<QueryOutcome>),
    /// A DDL/DML acknowledgement.
    Command(String),
}

/// Coerce a literal to a column type where the conversion is lossless
/// and unambiguous (ints into float columns, strings into dates).
fn coerce(v: Value, ty: DataType) -> Result<Value> {
    match (&v, ty) {
        (Value::Null, _) => Ok(v),
        (Value::Int(n), DataType::Float) => Ok(Value::Float(*n as f64)),
        _ if v.data_type() == Some(ty) => Ok(v),
        _ => Err(MqError::TypeMismatch(format!(
            "cannot store {v} in a {ty:?} column"
        ))),
    }
}

/// Sessions opened from one [`Database`] share a global memory broker
/// sized for this many concurrent full-budget queries.
const DEFAULT_SESSION_CONCURRENCY: usize = 4;

/// The user-facing database handle: an [`Engine`] plus convenience
/// methods for DDL, loading, ANALYZE, SQL and EXPLAIN — and the entry
/// points into the concurrent runtime ([`Database::session`],
/// [`Database::run_concurrent`]).
pub struct Database {
    engine: Arc<Engine>,
    /// Global memory broker shared by every session of this database.
    broker: Arc<MemoryBroker>,
    /// Where [`Database::save`] writes; set by [`Database::open`].
    snapshot_path: Option<PathBuf>,
}

impl Database {
    /// Open an in-memory database with the given configuration.
    pub fn new(cfg: EngineConfig) -> Result<Database> {
        Ok(Database::from_engine(Engine::new(cfg)?, None))
    }

    /// Open a database backed by the snapshot file at `path` with the
    /// default configuration: restore it if the file exists, start
    /// empty otherwise. Either way, [`Database::save`] writes back to
    /// `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(EngineConfig::default(), path)
    }

    /// [`Database::open`] with explicit configuration. The config is
    /// not part of the snapshot — buffer pool size, fault injection and
    /// cache policy belong to the process, not the data — so the same
    /// snapshot can be reopened under different knobs.
    pub fn open_with(cfg: EngineConfig, path: impl AsRef<Path>) -> Result<Database> {
        let path = path.as_ref();
        let engine = if path.exists() {
            mq_reopt::persist::restore(cfg, path)?.0
        } else {
            Engine::new(cfg)?
        };
        Ok(Database::from_engine(engine, Some(path.to_path_buf())))
    }

    fn from_engine(engine: Engine, snapshot_path: Option<PathBuf>) -> Database {
        let broker = Arc::new(MemoryBroker::new(
            DEFAULT_SESSION_CONCURRENCY * engine.config().query_memory_bytes,
        ));
        Database {
            engine: Arc::new(engine),
            broker,
            snapshot_path,
        }
    }

    /// The snapshot path [`Database::save`] writes to, if any.
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }

    /// Snapshot the database to the path it was [`Database::open`]ed
    /// from. The write is atomic (staged to a temp file, renamed over
    /// the target), so a crash mid-save leaves the previous snapshot
    /// loadable. Refuses while queries are in flight.
    pub fn save(&self) -> Result<SnapshotReport> {
        match &self.snapshot_path {
            Some(path) => self.save_to(path.clone()),
            None => Err(MqError::InvalidConfig(
                "this database has no snapshot path; use Database::open or save_as".to_string(),
            )),
        }
    }

    /// Snapshot the database to an explicit path (the stored snapshot
    /// path, if any, is unchanged).
    pub fn save_as(&self, path: impl AsRef<Path>) -> Result<SnapshotReport> {
        self.save_to(path.as_ref().to_path_buf())
    }

    fn save_to(&self, path: PathBuf) -> Result<SnapshotReport> {
        if self.broker.in_use() != 0 {
            return Err(MqError::InvalidConfig(format!(
                "cannot snapshot while sessions hold {} bytes of query memory",
                self.broker.in_use()
            )));
        }
        mq_reopt::persist::save(&self.engine, &path)
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A shareable handle to the engine (for [`Runtime`]s and worker
    /// threads).
    pub fn engine_arc(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Mutable engine access (to change configuration between runs).
    /// Errors if the engine is shared — i.e. a [`Session`] or
    /// [`Runtime`] created from this database is still alive.
    /// Reconfigure before opening them.
    pub fn engine_mut(&mut self) -> Result<&mut Engine> {
        Arc::get_mut(&mut self.engine).ok_or_else(|| {
            MqError::InvalidConfig(
                "engine is shared by live sessions; reconfigure before opening them".to_string(),
            )
        })
    }

    /// Open an interactive [`Session`]: per-query memory leases from
    /// the database's global broker, session-level cost attribution,
    /// cancellation and deadlines.
    pub fn session(&self) -> Session {
        Session::new(self.engine_arc(), Arc::clone(&self.broker))
    }

    /// Run a workload of queries concurrently on
    /// [`Workload::workers`] threads over this database's shared
    /// storage and catalog. The run's global memory budget is
    /// [`Workload::global_memory_bytes`], defaulting to
    /// `workers × query_memory_bytes`.
    pub fn run_concurrent(&self, workload: &Workload) -> WorkloadReport {
        let runtime = match workload.global_memory_bytes {
            Some(bytes) => Runtime::new(self.engine_arc(), bytes),
            None => Runtime::with_default_budget(self.engine_arc(), workload.workers),
        };
        runtime.run_workload(workload)
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, columns: Vec<(&str, DataType)>) -> Result<()> {
        self.engine
            .catalog()
            .create_table(self.engine.storage(), name, columns)?;
        Ok(())
    }

    /// Insert one row. Writes bump the table's data version, so any
    /// cache entry or cardinality feedback derived from it is
    /// invalidated here (eagerly reclaiming the space — probe-time
    /// validation would refuse the stale entry regardless).
    pub fn insert(&self, table: &str, row: Row) -> Result<()> {
        self.engine
            .catalog()
            .insert_row(self.engine.storage(), table, row)?;
        self.engine.invalidate_cache_for(table);
        Ok(())
    }

    /// Snapshot of the cross-query cache counters.
    pub fn cache_stats(&self) -> mq_reopt::CacheStats {
        self.engine.cache_stats()
    }

    /// Drop every cache entry and forget all cardinality feedback.
    pub fn clear_cache(&self) {
        self.engine.clear_cache();
    }

    /// Snapshot of the normalized-SQL plan-cache counters.
    pub fn plan_cache_stats(&self) -> mq_reopt::PlanCacheStats {
        self.engine.plan_cache_stats()
    }

    /// Drop every cached plan template (counters survive).
    pub fn clear_plan_cache(&self) {
        self.engine.clear_plan_cache();
    }

    /// Gather statistics for a table (MaxDiff histograms, catalog
    /// defaults from the engine config).
    pub fn analyze(&self, table: &str) -> Result<()> {
        let cfg = self.engine.config();
        self.engine.catalog().analyze(
            self.engine.storage(),
            table,
            mq_stats::HistogramKind::MaxDiff,
            cfg.histogram_buckets,
            cfg.reservoir_size,
            0xA11A,
        )
    }

    /// Build a B+-tree index on a column.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        self.engine
            .catalog()
            .create_index(self.engine.storage(), table, column)
    }

    /// Parse SQL into a logical plan.
    pub fn plan_sql(&self, sql_text: &str) -> Result<LogicalPlan> {
        mq_sql::plan_sql(sql_text, self.engine.catalog())
    }

    /// Start building a SQL query. The builder defaults to
    /// [`ReoptMode::Full`]; chain [`Query::mode`], [`Query::observed`]
    /// and [`Query::partitions`] before [`Query::run`]:
    ///
    /// ```no_run
    /// # use midq::{Database, ReoptMode};
    /// # use midq::common::EngineConfig;
    /// # let db = Database::new(EngineConfig::default()).unwrap();
    /// let obs = midq::obs::Obs::default();
    /// let out = db
    ///     .query("SELECT * FROM t")
    ///     .mode(ReoptMode::PlanOnly)
    ///     .observed(&obs)
    ///     .partitions(4)
    ///     .run()
    ///     .unwrap();
    /// ```
    ///
    /// With [`EngineConfig::plan_cache_enabled`], the normalized query
    /// text probes the plan cache first, so a warm family skips join
    /// enumeration entirely.
    pub fn query<'a>(&'a self, sql_text: &'a str) -> Query<'a> {
        Query {
            db: self,
            target: Target::Sql(sql_text),
            mode: ReoptMode::Full,
            obs: None,
            partitions: None,
        }
    }

    /// Start building a query from an already-planned [`LogicalPlan`].
    /// Plan-built queries skip the plan cache (there is no SQL text to
    /// normalize into a family key).
    pub fn query_plan<'a>(&'a self, plan: &'a LogicalPlan) -> Query<'a> {
        Query {
            db: self,
            target: Target::Plan(plan),
            mode: ReoptMode::Full,
            obs: None,
            partitions: None,
        }
    }

    /// Prepare a SQL statement: the normalizer and the optimizer run
    /// once, here, pinning the statement's template in the plan cache;
    /// each [`Prepared::run`] then splices positional parameters
    /// (textual order) into the template and probes the cache directly,
    /// never re-running the normalizer.
    ///
    /// Only plan-cacheable SELECTs are preparable; parameter values
    /// must stay type-compatible with the exemplar literals in the
    /// template text.
    pub fn prepare(&self, sql_text: &str) -> Result<Prepared> {
        let prepared = PreparedSql::new(sql_text).ok_or_else(|| {
            MqError::Plan(format!(
                "statement is not preparable (only normalizable SELECTs are): {sql_text}"
            ))
        })?;
        // Validate against the catalog now — a prepare-time error beats
        // a bind-time surprise — and pin the template off the job clock.
        self.plan_sql(sql_text)?;
        self.engine.prime_template(sql_text)?;
        Ok(Prepared {
            engine: Arc::clone(&self.engine),
            prepared,
        })
    }

    /// Execute any SQL statement: SELECT runs under `mode`; CREATE
    /// TABLE / CREATE INDEX / INSERT / ANALYZE act on the catalog.
    ///
    /// ```
    /// use midq::{Database, ReoptMode, SqlOutcome};
    /// use midq::common::EngineConfig;
    /// let db = Database::new(EngineConfig::default()).unwrap();
    /// db.execute_sql("CREATE TABLE t (k INT, v FLOAT)", ReoptMode::Off).unwrap();
    /// db.execute_sql("INSERT INTO t VALUES (1, 1.5), (2, 2.5)", ReoptMode::Off).unwrap();
    /// db.execute_sql("ANALYZE t", ReoptMode::Off).unwrap();
    /// match db.execute_sql("SELECT k FROM t WHERE v > 2", ReoptMode::Full).unwrap() {
    ///     SqlOutcome::Query(out) => assert_eq!(out.rows.len(), 1),
    ///     SqlOutcome::Command(_) => unreachable!(),
    /// }
    /// ```
    pub fn execute_sql(&self, sql_text: &str, mode: ReoptMode) -> Result<SqlOutcome> {
        match mq_sql::parse_statement(sql_text)? {
            mq_sql::Statement::Select(q) => {
                let plan = mq_sql::bind(&q, self.engine.catalog())?;
                Ok(SqlOutcome::Query(Box::new(self.engine.run_with(
                    &plan,
                    PlanSource::Sql(sql_text),
                    mode,
                    self.engine.default_env(),
                )?)))
            }
            mq_sql::Statement::CreateTable { name, columns } => {
                let cols: Vec<(&str, DataType)> =
                    columns.iter().map(|(c, t)| (c.as_str(), *t)).collect();
                self.create_table(&name, cols)?;
                Ok(SqlOutcome::Command(format!(
                    "created table {name} ({} columns)",
                    columns.len()
                )))
            }
            mq_sql::Statement::CreateIndex { table, column } => {
                self.create_index(&table, &column)?;
                Ok(SqlOutcome::Command(format!(
                    "created index on {table}.{column}"
                )))
            }
            mq_sql::Statement::Insert { table, rows } => {
                let schema = self.engine.catalog().table(&table)?.schema;
                let mut batch = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != schema.len() {
                        return Err(MqError::SchemaError(format!(
                            "INSERT arity {} vs {} columns of {table}",
                            row.len(),
                            schema.len()
                        )));
                    }
                    let coerced: Vec<Value> = row
                        .into_iter()
                        .enumerate()
                        .map(|(i, v)| coerce(v, schema.field(i).dtype))
                        .collect::<Result<_>>()?;
                    batch.push(Row::new(coerced));
                }
                // One batched append: the data version bumps once for
                // the whole statement, so dependent caches are
                // invalidated once instead of once per row.
                let n = self
                    .engine
                    .catalog()
                    .insert_rows(self.engine.storage(), &table, batch)?;
                self.engine.invalidate_cache_for(&table);
                Ok(SqlOutcome::Command(format!(
                    "inserted {n} rows into {table}"
                )))
            }
            mq_sql::Statement::Analyze { table } => {
                self.analyze(&table)?;
                Ok(SqlOutcome::Command(format!("analyzed {table}")))
            }
        }
    }

    /// EXPLAIN: the annotated physical plan the optimizer would run.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        let optimizer = mq_optimizer::Optimizer::new(self.engine.config().clone());
        let optimized = optimizer.optimize(plan, self.engine.catalog(), self.engine.storage())?;
        Ok(optimized.plan.to_string())
    }

    /// Load the TPC-D workload.
    pub fn load_tpcd(&self, cfg: &TpcdConfig) -> Result<mq_tpcd::TpcdStats> {
        mq_tpcd::load(cfg, self.engine.catalog(), self.engine.storage())
    }
}

/// What a [`Query`] executes: SQL text or a pre-built logical plan.
enum Target<'a> {
    Sql(&'a str),
    Plan(&'a LogicalPlan),
}

/// A query being built: created by [`Database::query`] or
/// [`Database::query_plan`], consumed by [`Query::run`].
///
/// Defaults: [`ReoptMode::Full`], serial execution, no observability
/// handle.
#[must_use = "a Query does nothing until .run()"]
pub struct Query<'a> {
    db: &'a Database,
    target: Target<'a>,
    mode: ReoptMode,
    obs: Option<mq_obs::Obs>,
    partitions: Option<usize>,
}

impl<'a> Query<'a> {
    /// Set the re-optimization mode (default [`ReoptMode::Full`]).
    pub fn mode(mut self, mode: ReoptMode) -> Query<'a> {
        self.mode = mode;
        self
    }

    /// Attach an observability handle: every event of the execution
    /// (collector checkpoints, re-opt verdicts, lease traffic, spills)
    /// goes to its sink and metrics registry, and the outcome carries
    /// per-operator actuals for [`QueryOutcome::explain_analyze`].
    pub fn observed(mut self, obs: &mq_obs::Obs) -> Query<'a> {
        self.obs = Some(obs.clone());
        self
    }

    /// Execute through the intra-query partitioned driver (`mq-par`)
    /// with this many simulated workers: the optimized plan gets
    /// exchange operators, pipeline segments execute per routing
    /// bucket, and the outcome carries a [`mq_reopt::ParReport`].
    /// Results are byte-identical across partition counts, and equal
    /// to serial execution up to floating-point summation order.
    pub fn partitions(mut self, partitions: usize) -> Query<'a> {
        self.partitions = Some(partitions);
        self
    }

    /// Execute the query and return its outcome.
    pub fn run(self) -> Result<QueryOutcome> {
        let engine = &self.db.engine;
        let mut env = engine.default_env();
        if let Some(p) = self.partitions {
            env.par = Some(mq_reopt::ParSpec::new(p));
        }
        env.obs = self.obs;
        match self.target {
            Target::Sql(sql_text) => {
                let plan = self.db.plan_sql(sql_text)?;
                engine.run_with(&plan, PlanSource::Sql(sql_text), self.mode, env)
            }
            Target::Plan(plan) => engine.run_with(plan, PlanSource::Optimize, self.mode, env),
        }
    }
}

/// A prepared statement: the template is normalized and its plan
/// pinned in the plan cache once, at [`Database::prepare`] time;
/// [`Prepared::run`] rebinds positional parameters without re-running
/// the normalizer.
///
/// ```no_run
/// # use midq::Database;
/// # use midq::common::{EngineConfig, Value};
/// # let db = Database::new(EngineConfig::default()).unwrap();
/// let stmt = db.prepare("SELECT v FROM t WHERE k = 10 AND v < 0.5").unwrap();
/// // Parameters are positional in textual order.
/// let out = stmt.run(&[Value::Int(42), Value::Float(0.25)]).unwrap();
/// ```
pub struct Prepared {
    engine: Arc<Engine>,
    prepared: PreparedSql,
}

impl Prepared {
    /// Number of positional parameters (the template's WHERE-clause
    /// literals, counted in textual order).
    pub fn param_count(&self) -> usize {
        self.prepared.param_count()
    }

    /// The template's plan-cache family key.
    pub fn key(&self) -> &str {
        self.prepared.key()
    }

    /// Bind `params` and execute under [`ReoptMode::Full`].
    pub fn run(&self, params: &[Value]) -> Result<QueryOutcome> {
        self.run_mode(params, ReoptMode::Full)
    }

    /// Bind `params` and execute under an explicit mode. Staleness is
    /// still honored: if the template's tables were written or its
    /// feedback drifted since admission, the probe forces one
    /// re-enumeration and re-admits the refreshed plan.
    pub fn run_mode(&self, params: &[Value], mode: ReoptMode) -> Result<QueryOutcome> {
        let bound = self.prepared.bind(params)?;
        let logical = mq_sql::plan_sql(&bound.sql, self.engine.catalog())?;
        let source = PlanSource::Prepared {
            sql: &bound.sql,
            norm: &bound.norm,
        };
        self.engine
            .run_with(&logical, source, mode, self.engine.default_env())
    }
}
