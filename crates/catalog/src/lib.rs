//! # mq-catalog — system catalogs
//!
//! Tables, their schemas, indexes, and — centrally for this paper —
//! their *stored statistics*: row counts, page counts, per-column
//! min/max, distinct counts and histograms, built by [`Catalog::analyze`].
//!
//! The catalog also tracks **update activity** (inserts since the last
//! ANALYZE): the paper's statistics-collectors insertion algorithm
//! raises a statistic's inaccuracy potential one level "if there has
//! been significant update activity since the last time statistics were
//! collected" (§2.5). Experiments create estimation error honestly by
//! loading data after ANALYZE, exactly how production catalogs go stale.

pub mod stats;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mq_common::{DataType, DepStamp, Field, MqError, Result, Row, Schema, TableId, Value};
use mq_stats::{ColumnAccumulator, HistogramKind};
use mq_storage::Storage;

pub use stats::{ColumnStats, TableStats};

/// A registered table.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Catalog id.
    pub id: TableId,
    /// Table name (unique).
    pub name: String,
    /// Schema; fields are qualified with the table name.
    pub schema: Schema,
    /// Heap file holding the rows.
    pub file: mq_common::FileId,
    /// Secondary B+-tree indexes, keyed by bare column name.
    pub indexes: HashMap<String, mq_common::IndexId>,
    /// Stored statistics from the last ANALYZE (if any).
    pub stats: Option<TableStats>,
    /// Rows inserted since the last ANALYZE.
    pub inserts_since_analyze: u64,
    /// Data version: a catalog-global epoch stamped at creation and
    /// bumped on every write. Cross-query caches key their validity on
    /// it — any bump invalidates entries derived from this table.
    pub data_version: u64,
}

impl TableEntry {
    /// Update activity as a fraction of the analyzed row count —
    /// the §2.5 staleness signal.
    pub fn update_activity(&self) -> f64 {
        match &self.stats {
            Some(s) if s.rows > 0 => self.inserts_since_analyze as f64 / s.rows as f64,
            Some(_) => {
                if self.inserts_since_analyze > 0 {
                    1.0
                } else {
                    0.0
                }
            }
            None => 1.0,
        }
    }
}

/// The catalog: a shared registry of tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    tables: HashMap<String, TableEntry>,
    next_id: u32,
    /// Monotone data-version epoch shared by all tables.
    epoch: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Create a table with bare-named fields (they get qualified with
    /// the table name), backed by a fresh heap file.
    pub fn create_table(
        &self,
        storage: &Storage,
        name: &str,
        columns: Vec<(&str, DataType)>,
    ) -> Result<TableId> {
        let mut inner = self.inner.lock();
        if inner.tables.contains_key(name) {
            return Err(MqError::AlreadyExists(format!("table {name}")));
        }
        let fields = columns
            .into_iter()
            .map(|(c, t)| Field::qualified(name, c, t))
            .collect();
        let schema = Schema::new(fields)?;
        let id = TableId(inner.next_id);
        inner.next_id += 1;
        inner.epoch += 1;
        let data_version = inner.epoch;
        let file = storage.create_file();
        inner.tables.insert(
            name.to_string(),
            TableEntry {
                id,
                name: name.to_string(),
                schema,
                file,
                indexes: HashMap::new(),
                stats: None,
                inserts_since_analyze: 0,
                data_version,
            },
        );
        Ok(id)
    }

    /// Register a temp table over an existing file with an existing
    /// schema (used when the re-optimizer materializes an intermediate
    /// result and re-plans the remainder query over it).
    pub fn register_materialized(
        &self,
        name: &str,
        file: mq_common::FileId,
        schema: Schema,
        stats: TableStats,
    ) -> Result<TableId> {
        let mut inner = self.inner.lock();
        if inner.tables.contains_key(name) {
            return Err(MqError::AlreadyExists(format!("table {name}")));
        }
        let id = TableId(inner.next_id);
        inner.next_id += 1;
        inner.epoch += 1;
        let data_version = inner.epoch;
        inner.tables.insert(
            name.to_string(),
            TableEntry {
                id,
                name: name.to_string(),
                schema,
                file,
                indexes: HashMap::new(),
                stats: Some(stats),
                inserts_since_analyze: 0,
                data_version,
            },
        );
        Ok(id)
    }

    /// Remove a table from the catalog (does not drop the file).
    pub fn drop_table(&self, name: &str) -> Result<TableEntry> {
        self.inner
            .lock()
            .tables
            .remove(name)
            .ok_or_else(|| MqError::NotFound(format!("table {name}")))
    }

    /// Copy of a table's entry.
    pub fn table(&self, name: &str) -> Result<TableEntry> {
        self.inner
            .lock()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| MqError::NotFound(format!("table {name}")))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Insert a row, maintaining any indexes and the staleness counter.
    pub fn insert_row(&self, storage: &Storage, table: &str, row: Row) -> Result<()> {
        let (file, schema, indexes) = {
            let inner = self.inner.lock();
            let t = inner
                .tables
                .get(table)
                .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
            (t.file, t.schema.clone(), t.indexes.clone())
        };
        if row.len() != schema.len() {
            return Err(MqError::SchemaError(format!(
                "row arity {} vs schema arity {} for {table}",
                row.len(),
                schema.len()
            )));
        }
        let rid = storage.append_row(file, &row)?;
        for (col, idx) in &indexes {
            let ci = schema.index_of(col)?;
            storage.index_insert(*idx, row.get(ci), rid)?;
        }
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        let version = inner.epoch;
        if let Some(t) = inner.tables.get_mut(table) {
            t.inserts_since_analyze += 1;
            t.data_version = version;
        }
        Ok(())
    }

    /// Insert a batch of rows as one logical write: the shared epoch is
    /// bumped once and the table's data version moves once, so caches
    /// keyed on the version are invalidated once per statement instead
    /// of once per row. Rows are validated against the schema up front;
    /// a mid-batch storage error leaves earlier rows appended (no
    /// statement-level rollback — same contract as repeated
    /// [`Catalog::insert_row`] calls).
    pub fn insert_rows(&self, storage: &Storage, table: &str, rows: Vec<Row>) -> Result<usize> {
        let (file, schema, indexes) = {
            let inner = self.inner.lock();
            let t = inner
                .tables
                .get(table)
                .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
            (t.file, t.schema.clone(), t.indexes.clone())
        };
        for row in &rows {
            if row.len() != schema.len() {
                return Err(MqError::SchemaError(format!(
                    "row arity {} vs schema arity {} for {table}",
                    row.len(),
                    schema.len()
                )));
            }
        }
        let n = rows.len();
        for row in &rows {
            let rid = storage.append_row(file, row)?;
            for (col, idx) in &indexes {
                let ci = schema.index_of(col)?;
                storage.index_insert(*idx, row.get(ci), rid)?;
            }
        }
        if n > 0 {
            let mut inner = self.inner.lock();
            inner.epoch += 1;
            let version = inner.epoch;
            if let Some(t) = inner.tables.get_mut(table) {
                t.inserts_since_analyze += n as u64;
                t.data_version = version;
            }
        }
        Ok(n)
    }

    /// Current data version of a table (None if unknown). Bumped on
    /// every write; cache entries recorded at an older version are
    /// stale.
    pub fn data_version(&self, table: &str) -> Option<u64> {
        self.inner.lock().tables.get(table).map(|t| t.data_version)
    }

    /// Stamp an artifact derived from `tables` with their current data
    /// versions, under one catalog lock. Refused (with the reason) when
    /// a table is query-local (a re-optimizer `tmp_reopt_*` temp or a
    /// `cache_*` table: the artifact would not be a pure function of
    /// base data) or has no data version (unknown table).
    pub fn stamp(
        &self,
        tables: impl IntoIterator<Item = String>,
    ) -> std::result::Result<DepStamp, String> {
        let inner = self.inner.lock();
        tables
            .into_iter()
            .map(|t| {
                if t.starts_with("tmp_reopt_") || t.starts_with("cache_") {
                    return Err(format!(
                        "{t} is query-local, not a pure function of base data"
                    ));
                }
                match inner.tables.get(&t) {
                    Some(e) => Ok((t, e.data_version)),
                    None => Err(format!("{t} has no data version")),
                }
            })
            .collect()
    }

    /// Whether every table of `stamp` is still at its recorded data
    /// version (checked under one catalog lock). A dropped table counts
    /// as changed.
    pub fn is_current(&self, stamp: &DepStamp) -> bool {
        let inner = self.inner.lock();
        stamp
            .iter()
            .all(|(t, v)| inner.tables.get(t).map(|e| e.data_version) == Some(v))
    }

    /// The catalog-global data-version epoch. Snapshots record it so a
    /// restored catalog resumes version numbering where the saved one
    /// stopped — version comparisons against persisted cache metadata
    /// stay meaningful across the restart.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Raise the epoch to at least `epoch` (no-op if already past it).
    /// Restore-time counterpart of [`Catalog::epoch`].
    pub fn raise_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        inner.epoch = inner.epoch.max(epoch);
    }

    /// Re-register a table from a snapshot, preserving its exact id,
    /// data version, statistics and staleness counter. The caller has
    /// already recreated the heap file and indexes the entry points at.
    /// Unlike [`Catalog::create_table`] this does *not* bump the epoch:
    /// restoring is not a write, and the stamped versions must survive
    /// byte-for-byte or every persisted cache dependency would
    /// spuriously read as stale.
    pub fn restore_table(&self, entry: TableEntry) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.tables.contains_key(&entry.name) {
            return Err(MqError::AlreadyExists(format!("table {}", entry.name)));
        }
        inner.next_id = inner.next_id.max(entry.id.0 + 1);
        inner.epoch = inner.epoch.max(entry.data_version);
        inner.tables.insert(entry.name.clone(), entry);
        Ok(())
    }

    /// Build a B+-tree index on `column`, back-filling existing rows.
    pub fn create_index(&self, storage: &Storage, table: &str, column: &str) -> Result<()> {
        let (file, schema, already) = {
            let inner = self.inner.lock();
            let t = inner
                .tables
                .get(table)
                .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
            (t.file, t.schema.clone(), t.indexes.contains_key(column))
        };
        if already {
            return Err(MqError::AlreadyExists(format!("index on {table}.{column}")));
        }
        let ci = schema.index_of(column)?;
        let idx = storage.create_index()?;
        for item in storage.scan_file(file)? {
            let (rid, row) = item?;
            storage.index_insert(idx, row.get(ci), rid)?;
        }
        let mut inner = self.inner.lock();
        if let Some(t) = inner.tables.get_mut(table) {
            t.indexes.insert(column.to_string(), idx);
        }
        Ok(())
    }

    /// Gather statistics for a table: one scan, per-column accumulators,
    /// histograms of `kind` with `buckets` buckets. Resets the update
    /// counter.
    pub fn analyze(
        &self,
        storage: &Storage,
        table: &str,
        kind: HistogramKind,
        buckets: usize,
        reservoir: usize,
        seed: u64,
    ) -> Result<()> {
        let (file, schema) = {
            let inner = self.inner.lock();
            let t = inner
                .tables
                .get(table)
                .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
            (t.file, t.schema.clone())
        };
        let mut accs: Vec<ColumnAccumulator> = (0..schema.len())
            .map(|i| ColumnAccumulator::new(reservoir, seed.wrapping_add(i as u64)))
            .collect();
        let mut rows = 0u64;
        let mut bytes = 0u64;
        for item in storage.scan_file(file)? {
            let (_, row) = item?;
            rows += 1;
            bytes += row.encoded_len() as u64;
            for (i, acc) in accs.iter_mut().enumerate() {
                acc.observe(row.get(i));
            }
        }
        let pages = storage.file_pages(file)? as u64;
        let mut columns = HashMap::new();
        for (i, acc) in accs.iter().enumerate() {
            let observed = acc.finish(kind, buckets);
            columns.insert(
                schema.field(i).name.to_string(),
                ColumnStats {
                    min: observed.min,
                    max: observed.max,
                    distinct: observed.distinct,
                    null_frac: observed.null_frac,
                    histogram: observed.histogram,
                    histogram_kind: Some(kind),
                    clustering: observed.clustering,
                },
            );
        }
        let avg_row_bytes = if rows > 0 {
            bytes as f64 / rows as f64
        } else {
            0.0
        };
        let mut inner = self.inner.lock();
        if let Some(t) = inner.tables.get_mut(table) {
            t.stats = Some(TableStats {
                rows,
                pages,
                avg_row_bytes,
                columns,
            });
            t.inserts_since_analyze = 0;
        }
        Ok(())
    }

    /// Rebuild statistics for a *single column* from live data: one
    /// scan, one accumulator, histogram of `kind`. The incremental
    /// form of [`Catalog::analyze`] the adaptive-refresh machinery
    /// uses when feedback keeps flagging one column's estimates —
    /// cheaper than a full re-analyze and deliberately *not* resetting
    /// the update-activity counter, since every other column still
    /// carries its old statistics. Requires the table to have been
    /// analyzed before (there must be a stats block to patch).
    #[allow(clippy::too_many_arguments)]
    pub fn analyze_column(
        &self,
        storage: &Storage,
        table: &str,
        column: &str,
        kind: HistogramKind,
        buckets: usize,
        reservoir: usize,
        seed: u64,
    ) -> Result<()> {
        let (file, ci) = {
            let inner = self.inner.lock();
            let t = inner
                .tables
                .get(table)
                .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
            if t.stats.is_none() {
                return Err(MqError::NotFound(format!("stats for {table}")));
            }
            let ci = t
                .schema
                .fields()
                .iter()
                .position(|f| &*f.name == column)
                .ok_or_else(|| MqError::NotFound(format!("column {table}.{column}")))?;
            (t.file, ci)
        };
        let mut acc = ColumnAccumulator::new(reservoir, seed);
        for item in storage.scan_file(file)? {
            let (_, row) = item?;
            acc.observe(row.get(ci));
        }
        let observed = acc.finish(kind, buckets);
        let mut inner = self.inner.lock();
        if let Some(t) = inner.tables.get_mut(table) {
            if let Some(stats) = &mut t.stats {
                stats.columns.insert(
                    column.to_string(),
                    ColumnStats {
                        min: observed.min,
                        max: observed.max,
                        distinct: observed.distinct,
                        null_frac: observed.null_frac,
                        histogram: observed.histogram,
                        histogram_kind: Some(kind),
                        clustering: observed.clustering,
                    },
                );
            }
        }
        Ok(())
    }

    /// Discard a table's statistics (simulate a never-analyzed table).
    pub fn clear_stats(&self, table: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = inner
            .tables
            .get_mut(table)
            .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
        t.stats = None;
        Ok(())
    }

    /// Drop the histogram (keeping scalar stats) for one column — used
    /// to give a column "no histogram" (high inaccuracy potential).
    pub fn drop_histogram(&self, table: &str, column: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = inner
            .tables
            .get_mut(table)
            .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
        if let Some(stats) = &mut t.stats {
            if let Some(c) = stats.columns.get_mut(column) {
                c.histogram = None;
                c.histogram_kind = None;
                return Ok(());
            }
        }
        Err(MqError::NotFound(format!("stats for {table}.{column}")))
    }

    /// Fold runtime observations back into a table's stored statistics
    /// (§2.2: collected statistics "can also be used to update the
    /// statistics stored in the database catalogs"). `columns` is keyed
    /// by bare column name; only the observed columns are touched, and
    /// an observed column's histogram replaces the stored one only when
    /// the observation actually built one. The update-activity counter
    /// is deliberately *not* reset: columns nobody observed still carry
    /// pre-staleness statistics, so the SCIA must keep treating the
    /// table as stale.
    pub fn apply_observed(
        &self,
        table: &str,
        rows: u64,
        pages: u64,
        avg_row_bytes: f64,
        columns: &HashMap<String, mq_stats::ObservedColumn>,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = inner
            .tables
            .get_mut(table)
            .ok_or_else(|| MqError::NotFound(format!("table {table}")))?;
        let stats = t.stats.get_or_insert_with(TableStats::default);
        stats.rows = rows;
        stats.pages = pages;
        if avg_row_bytes > 0.0 {
            stats.avg_row_bytes = avg_row_bytes;
        }
        for (name, obs) in columns {
            let entry = stats.columns.entry(name.clone()).or_default();
            entry.min = obs.min.clone();
            entry.max = obs.max.clone();
            entry.distinct = obs.distinct;
            entry.null_frac = obs.null_frac;
            entry.clustering = obs.clustering;
            if let Some(h) = &obs.histogram {
                entry.histogram = Some(h.clone());
                entry.histogram_kind = Some(HistogramKind::MaxDiff);
            }
        }
        Ok(())
    }

    /// Fetch the min/max of a column if analyzed.
    pub fn column_bounds(&self, table: &str, column: &str) -> Option<(Value, Value)> {
        let inner = self.inner.lock();
        let t = inner.tables.get(table)?;
        let s = t.stats.as_ref()?;
        let c = s.columns.get(column)?;
        Some((c.min.clone()?, c.max.clone()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{EngineConfig, SimClock};

    fn setup() -> (Catalog, Storage) {
        let cfg = EngineConfig::default();
        let storage = Storage::new(&cfg, SimClock::new());
        (Catalog::new(), storage)
    }

    fn load_numbers(cat: &Catalog, st: &Storage, n: i64) {
        cat.create_table(st, "nums", vec![("k", DataType::Int), ("v", DataType::Int)])
            .unwrap();
        for i in 0..n {
            cat.insert_row(
                st,
                "nums",
                Row::new(vec![Value::Int(i), Value::Int(i % 10)]),
            )
            .unwrap();
        }
    }

    #[test]
    fn create_and_lookup() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 10);
        let t = cat.table("nums").unwrap();
        assert_eq!(t.schema.len(), 2);
        assert_eq!(t.schema.index_of("nums.k").unwrap(), 0);
        assert!(cat.table("missing").is_err());
        assert_eq!(cat.table_names(), vec!["nums"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 1);
        assert!(cat
            .create_table(&st, "nums", vec![("x", DataType::Int)])
            .is_err());
    }

    #[test]
    fn analyze_builds_stats() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 1000);
        cat.analyze(&st, "nums", HistogramKind::MaxDiff, 16, 512, 1)
            .unwrap();
        let t = cat.table("nums").unwrap();
        let s = t.stats.unwrap();
        assert_eq!(s.rows, 1000);
        assert!(s.pages > 0);
        let k = &s.columns["k"];
        assert_eq!(k.min, Some(Value::Int(0)));
        assert_eq!(k.max, Some(Value::Int(999)));
        assert!((k.distinct - 1000.0).abs() / 1000.0 < 0.4);
        let v = &s.columns["v"];
        assert!(v.distinct <= 30.0, "v distinct {}", v.distinct);
        assert!(v.histogram.is_some());
    }

    #[test]
    fn update_activity_tracks_staleness() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 100);
        cat.analyze(&st, "nums", HistogramKind::MaxDiff, 8, 128, 1)
            .unwrap();
        assert_eq!(cat.table("nums").unwrap().update_activity(), 0.0);
        for i in 0..50 {
            cat.insert_row(
                &st,
                "nums",
                Row::new(vec![Value::Int(1000 + i), Value::Int(0)]),
            )
            .unwrap();
        }
        let act = cat.table("nums").unwrap().update_activity();
        assert!((act - 0.5).abs() < 1e-9, "activity {act}");
        // Unanalyzed tables are maximally stale.
        cat.clear_stats("nums").unwrap();
        assert_eq!(cat.table("nums").unwrap().update_activity(), 1.0);
    }

    #[test]
    fn index_maintained_on_insert() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 100);
        cat.create_index(&st, "nums", "v").unwrap();
        // New inserts must land in the index too.
        cat.insert_row(&st, "nums", Row::new(vec![Value::Int(9999), Value::Int(7)]))
            .unwrap();
        let t = cat.table("nums").unwrap();
        let idx = t.indexes["v"];
        let hits = st.index_lookup(idx, &Value::Int(7)).unwrap();
        assert_eq!(hits.len(), 11); // 10 from load + 1 new
        assert!(cat.create_index(&st, "nums", "v").is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 1);
        let err = cat
            .insert_row(&st, "nums", Row::new(vec![Value::Int(1)]))
            .unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn drop_histogram_keeps_scalars() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 100);
        cat.analyze(&st, "nums", HistogramKind::EquiWidth, 8, 128, 1)
            .unwrap();
        cat.drop_histogram("nums", "k").unwrap();
        let t = cat.table("nums").unwrap();
        let k = &t.stats.unwrap().columns["k"];
        assert!(k.histogram.is_none());
        assert!(k.min.is_some());
    }

    #[test]
    fn column_bounds() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 50);
        assert!(cat.column_bounds("nums", "k").is_none());
        cat.analyze(&st, "nums", HistogramKind::MaxDiff, 8, 64, 1)
            .unwrap();
        let (lo, hi) = cat.column_bounds("nums", "k").unwrap();
        assert_eq!(lo, Value::Int(0));
        assert_eq!(hi, Value::Int(49));
    }

    #[test]
    fn register_materialized_keeps_schema_and_stats() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 10);
        let base = cat.table("nums").unwrap();
        // A temp table reusing the base's file with pre-computed stats,
        // as the re-optimizer does when it materializes a cut.
        let stats = TableStats {
            rows: 10,
            pages: 1,
            avg_row_bytes: 16.0,
            columns: HashMap::new(),
        };
        cat.register_materialized("__mq_tmp_1", base.file, base.schema.clone(), stats)
            .unwrap();
        let tmp = cat.table("__mq_tmp_1").unwrap();
        assert_eq!(tmp.file, base.file);
        // Qualified names are preserved, not re-qualified with the temp name.
        assert_eq!(tmp.schema.index_of("nums.k").unwrap(), 0);
        assert_eq!(tmp.stats.as_ref().unwrap().rows, 10);
        assert_eq!(
            tmp.update_activity(),
            0.0,
            "fresh exact stats are not stale"
        );
        // Names collide like regular tables.
        let err = cat
            .register_materialized("__mq_tmp_1", base.file, base.schema, TableStats::default())
            .unwrap_err();
        assert_eq!(err.kind(), "already_exists");
    }

    #[test]
    fn drop_table_removes_entry_but_not_file() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 5);
        let entry = cat.drop_table("nums").unwrap();
        assert!(cat.table("nums").is_err());
        assert!(cat.table_names().is_empty());
        // The heap file is still readable; dropping is a catalog-only op.
        let rows: Vec<_> = st.scan_file(entry.file).unwrap().collect();
        assert_eq!(rows.len(), 5);
        assert!(cat.drop_table("nums").is_err(), "second drop is NotFound");
    }

    #[test]
    fn analyze_resets_staleness_counter() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 100);
        assert_eq!(cat.table("nums").unwrap().update_activity(), 1.0);
        cat.analyze(&st, "nums", HistogramKind::EquiDepth, 8, 128, 1)
            .unwrap();
        for i in 0..25 {
            cat.insert_row(&st, "nums", Row::new(vec![Value::Int(i), Value::Int(0)]))
                .unwrap();
        }
        assert!(cat.table("nums").unwrap().update_activity() > 0.2);
        cat.analyze(&st, "nums", HistogramKind::EquiDepth, 8, 128, 2)
            .unwrap();
        let t = cat.table("nums").unwrap();
        assert_eq!(t.update_activity(), 0.0);
        assert_eq!(t.stats.unwrap().rows, 125, "re-ANALYZE sees the new rows");
    }

    #[test]
    fn analyze_empty_table() {
        let (cat, st) = setup();
        cat.create_table(&st, "empty", vec![("a", DataType::Int)])
            .unwrap();
        cat.analyze(&st, "empty", HistogramKind::MaxDiff, 8, 64, 1)
            .unwrap();
        let s = cat.table("empty").unwrap().stats.unwrap();
        assert_eq!(s.rows, 0);
        assert_eq!(s.avg_row_bytes, 0.0);
        assert!(s.columns["a"].min.is_none());
    }

    #[test]
    fn analyze_records_histogram_kind_and_clustering() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 200); // k inserted in ascending order
        cat.analyze(&st, "nums", HistogramKind::EndBiased, 8, 256, 1)
            .unwrap();
        let s = cat.table("nums").unwrap().stats.unwrap();
        let k = &s.columns["k"];
        assert_eq!(k.histogram_kind, Some(HistogramKind::EndBiased));
        assert!(
            k.clustering > 0.95,
            "ascending inserts are near-perfectly clustered: {}",
            k.clustering
        );
        // v cycles 0..9 repeatedly — 90% of consecutive pairs are
        // nondecreasing, so clustering ≈ |2·0.9−1| = 0.8: still less
        // clustered than the perfectly ascending key.
        assert!(s.columns["v"].clustering < k.clustering);
        assert!((s.columns["v"].clustering - 0.8).abs() < 0.1);
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 40);
        cat.create_index(&st, "nums", "k").unwrap();
        let idx = cat.table("nums").unwrap().indexes["k"];
        for probe in [0i64, 17, 39] {
            let hits = st.index_lookup(idx, &Value::Int(probe)).unwrap();
            assert_eq!(hits.len(), 1, "key {probe}");
        }
        assert!(st.index_lookup(idx, &Value::Int(40)).unwrap().is_empty());
        assert!(cat.create_index(&st, "nums", "nope").is_err());
        assert!(cat.create_index(&st, "missing", "k").is_err());
    }

    #[test]
    fn apply_observed_updates_only_observed_columns() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 100);
        cat.analyze(&st, "nums", HistogramKind::MaxDiff, 8, 128, 1)
            .unwrap();
        let before = cat.table("nums").unwrap().stats.unwrap();
        let v_before = before.columns["v"].clone();

        // Observation: table grew to 500 rows, k now spans 0..499.
        let mut columns = HashMap::new();
        columns.insert(
            "k".to_string(),
            mq_stats::ObservedColumn {
                rows: 500,
                null_frac: 0.0,
                min: Some(Value::Int(0)),
                max: Some(Value::Int(499)),
                distinct: 500.0,
                histogram: None,
                clustering: 1.0,
            },
        );
        cat.apply_observed("nums", 500, 9, 16.0, &columns).unwrap();

        let t = cat.table("nums").unwrap();
        let after = t.stats.unwrap();
        assert_eq!(after.rows, 500);
        assert_eq!(after.pages, 9);
        let k = &after.columns["k"];
        assert_eq!(k.max, Some(Value::Int(499)));
        // No histogram in the observation → the stored one survives.
        assert!(k.histogram.is_some());
        assert_eq!(k.histogram_kind, Some(HistogramKind::MaxDiff));
        // Unobserved columns untouched.
        assert_eq!(after.columns["v"].distinct, v_before.distinct);
        // Staleness counter untouched by feedback.
        assert_eq!(t.inserts_since_analyze, 0);
        assert!(cat.apply_observed("missing", 1, 1, 1.0, &columns).is_err());
    }

    #[test]
    fn apply_observed_creates_stats_for_unanalyzed_table() {
        let (cat, st) = setup();
        cat.create_table(&st, "fresh", vec![("a", DataType::Int)])
            .unwrap();
        cat.apply_observed("fresh", 42, 1, 8.0, &HashMap::new())
            .unwrap();
        let s = cat.table("fresh").unwrap().stats.unwrap();
        assert_eq!(s.rows, 42);
        assert_eq!(s.avg_row_bytes, 8.0);
    }

    #[test]
    fn data_version_bumps_on_writes() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 1);
        let v0 = cat.data_version("nums").unwrap();
        cat.insert_row(&st, "nums", Row::new(vec![Value::Int(9), Value::Int(9)]))
            .unwrap();
        let v1 = cat.data_version("nums").unwrap();
        assert!(v1 > v0, "insert must bump the data version");
        // ANALYZE reads only: no bump.
        cat.analyze(&st, "nums", HistogramKind::MaxDiff, 8, 64, 1)
            .unwrap();
        assert_eq!(cat.data_version("nums").unwrap(), v1);
        assert!(cat.data_version("missing").is_none());
    }

    #[test]
    fn stamps_refuse_query_local_tables_and_go_stale_on_writes() {
        let (cat, st) = setup();
        load_numbers(&cat, &st, 1);
        let stamp = cat.stamp(["nums".to_string()]).unwrap();
        assert!(cat.is_current(&stamp));
        cat.insert_row(&st, "nums", Row::new(vec![Value::Int(9), Value::Int(9)]))
            .unwrap();
        assert!(!cat.is_current(&stamp));
        assert!(cat.is_current(&cat.stamp(["nums".to_string()]).unwrap()));
        for bad in ["tmp_reopt_q1_x", "cache_q1_00", "missing"] {
            let err = cat
                .stamp(["nums".to_string(), bad.to_string()])
                .unwrap_err();
            assert!(err.starts_with(bad), "{err}");
        }
    }

    #[test]
    fn clone_shares_state() {
        let (cat, st) = setup();
        let cat2 = cat.clone();
        load_numbers(&cat, &st, 3);
        // The clone observes tables created through the original handle.
        assert_eq!(cat2.table("nums").unwrap().schema.len(), 2);
        cat2.drop_table("nums").unwrap();
        assert!(cat.table("nums").is_err());
    }
}
