//! Save-point crash campaign: kill the snapshot writer at every save
//! point and prove a crash mid-save can never cost more than the work
//! since the last successful save.
//!
//! Each seed grows the database (a fresh table, new `orders` rows, a
//! feedback correction), then:
//!
//! 1. **Count** — one fault-free save under a counting injector
//!    enumerates the save points: one per snapshot section plus the
//!    final publish (temp→rename) boundary.
//! 2. **Kill** — for every save point, rearm the previous good snapshot
//!    bytes and save with [`FaultKind::Crash`] injected at that point.
//!    The save must die with [`MqError::Crash`] and the published
//!    snapshot bytes must be untouched.
//! 3. **Survive** — the survivor still opens, audits clean, and its
//!    restored plan-cache template answers with zero optimizer work.
//! 4. **Land** — a fault-free save then publishes the growth: reopening
//!    sees the seed's table, rows, and feedback correction.
//!
//! [`FaultKind::Crash`]: midq::common::FaultKind::Crash
//! [`MqError::Crash`]: midq::MqError::Crash

use midq::common::{EngineConfig, FaultInjector, FaultKind, FaultSite, FaultSpec};
use midq::tpcd::TpcdConfig;
use midq::{Database, MqError, ReoptMode};

/// Cap on save points killed per seed (sampled evenly past the cap —
/// the point count grows with the table count, so late seeds have more
/// sections than early ones).
const MAX_KILLS_PER_SEED: u64 = 10;

/// One SQL family whose template the campaign keeps warm across every
/// crash/reopen cycle.
fn family(qty: i64, price: i64) -> String {
    format!(
        "SELECT o_orderstatus, count(*) AS n, max(o_totalprice) AS top \
         FROM orders, lineitem \
         WHERE o_orderkey = l_orderkey AND l_quantity < {qty} \
         AND o_totalprice > {price} \
         GROUP BY o_orderstatus ORDER BY o_orderstatus"
    )
}

/// Aggregate result of a save-crash campaign.
#[derive(Debug, Default)]
pub struct SaveCrashReport {
    /// Seeds exercised (growth + kill-sweep cycles).
    pub seeds: usize,
    /// Save points killed across all seeds.
    pub kill_points: usize,
    /// Injected kills that actually crashed the save.
    pub crashes: usize,
    /// Survivor snapshots that reopened and audited clean after a kill.
    pub survivor_reopens: usize,
    /// Invariant violations (empty = the campaign passed).
    pub violations: Vec<String>,
}

impl SaveCrashReport {
    /// Did the campaign uphold every invariant — and actually crash a
    /// save at least once?
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.crashes > 0
    }

    /// One-paragraph summary for logs and CI output.
    pub fn summary(&self) -> String {
        format!(
            "save-crash campaign: {} seeds, {} kill points — {} crashes, \
             {} survivor reopens — {} violation(s)",
            self.seeds,
            self.kill_points,
            self.crashes,
            self.survivor_reopens,
            self.violations.len()
        )
    }
}

/// Run the save-point crash campaign over `seeds` growth cycles.
/// `verbose` prints one line per seed.
pub fn run_save_crash_campaign(seeds: u64, verbose: bool) -> SaveCrashReport {
    let dir = std::env::temp_dir().join("midq_save_crash");
    std::fs::create_dir_all(&dir).expect("campaign dir");
    let path = dir.join(format!("campaign_{}.mqsnap", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cfg = EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        plan_cache_enabled: true,
        ..EngineConfig::default()
    };
    let db = Database::open_with(cfg.clone(), &path).expect("open");
    db.load_tpcd(&TpcdConfig {
        scale: 0.002,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .expect("load");
    // Warm the template so every survivor snapshot carries it.
    db.query(&family(25, 1000))
        .mode(ReoptMode::Off)
        .run()
        .expect("warm pass");

    let mut report = SaveCrashReport::default();
    let violate = |violations: &mut Vec<String>, msg: String| {
        if violations.len() < 32 {
            violations.push(msg);
        }
    };

    for seed in 1..=seeds {
        report.seeds += 1;
        db.save().expect("good save");
        let good = std::fs::read(&path).expect("good bytes");

        // Grow the database so the next save writes different bytes:
        // a fresh table with a seed-derived row count, new dependency
        // rows in `orders`, and a feedback correction pinned to the
        // current `orders` data version.
        let rows = (seed % 5) + 2;
        let values: Vec<String> = (0..rows)
            .map(|i| format!("({}, {}.5)", i, seed * 100 + i))
            .collect();
        db.execute_sql(
            &format!("CREATE TABLE grow_{seed} (k INT, v FLOAT)"),
            ReoptMode::Off,
        )
        .expect("grow table");
        db.execute_sql(
            &format!("INSERT INTO grow_{seed} VALUES {}", values.join(", ")),
            ReoptMode::Off,
        )
        .expect("grow rows");
        db.execute_sql(
            &format!(
                "INSERT INTO orders VALUES ({}, 1, 'F', 9.5, DATE '1995-01-01', 0)",
                9_000_000 + seed
            ),
            ReoptMode::Off,
        )
        .expect("orders row");
        let fp = 0xBEEF_0000 + seed;
        let dep = db
            .engine()
            .catalog()
            .data_version("orders")
            .expect("orders version");
        db.engine().feedback().record(
            fp,
            seed as f64 * 10.0,
            [("orders".to_string(), dep)].into_iter().collect(),
        );

        // Counting run: how many save points does this snapshot pass
        // through? Then rearm the previous good bytes for the kills.
        let counter = FaultInjector::new(vec![], None);
        {
            let _scope = counter.enter_scope();
            db.save().expect("counting save");
        }
        let points = counter.ops_at(FaultSite::SegmentBoundary);
        if points < 3 {
            violate(
                &mut report.violations,
                format!("seed {seed}: only {points} save points enumerated"),
            );
            continue;
        }
        std::fs::write(&path, &good).expect("rearm good bytes");

        let step = points.div_ceil(MAX_KILLS_PER_SEED).max(1);
        let mut kills: Vec<u64> = (1..=points).step_by(step as usize).collect();
        if kills.last() != Some(&points) {
            kills.push(points);
        }
        if verbose {
            println!(
                "seed {seed}: grew {rows} rows, {points} save points, killing {:?}",
                kills
            );
        }

        for at in kills {
            report.kill_points += 1;
            let inj = FaultInjector::new(
                vec![FaultSpec {
                    site: FaultSite::SegmentBoundary,
                    kind: FaultKind::Crash,
                    at,
                }],
                None,
            );
            let result = {
                let _scope = inj.enter_scope();
                db.save()
            };
            match result {
                Err(MqError::Crash(_)) => report.crashes += 1,
                Ok(_) => {
                    violate(
                        &mut report.violations,
                        format!("seed {seed} kill {at}: never fired"),
                    );
                    continue;
                }
                Err(e) => {
                    violate(
                        &mut report.violations,
                        format!("seed {seed} kill {at}: died dirty: {e}"),
                    );
                    continue;
                }
            }
            let published = std::fs::read(&path).expect("published bytes");
            if published != good {
                violate(
                    &mut report.violations,
                    format!("seed {seed} kill {at}: published snapshot damaged"),
                );
                continue;
            }
            // The survivor opens, audits clean, and its template is
            // warm: the restored family answers with zero opt work.
            match Database::open_with(cfg.clone(), &path) {
                Ok(back) => {
                    let audit = back.engine().audit();
                    if !audit.is_clean() {
                        violate(
                            &mut report.violations,
                            format!("seed {seed} kill {at}: {audit:?}"),
                        );
                        continue;
                    }
                    match back.query(&family(30, 2000)).mode(ReoptMode::Off).run() {
                        Ok(out) if out.cost.opt_work == 0 => report.survivor_reopens += 1,
                        Ok(out) => violate(
                            &mut report.violations,
                            format!(
                                "seed {seed} kill {at}: survivor template cold \
                                 (opt_work {})",
                                out.cost.opt_work
                            ),
                        ),
                        Err(e) => violate(
                            &mut report.violations,
                            format!("seed {seed} kill {at}: survivor query failed: {e}"),
                        ),
                    }
                }
                Err(e) => violate(
                    &mut report.violations,
                    format!("seed {seed} kill {at}: survivor failed to open: {e}"),
                ),
            }
        }

        // A fault-free save lands the growth: the reopened database
        // sees the seed's table, rows, and feedback correction.
        db.save().expect("landing save");
        match Database::open_with(cfg.clone(), &path) {
            Ok(landed) => {
                let count = landed
                    .query(&format!("SELECT count(*) AS n FROM grow_{seed}"))
                    .mode(ReoptMode::Off)
                    .run()
                    .map(|o| o.rows[0].get(0).to_string());
                if count.as_deref() != Ok(&rows.to_string()) {
                    violate(
                        &mut report.violations,
                        format!("seed {seed}: growth lost after landing save ({count:?})"),
                    );
                }
                let entry = landed.engine().feedback().get(fp);
                if entry.map(|e| e.deps.iter().eq([("orders", dep)])) != Some(true) {
                    violate(
                        &mut report.violations,
                        format!("seed {seed}: feedback correction lost after landing save"),
                    );
                }
            }
            Err(e) => violate(
                &mut report.violations,
                format!("seed {seed}: landing snapshot failed to open: {e}"),
            ),
        }
    }

    let _ = std::fs::remove_file(&path);
    report
}
