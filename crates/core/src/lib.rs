//! # mq-reopt — Dynamic Mid-Query Re-Optimization
//!
//! The primary contribution of Kabra & DeWitt (SIGMOD 1998),
//! implemented end-to-end over the mq-* substrate crates:
//!
//! * [`scia`] — the **statistics-collectors insertion algorithm**
//!   (§2.5): assigns *inaccuracy potentials* (low/medium/high) to the
//!   optimizer's estimates using the paper's rule set, ranks candidate
//!   runtime statistics by effectiveness, and inserts collector
//!   operators whose total estimated overhead stays below the fraction
//!   `μ` of the optimizer's estimated query time;
//! * [`improve`] — turns runtime observations into **improved
//!   estimates** for the remainder of the plan (§2.2);
//! * [`remainder`] — reconstructs the **remainder query** of a
//!   partially-executed physical plan, with the finished part replaced
//!   by a scan of a (to-be-)materialized temp table (§2.4, Figure 6);
//! * [`controller`] — the runtime decision maker (the paper's modified
//!   scheduler/dispatcher, §3.1): on each completed blocking phase it
//!   re-allocates memory for not-yet-started operators (§2.3) and
//!   applies the Equation 1 / Equation 2 heuristics (with a calibrated
//!   `T_opt`) to decide whether to re-optimize and switch plans;
//! * [`engine`] — the top-level [`engine::Engine`]: optimize → insert
//!   collectors → allocate memory → execute with the controller
//!   attached, looping through plan switches until the query finishes.
//!
//! Execution modes ([`ReoptMode`]) reproduce the paper's Figure 11
//! ablation: `Off`, `MemoryOnly`, `PlanOnly`, `Full`.

pub mod controller;
pub mod engine;
pub mod explain;
pub mod improve;
pub mod manifest;
pub mod persist;
pub mod remainder;
pub mod scia;

#[cfg(test)]
mod engine_tests;

pub use controller::ReoptController;
pub use engine::{AuditReport, Engine, JobEnv, PlanSource, QueryOutcome, RecoveryReport};
pub use explain::{explain_analyze, explain_plan};
pub use manifest::{CheckpointRecord, ManifestStore, QueryManifest};
pub use mq_cache::{CacheEntry, CacheStats, FeedbackStore, SubPlanCache};
pub use mq_par::{ExchangeReport, ParReport, ParSpec, SkewReport};
pub use mq_plancache::{normalize, NormalizedQuery, PlanCache, PlanCacheStats};
pub use persist::SnapshotReport;
pub use scia::{insert_collectors, InaccuracyLevel, SciaReport};

/// Which parts of Dynamic Re-Optimization are active (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReoptMode {
    /// Plain execution: no collectors, no monitoring.
    Off,
    /// Collect statistics; use them only for memory re-allocation.
    MemoryOnly,
    /// Collect statistics; use them only for plan modification.
    PlanOnly,
    /// The full algorithm.
    Full,
}

impl ReoptMode {
    /// Whether statistics collectors are inserted at all.
    pub fn collects(&self) -> bool {
        !matches!(self, ReoptMode::Off)
    }

    /// Whether memory re-allocation is enabled.
    pub fn reallocates_memory(&self) -> bool {
        matches!(self, ReoptMode::MemoryOnly | ReoptMode::Full)
    }

    /// Whether plan modification is enabled.
    pub fn modifies_plans(&self) -> bool {
        matches!(self, ReoptMode::PlanOnly | ReoptMode::Full)
    }
}

impl std::fmt::Display for ReoptMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReoptMode::Off => "off",
            ReoptMode::MemoryOnly => "memory-only",
            ReoptMode::PlanOnly => "plan-only",
            ReoptMode::Full => "full",
        })
    }
}
