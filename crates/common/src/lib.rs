//! # mq-common — shared substrate types for the midq engine
//!
//! This crate holds the vocabulary types every other crate in the
//! workspace speaks: [`Value`]s and [`DataType`]s, [`Schema`]s and
//! [`Row`]s, the engine-wide [`error::MqError`] type, the
//! [`config::EngineConfig`] knobs (including the paper's `μ`, `θ1` and
//! `θ2` parameters), and the deterministic [`clock::SimClock`] that
//! converts counted page I/Os and CPU operations into reproducible
//! simulated execution times.
//!
//! Everything downstream — storage, statistics, optimizer, executor and
//! the dynamic re-optimization controller — is written against these
//! types, so they are deliberately small, allocation-conscious and
//! heavily tested.

pub mod cancel;
pub mod clock;
pub mod config;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod row;
pub mod schema;
pub mod stamp;
pub mod value;

pub use cancel::CancelToken;
pub use clock::{ClockScope, CostSnapshot, SimClock};
pub use config::EngineConfig;
pub use error::{MqError, Result};
pub use fault::{FaultInjector, FaultKind, FaultProfile, FaultScope, FaultSite, FaultSpec};
pub use hash::{fnv1a, Fnv1a};
pub use ids::{FileId, IndexId, PageId, Rid, TableId};
pub use rng::DetRng;
pub use row::Row;
pub use schema::{Field, Schema};
pub use stamp::DepStamp;
pub use value::{DataType, Value};
