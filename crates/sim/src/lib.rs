//! # mssp-sim
//!
//! Microarchitecture substrates for the MSSP timing model: set-associative
//! [`Cache`]s, a gshare branch predictor ([`Gshare`]) and an in-order core
//! latency pipeline ([`CorePipe`]).
//!
//! These are latency models — they track hit/miss and predict/mispredict
//! behaviour, not data — and are composed by `mssp-timing` into a full CMP
//! cost model (one [`CorePipe`] per master/slave core, a shared L2) and a
//! baseline uniprocessor.
//!
//! ## Quick start
//!
//! ```
//! use mssp_sim::{Cache, CacheConfig};
//!
//! let mut l2 = Cache::new(CacheConfig::l2_default());
//! assert!(!l2.access(0x4000));
//! assert!(l2.access(0x4000));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod branch;
mod cache;
mod corepipe;

pub use branch::{BranchStats, Btb, Gshare};
pub use cache::{Cache, CacheConfig, CacheHit, CacheStats};
pub use corepipe::{CorePipe, CoreStats};
