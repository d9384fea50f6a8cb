//! # perfbench
//!
//! The repository's serving benchmark: an in-process
//! [`einet_server::ReactorServer`] over a [`einet_server::ModelRegistry`]
//! of trained zoo models planned by the paper's planner
//! ([`einet_edge::EinetSource`]), driven over loopback TCP by a seeded
//! load generator in the same process. See `README.md` for the workloads,
//! the metrics and how each layer metric relates to the end-to-end ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod deploy;
pub mod host;
pub mod layers;
pub mod load;
pub mod phase;
pub mod spans;
pub mod stats;
pub mod stream;
pub mod timing;
