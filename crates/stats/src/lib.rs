//! # mssp-stats
//!
//! Statistics and report rendering for the MSSP experiment harness:
//! summaries (mean / geometric mean / stddev), histograms, ASCII tables
//! and bar-chart "figures" so every table and figure of the evaluation
//! prints in a uniform layout.
//!
//! ## Quick start
//!
//! ```
//! use mssp_stats::{geomean, Table};
//!
//! let mut t = Table::new(vec!["bench", "speedup"]);
//! t.row(vec!["gap_like".into(), format!("{:.2}", 1.68)]);
//! println!("{}", t.render());
//! assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
mod report;
mod summary;

pub use report::{bar_chart, fmt3, fmt_count, Align, Table};
pub use summary::{geomean, percentile, Histogram, Summary};
