//! Time-to-verdict benchmark of the lassynth pipeline on the paper's own
//! instances (Fig. 13, 15 and 18). See `README.md` for the workloads,
//! the metrics and the noise record.

#![forbid(unsafe_code)]

pub mod instances;
pub mod report;
pub mod run;
pub mod trace;
