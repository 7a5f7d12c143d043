//! Reproduction harness for *A Closer Look at Lightweight Graph
//! Reordering* (IISWC'19).
//!
//! The caching engine lives in [`lgr_engine::Session`]; each module
//! under [`experiments`] regenerates one table or figure of the paper
//! from a `&Session` and returns a formatted text report. The `repro`
//! binary drives them from the command line, with string-addressable
//! technique/app filters powered by
//! [`lgr_engine::TechniqueSpec`] /
//! [`lgr_engine::AppSpec`]:
//!
//! ```text
//! repro all                        # every experiment at the default scale
//! repro fig6 table1                # a subset
//! repro --quick all                # tiny graphs, CI-friendly
//! repro --scale 16 fig8            # sd = 2^16 vertices
//! repro --techniques dbg,sort all  # only these techniques
//! repro --apps pr,sssp fig6        # only these applications
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod table;

pub use lgr_engine::{
    AppSpec, DatasetSpec, Job, Report, Session, SessionConfig, SpecError, TechniqueSpec,
};
pub use table::TextTable;
