//! The experiment suite and its harness: the experiment registry, the
//! baseline gate, table rendering, world presets and the worker pool.
//!
//! `exp <id>` (`src/bin/exp.rs`) regenerates one experiment from the
//! paper's evaluation (see `DESIGN.md` §6 and `EXPERIMENTS.md` for the
//! index); this library keeps their output format uniform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod pool;
pub mod presets;
pub mod table;

pub use presets::{interconnected_world, pair_world, star_world};
pub use table::Table;
