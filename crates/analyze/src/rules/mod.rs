//! The three rule families of the analysis gate.

pub mod blocking;
pub mod common;
pub mod lock_order;
pub mod panic_path;
