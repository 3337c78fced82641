//! Dataset substrate for the FRAPP reproduction.
//!
//! The paper evaluates on two real datasets that are not redistributable
//! here: the UCI CENSUS (Adult) extract of Table 1 and the US NHIS
//! HEALTH extract of Table 2. This crate substitutes *synthetic*
//! datasets over the **exact same schemas**, generated from latent-class
//! [`mixture::MixtureModel`]s calibrated so that mining at the paper's
//! `sup_min = 2%` produces a frequent-itemset length profile close to
//! the paper's Table 3. The FRAPP pipeline only ever sees the
//! categorical distribution, so this preserves every behaviour the
//! paper measures (see DESIGN.md §4 for the substitution argument).
//!
//! * [`mixture`] — latent-class generative model with closed-form
//!   itemset supports (used both for sampling and for calibration),
//! * [`census`] — the CENSUS-like dataset (6 attributes, 2000-cell
//!   domain, 48,842 records),
//! * [`health`] — the HEALTH-like dataset (7 attributes, 7500-cell
//!   domain, 100,000 records),
//! * [`synthetic`] — a uniform generator for tests and
//!   micro-benchmarks.

#![warn(missing_docs)]

pub mod census;
pub mod health;
pub mod mixture;
pub mod synthetic;

pub use census::census_like;
pub use health::health_like;
pub use mixture::MixtureModel;
