//! Seeded synthetic datasets and workloads reproducing the paper's two
//! evaluation settings (§4.2).
//!
//! The original datasets are not redistributable (XKG is a 105M-triple
//! YAGO2s+OpenIE build; the Twitter crawl is 18M tweet–tag triples from
//! April 2017), so this crate generates *statistically faithful*
//! substitutes. Everything the planner and operators observe is reproduced:
//!
//! * **power-law triple scores** (the paper's inlink counts / occurrence
//!   counts / retweet counts),
//! * **relaxation structure with mined weights** — type-hierarchy
//!   neighbourhoods for XKG (≥10 rules per query pattern), tag
//!   co-occurrence with `w = #(T₁∧T₂)/#T₁` for Twitter (≥5 rules per
//!   pattern),
//! * **workload shape** — 65 XKG queries with 2–4 triple patterns and
//!   non-empty results; 50 Twitter queries with 2–3 patterns over frequent
//!   tags.
//!
//! All generators take explicit seeds and are deterministic.

pub mod spec;
pub mod twitter;
pub mod workload;
pub mod xkg;
pub mod zipf;

pub use spec::Dataset;
pub use twitter::{TwitterConfig, TwitterGenerator};
pub use workload::Workload;
pub use xkg::{XkgConfig, XkgGenerator};
pub use zipf::Zipf;
