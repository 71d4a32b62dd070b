//! Experiment harness for the stack-caching reproduction.
//!
//! One module per table/figure of the paper's evaluation (see `DESIGN.md`
//! for the experiment index). The `figures` binary prints every table;
//! the `harness = false` benches in `benches/` provide the wall-clock
//! measurements via the self-contained [`timing`] loop.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod fig07;
pub mod fig18;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig24;
pub mod fig26;
pub mod freq;
pub mod fusion;
pub mod jitbench;
pub mod orgs;
pub mod prefetch;
pub mod randomwalk;
pub mod rstack;
pub mod semantic;
pub mod table;
pub mod timing;
pub mod twostacks;
pub mod verified;

use std::sync::OnceLock;

use stackcache_workloads::{all_workloads, Scale, Workload};

static SMALL: OnceLock<Vec<Workload>> = OnceLock::new();
static FULL: OnceLock<Vec<Workload>> = OnceLock::new();

/// The four benchmark workloads at the given scale, built once and cached.
#[must_use]
pub fn workloads(scale: Scale) -> &'static [Workload] {
    match scale {
        Scale::Small => SMALL.get_or_init(|| all_workloads(Scale::Small)),
        Scale::Full => FULL.get_or_init(|| all_workloads(Scale::Full)),
    }
}
