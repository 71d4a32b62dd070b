//! Cache-state profiles of the benchmark workloads.
//!
//! Usage: `obsreport [--full]`
//!
//! Replays every benchmark workload under the cache-state profiler for a
//! few Fig. 18 organizations and prints the paper-style per-state tables
//! with the hottest transitions and (state, opcode) pairs, then the
//! static dispatch-elimination profile of each static-codegen variant.
//! `--full` profiles the full-size workload inputs instead of the small
//! ones.

use stackcache_bench::workloads;
use stackcache_core::staticcache::{compile, StaticOptions};
use stackcache_core::Org;
use stackcache_obs::{CacheProfiler, StaticProfiler};
use stackcache_vm::exec;
use stackcache_workloads::Scale;

/// The organizations profiled per workload: a spread of Fig. 18 rows.
fn profile_orgs() -> Vec<(Org, u8)> {
    vec![
        (Org::minimal(2), 2),
        (Org::minimal(4), 2),
        (Org::overflow_opt(3), 3),
        (Org::one_dup(4), 2),
    ]
}

/// The static-codegen variants profiled per workload.
fn static_variants() -> Vec<(String, StaticOptions)> {
    let mut optimal = StaticOptions::with_canonical(2);
    optimal.optimal = true;
    let mut threaded = StaticOptions::with_canonical(2);
    threaded.threaded_joins = true;
    vec![
        ("greedy(c=2)".to_string(), StaticOptions::with_canonical(2)),
        ("optimal(c=2)".to_string(), optimal),
        ("threaded(c=2)".to_string(), threaded),
    ]
}

fn profile_section(scale: Scale) {
    println!("## Cache-state profiles — benchmark workloads\n");
    for w in workloads(scale) {
        for (org, depth) in profile_orgs() {
            let mut profiler = CacheProfiler::new(&org, depth);
            let mut m = w.image.machine();
            let result = exec::run_with_observer(&w.image.program, &mut m, w.fuel(), &mut profiler);
            let status = match &result {
                Ok(o) => format!("{} instructions", o.executed),
                Err(e) => format!("trap: {e}"),
            };
            println!("### {} under {} ({status})\n", w.name, org.name());
            println!("{}", profiler.table());
        }
    }
    println!("## Static dispatch elimination — benchmark workloads\n");
    let org = Org::static_shuffle(3);
    for w in workloads(scale) {
        for (name, opts) in static_variants() {
            let sp = compile(&w.image.program, &org, &opts);
            let mut profiler = StaticProfiler::new(&sp, &org);
            let mut m = w.image.machine();
            let result = exec::run_with_observer(&w.image.program, &mut m, w.fuel(), &mut profiler);
            let status = match &result {
                Ok(o) => format!("{} instructions", o.executed),
                Err(e) => format!("trap: {e}"),
            };
            println!("### {} compiled {name} ({status})\n", w.name);
            println!("{}", profiler.table());
        }
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    println!("# Observability report\n");
    profile_section(if full { Scale::Full } else { Scale::Small });
}
