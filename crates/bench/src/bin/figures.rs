//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! figures [--full] [fig7 fig13 fig18 fig20 fig21 fig22 fig23 fig24 fig25
//!          fig26 randomwalk rstack ablation orgs freq twostacks prefetch
//!          semantic fusion jit analysis | all]
//! ```
//!
//! By default the small workload inputs are used; `--full` switches to the
//! full-size inputs (millions of executed instructions per workload, a few
//! minutes in total). The interpreters' wall-clock times are measured by
//! `perfbench` (`python3 perfbench/run.py --workload suite`), and the
//! service and network tiers are exercised by the `stackcache-svc` and
//! `stackcache-net` integration tests.

use std::process::ExitCode;

use stackcache_bench::{
    ablation, fig07, fig18, fig20, fig21, fig22, fig24, fig26, freq, fusion, jitbench, orgs,
    prefetch, randomwalk, rstack, semantic, twostacks, verified,
};
use stackcache_core::CostModel;
use stackcache_workloads::Scale;

/// Every section `figures` can print, in print order.
const SECTIONS: [&str; 21] = [
    "fig7",
    "fig13",
    "fig18",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "randomwalk",
    "rstack",
    "ablation",
    "orgs",
    "freq",
    "twostacks",
    "prefetch",
    "semantic",
    "fusion",
    "jit",
    "analysis",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Small };
    let mut wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| **w != "all" && !SECTIONS.contains(w))
    {
        eprintln!(
            "figures: unknown section `{unknown}`; known: {}",
            SECTIONS.join(" ")
        );
        return ExitCode::FAILURE;
    }
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = SECTIONS.to_vec();
    }
    let want = |name: &str| wanted.contains(&name);
    let scale_name = if full { "full" } else { "small" };
    println!("# Stack Caching for Interpreters — evaluation ({scale_name} inputs)\n");

    if want("fig7") {
        println!("## Fig. 7 — instruction dispatch cost\n");
        println!("{}", fig07::table(&fig07::run(2_000_000)));
        println!("{}", fig07::paper_table());
    }
    if want("fig13") {
        use stackcache_core::{dot, Org, Policy};
        println!("## Fig. 13 — the two-register minimal cache state machine (Graphviz)\n");
        println!(
            "{}",
            dot::state_machine_dot(&Org::minimal(2), &Policy::on_demand(2), &dot::fig13_edges())
        );
        println!("## Fig. 17 — two registers, one duplication allowed (Graphviz)\n");
        println!(
            "{}",
            dot::state_machine_dot(&Org::one_dup(2), &Policy::on_demand(2), &dot::fig17_edges())
        );
    }
    if want("fig18") {
        println!("## Fig. 18 — number of cache states\n");
        println!("{}", fig18::table(&fig18::run()));
    }
    if want("fig20") {
        println!("## Fig. 20 — measured programs (baseline characteristics)\n");
        println!("{}", fig20::table(&fig20::run(scale)));
    }

    let need21 = want("fig21") || want("fig26");
    let need22 = want("fig22") || want("fig23") || want("fig26");
    let need24 = want("fig24") || want("fig25") || want("fig26");
    let f21 = need21.then(|| fig21::run(scale, 6));
    let f22 = need22.then(|| fig22::run(scale, 10));
    let f24 = need24.then(|| fig24::run(scale, 6));

    if want("fig21") {
        println!("## Fig. 21 — constant number of items in registers\n");
        println!("{}", fig21::table(f21.as_ref().unwrap()));
    }
    if want("fig22") {
        println!("## Fig. 22 — dynamic caching: overhead (cycles/inst)\n");
        println!("{}", fig22::table(f22.as_ref().unwrap()));
        println!("best followup state per register count:");
        for b in fig22::best_per_registers(f22.as_ref().unwrap()) {
            println!(
                "  {} registers: followup {} -> {:.3} cycles/inst",
                b.registers,
                b.followup,
                b.overhead()
            );
        }
        println!();
    }
    if want("fig23") {
        println!("## Fig. 23 — dynamic caching components, 6 registers\n");
        println!(
            "{}",
            fig22::fig23_table(&fig22::fig23(f22.as_ref().unwrap(), 6))
        );
    }
    if want("fig24") {
        println!("## Fig. 24 — static caching: net overhead per original inst\n");
        println!("{}", fig24::table(f24.as_ref().unwrap()));
        println!("best canonical state per register count:");
        for b in fig24::best_per_registers(f24.as_ref().unwrap()) {
            println!(
                "  {} registers: canonical {} -> {:.3} cycles/inst",
                b.registers,
                b.canonical,
                b.overhead()
            );
        }
        println!();
    }
    if want("fig25") {
        println!("## Fig. 25 — static caching components, 6 registers\n");
        println!(
            "{}",
            fig24::fig25_table(&fig24::fig25(f24.as_ref().unwrap(), 6))
        );
    }
    if want("fig26") {
        let model = CostModel::paper();
        println!("## Fig. 26 — comparison of the approaches (dispatch = 4)\n");
        let rows = fig26::run(
            f21.as_ref().unwrap(),
            f22.as_ref().unwrap(),
            f24.as_ref().unwrap(),
            &model,
        );
        println!("{}", fig26::table(&rows));
        for d in [5u32, 6] {
            let m = CostModel {
                dispatch: d,
                ..model
            };
            println!("### sensitivity: dispatch = {d} cycles\n");
            let rows = fig26::run(
                f21.as_ref().unwrap(),
                f22.as_ref().unwrap(),
                f24.as_ref().unwrap(),
                &m,
            );
            println!("{}", fig26::table(&rows));
        }
    }
    if want("randomwalk") {
        println!("## Section 6 — overflows vs. the [HS85] random-walk model");
        println!("   (10-register cache; overflow counts per followup state)\n");
        println!("{}", randomwalk::table(&randomwalk::run(scale)));
    }
    if want("rstack") {
        println!("## Section 6 — return-stack caching with one register\n");
        println!("{}", rstack::table(&rstack::run(scale)));
    }
    if want("orgs") {
        println!("## Section 4 extension — dynamic caching across organizations (4 registers)\n");
        println!("{}", orgs::table(&orgs::run(scale, 4)));
    }
    if want("freq") {
        let report = freq::run(scale);
        println!("## Section 6 — opcode execution frequency\n");
        println!("{}", freq::table(&report));
        println!(
            "top 10% of used opcodes cover {:.1}% of executed instructions (paper: ~90%)\n",
            100.0 * report.coverage_of_top(0.10)
        );
    }
    if want("twostacks") {
        println!("## Section 3.4 extension — both stacks in one register file (6 registers)\n");
        println!("{}", twostacks::table(&twostacks::run(scale, 6)));
    }
    if want("prefetch") {
        println!("## Section 3.6 extension — prefetching (6 registers)\n");
        println!("{}", prefetch::table(&prefetch::run(scale, 6, 4)));
    }
    if want("semantic") {
        println!("## Section 2.2 extension — increasing semantic content (peephole)\n");
        println!("{}", semantic::table(&semantic::run(scale)));
    }
    if want("fusion") {
        println!("## Section 2.2 extension — profile-guided superinstructions\n");
        println!("{}", fusion::table(&fusion::run(scale)));
        let cycle = fusion::readmission_cycle(scale);
        println!(
            "profile -> fuse -> re-admit cycle: {} workloads, {} compile misses, \
             {} warm re-admissions, {} divergences\n",
            cycle.workloads,
            cycle.misses,
            cycle.hits,
            cycle.divergences.len()
        );
    }
    if want("ablation") {
        println!("## Section 5 ablation — static code generation variants\n");
        println!("{}", ablation::table(&ablation::run(scale, 4)));
    }
    if want("analysis") {
        println!("## Static analysis — safety proofs and the verified fast path\n");
        println!("{}", verified::render(&verified::run(scale)));
    }
    if want("jit") {
        println!("## Template JIT — wall-clock vs the interpreter ladder\n");
        let rows = jitbench::run(scale);
        println!("{}", jitbench::table(&rows));
        println!("{}\n", jitbench::summary_line(&rows));
    }
    ExitCode::SUCCESS
}
