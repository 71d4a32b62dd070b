//! `perfbench --workload <suite|serve|churn> --seed <n> --seconds <s> --trace <0|1> [--ops <n>]`
//!
//! Runs one workload and prints, last, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--ops` measures a fixed number of operations instead
//! of a fixed time, so two runs with one seed do identical work.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use stackcache_perfbench::{run, Budget, Options, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <suite|serve|churn> --seed <n> --seconds <s> --trace <0|1> [--ops <n>]");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut ops) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| bad("expected suite, serve or churn"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            "--ops" => {
                ops = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let budget = match (ops, seconds) {
        (Some(n), _) => Budget::Ops(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => return Err("--seconds or --ops is required".into()),
    };
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget,
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's output, or `unknown`.
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint: git commit, CPU model, core count, compiler.
fn fingerprint(o: &Options) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "host git={} cpu=\"{}\" nproc={} rustc=\"{}\" seed={} workload={} trace={}",
        probe("git", &["rev-parse", "HEAD"]),
        cpu,
        nproc,
        probe("rustc", &["--version"]),
        o.seed,
        o.workload.name(),
        u8::from(o.trace)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let host = fingerprint(&o);
    println!("{host}");
    let report = run(&o);
    let metrics = if o.trace { &report.layers } else { &report.e2e };
    for (name, value, unit) in report.e2e.0.iter().chain(&report.layers.0) {
        println!("metric {name} = {value:.4} {unit}");
    }
    println!("host steal_pct={:.2}", report.steal_pct);
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "counts attempted={} failed={} {}",
        report.tally.attempted,
        report.tally.failed,
        counts.join(" ")
    );
    if o.trace {
        let path = std::env::current_exe().ok().and_then(|p| {
            p.parent().map(|d| {
                d.join(format!(
                    "perfbench-spans-{}-{}.jsonl",
                    o.workload.name(),
                    o.seed
                ))
            })
        });
        if let Some(path) = path {
            let body = format!(
                "{{\"host\":\"{}\"}}\n{}",
                host.replace('"', "'"),
                report.tracer.to_jsonl()
            );
            match std::fs::write(&path, body) {
                Ok(()) => println!("spans {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
            }
        }
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed
    );
    ExitCode::SUCCESS
}
