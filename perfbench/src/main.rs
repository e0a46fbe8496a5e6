//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a run record line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments and 1 when the run could not complete.

use perfbench::report::{host_steal_s, json_str, Metrics};
use perfbench::workloads::{Config, RunOutput, Workload};
use perfbench::{ledger, workloads};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn record_line(args: &Args, cfg: &Config, out: &RunOutput, steal_s: f64) -> String {
    let map = |m: &std::collections::BTreeMap<&'static str, u64>| {
        let body: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let errors: Vec<String> = out.tally.errors.iter().map(|e| json_str(e)).collect();
    let kept: Vec<String> = out
        .kept
        .iter()
        .map(|(k, v)| format!("{}: {v:.4}", json_str(k)))
        .collect();
    let kept = format!("{{{}}}", kept.join(", "));
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"threads\": {}, \"trials_by_model\": {}, \"samples\": {}, \"failed_frac\": {}, \"host_steal_s\": {steal_s:.2}, \"kept\": {}, \"errors\": [{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&probe("git", &["rev-parse", "--short", "HEAD"])),
        json_str(&probe(&rustc, &["--version"])),
        cfg.threads,
        map(&out.trials_by_model),
        map(&out.samples),
        out.tally.failed as f64 / out.tally.attempted.max(1) as f64,
        kept,
        errors.join(", "),
    )
}

fn result_line(out: &RunOutput, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.to_json()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <survival_n2|scaling_rb|sweep_cache> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let work_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let cfg = Config::new(args.workload, args.seed, args.seconds, threads, work_dir);
    let steal = host_steal_s();
    let result = if args.trace {
        ledger::run(&cfg)
    } else {
        workloads::run(&cfg)
    };
    let steal_s = host_steal_s() - steal;
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    // The shared parent goes too once no other run is using it.
    let _ = std::fs::remove_dir(".bench_run");
    match result {
        Ok(out) => {
            println!("{}", record_line(&args, &cfg, &out, steal_s));
            println!("{}", result_line(&out, &out.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
