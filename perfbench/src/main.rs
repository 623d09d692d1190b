//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the root of a repository checkout, prints the
//! run record, every metric with its unit and any failed check, and ends
//! with one JSON result line. Generated graphs are kept in `.bench_data/`
//! under the working directory.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{Spec, Workload};

fn parse() -> Result<(Workload, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        return Err("expected --flag value pairs".into());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let v = pair[1].as_str();
        let bad = |what: &str| format!("bad {what} `{v}`");
        match pair[0].as_str() {
            "--workload" => workload = Some(Workload::parse(v).ok_or_else(|| bad("--workload"))?),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| bad("--seed"))?),
            "--seconds" => {
                let s: f64 = v.parse().map_err(|_| bad("--seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("--seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(0),
        seconds.unwrap_or(10.0),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 (workloads: cold-1m-dpr1, steady-100k-dpr2, delta-serve-100k, ingest-10m)"
            );
            return ExitCode::from(2);
        }
    };
    let out =
        match perfbench::run(&Spec::full(workload), seed, seconds, trace, Path::new(".bench_data"))
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!("record {}", out.record_json());
    for m in &out.metrics {
        println!("{:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}
