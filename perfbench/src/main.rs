//! `perfbench --workload <fleet|identify|serve> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Runs one workload, prints its metrics by name with units on standard
//! error, and ends standard output with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! carrying the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`).

use dpr_perfbench::report::{END_TO_END, PER_LAYER};
use dpr_perfbench::{fleet, identify, serve, Opts};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <fleet|identify|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fleet" => fleet::run(&args.opts),
        "identify" => identify::run(&args.opts),
        "serve" => serve::run(&args.opts),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalogue = if args.opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    for line in &outcome.notes {
        eprintln!("{line}");
    }
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(*name).copied().unwrap_or(0.0);
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    println!("{}", outcome.json(catalogue));
    ExitCode::SUCCESS
}
