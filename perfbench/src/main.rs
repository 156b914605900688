//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Boots `scaddard` in-process on loopback, drives the named workload
//! from the seed for about `S` seconds, checks every answer and prints
//! the metrics: the end-to-end set untraced, the per-layer set traced.
//! The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the host facts and human-readable detail. Exits 1 when any check
//! fails (error frame, I/O or protocol failure, torn epoch, oracle
//! mismatch), 2 on bad arguments.

use scaddar_perfbench::gen::Workload;
use scaddar_perfbench::report::{host_facts, result_json};
use scaddar_perfbench::run;
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", host_facts());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        run::traced(args.workload, args.seed, args.seconds, &path)
    } else {
        run::untraced(args.workload, args.seed, args.seconds)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
