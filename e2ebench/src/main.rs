//! `gpl-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line. The
//! traced run's spans are written to `<target dir>/e2ebench-trace/`.

use gpl_e2ebench::workload::Workload;
use gpl_e2ebench::{out_dir, run, Options};
use std::process::ExitCode;

/// Seed used when none is given; `9001` is held out for checking
/// claims made with the default.
const DEFAULT_SEED: u64 = 1;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {:?}", Workload::NAMES)
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gpl-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    print!("{}", outcome.report);
    if let (Some(json), Some(dir)) = (&outcome.trace_json, out_dir("e2ebench-trace")) {
        let path = dir.join(format!("{}-seed{}.json", opts.workload.name(), opts.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("gpl-e2ebench: could not write spans: {e}"),
        }
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
