//! CI benchmark-regression gate for the `BENCH_*.json` records.
//!
//! ```text
//! bench_check <fresh.json> [<baseline.json>]
//! ```
//!
//! Evaluates every row of [`aftermath_bench::gates::GATES`] whose kind is the
//! fresh record's `bench` field — the table is the whole rule set; see
//! `crates/bench/baselines/README.md` for where each bound comes from. Absolute
//! rows read the fresh record only; a row relative to the baseline needs the
//! committed record of the same kind as the second argument.
//!
//! **Every** row of the kind is evaluated — a failing or incomparable row never
//! short-circuits the rest, so one run reports every violation at once. Exit
//! codes: 0 when every row holds, 1 when a row is violated, 2 when the records
//! are incomparable — another `schema_version` (or none: a pre-envelope file),
//! mismatched or unknown kinds, a gated field that is missing or of the wrong
//! type, or a relative row without a baseline.

use std::process::ExitCode;

use aftermath_bench::gates::{self, Verdict};
use aftermath_bench::record::Record;

fn load(path: &str) -> Result<Record, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let record = Record::parse(&contents).map_err(|e| format!("{path}: {e}"))?;
    println!("bench_check: {path}: {} @ {}", record.bench, record.git);
    Ok(record)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(1..=2).contains(&args.len()) {
        eprintln!("usage: bench_check <fresh.json> [<baseline.json>]");
        return ExitCode::from(2);
    }
    let records: Vec<Result<Record, String>> = args.iter().map(|path| load(path)).collect();
    for e in records.iter().filter_map(|r| r.as_ref().err()) {
        eprintln!("bench_check: {e}");
    }
    let Ok(records) = records.into_iter().collect::<Result<Vec<_>, _>>() else {
        return ExitCode::from(2);
    };
    let (fresh, baseline) = (&records[0], records.get(1));
    if let Some(baseline) = baseline.filter(|b| b.bench != fresh.bench) {
        eprintln!(
            "bench_check: record kinds differ ('{}' vs '{}') — incomparable",
            fresh.bench, baseline.bench
        );
        return ExitCode::from(2);
    }
    match gates::check(fresh, baseline) {
        Verdict::Pass => {
            println!("bench_check: OK");
            ExitCode::SUCCESS
        }
        Verdict::Regression => ExitCode::from(1),
        Verdict::Incomparable => ExitCode::from(2),
    }
}
