//! `e2e` — the interaction-level benchmark (see `README.md` beside this
//! file for the metric and workload tables).
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! e2e repeat [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a child process
//! of its own. Each run prints what it measured, one metric a line, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and the declared
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. The process exits non-zero when any interaction failed.

mod input;
mod metrics;
mod probes;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use metrics::{
    completion_rate, latency_quantile, median, per_layer, Outcome, Values, DEMOTED, END_TO_END,
};
use workloads::{Config, Phase, Prepared, Workload};

/// Length of the timed phase when `--seconds` is not given; `BENCHMARK.json`
/// passes the same value.
const DEFAULT_SECONDS: f64 = 20.0;
/// The seed of the reference numbers in the README.
const DEFAULT_SEED: u64 = 1;
/// How often an untraced run sets up; `setup_s` is the median.
const SETUPS: usize = 5;
/// Spans the traced run's buffer holds.
const SPAN_CAPACITY: usize = 1 << 21;

/// Removes the scratch directory of one run, also on a panic.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A scratch directory no other run of this or another process uses.
fn scratch_dir(root: &std::path::Path) -> Scratch {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = format!(
        "run-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    );
    Scratch(root.join(unique))
}

/// Verified interactions per second of one phase, all kinds and clients.
fn interactions_per_s(phase: &Phase) -> f64 {
    let samples = &phase.samples;
    let all: Vec<_> = [&samples.frames, &samples.queries, &samples.reports]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    completion_rate(&all, phase.wall_s)
}

/// The [`DEMOTED`] metrics of a run whose untraced phase was `phase`, with
/// the process's resident set peaking at `peak_rss_mb` during it.
fn demoted_metrics(phase: &Phase, peak_rss_mb: f64, outcome: &Outcome) -> Values {
    let samples = &phase.samples;
    vec![
        ("frame_p50_ms", latency_quantile(&samples.frames, 0.5)),
        ("frame_p95_ms", latency_quantile(&samples.frames, 0.95)),
        ("query_p50_ms", latency_quantile(&samples.queries, 0.5)),
        ("report_p50_ms", latency_quantile(&samples.reports, 0.5)),
        ("interactions_per_s", interactions_per_s(phase)),
        (
            "failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        ),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// One timed phase with tracing off, and the peak resident set size of the
/// process during it in MB: what set-up allocated and dropped goes back to
/// the kernel first, and the kernel's high-water mark starts from there.
fn timed_phase(prepared: &mut dyn Prepared, seconds: f64) -> (Phase, f64) {
    spans::release_free_memory();
    spans::reset_peak_rss();
    let phase = prepared.run(seconds);
    (phase, spans::peak_rss_kb() as f64 / 1024.0)
}

/// The untraced run: set-up, the timed phase, verification — and then the
/// whole set-up again until it has run `cfg.setups` times; `setup_s` is the
/// median. The repeats come last so that the timed phase runs in a process
/// that has set up once, as a user's would.
fn run_untraced(workload: Workload, cfg: &Config) -> Outcome {
    let started = Instant::now();
    let mut prepared = workloads::prepare(workload, cfg, None);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let (phase, peak_rss_mb) = timed_phase(prepared.as_mut(), cfg.seconds);
    let wrong = prepared.verify();
    let file = prepared.file().clone();
    drop(prepared);
    while setup_s.len() < cfg.setups {
        let started = Instant::now();
        let repeat = workloads::prepare(workload, cfg, None);
        setup_s.push(started.elapsed().as_secs_f64());
        drop(repeat);
    }
    print_samples(workload, &phase);
    let mut outcome = Outcome {
        attempted: phase.samples.attempted(),
        failed: phase.samples.failed + wrong,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            (
                "store_bytes_per_event",
                file.file_bytes as f64 / file.events as f64,
            ),
        ],
    };
    outcome
        .metrics
        .extend(demoted_metrics(&phase, peak_rss_mb, &outcome));
    outcome
}

/// The traced run: one set-up, the timed phase once with recording off (the
/// demoted metrics come from this one) and once with it on — each for half
/// of `cfg.seconds` — verification, then the layer probes on the same inputs.
fn run_traced(workload: Workload, cfg: &Config, spans_dir: &std::path::Path) -> Outcome {
    let recorder = spans::Recorder::new(SPAN_CAPACITY);
    let mut prepared = workloads::prepare(workload, cfg, Some(recorder.clone()));
    let (untraced, peak_rss_mb) = timed_phase(prepared.as_mut(), cfg.seconds / 2.0);
    recorder.set_enabled(true);
    let traced = prepared.run(cfg.seconds / 2.0);
    recorder.set_enabled(false);
    let wrong = prepared.verify();
    let file = prepared.file().clone();
    drop(prepared);

    let (recorded, dropped) = recorder.snapshot();
    let spans_path = spans_dir.join(format!("spans-{}-{}.tsv", workload.name(), cfg.seed));
    spans::write_spans(&spans_path, &recorded).expect("write spans");
    println!(
        "# {}: {} spans ({} dropped) -> {}",
        workload.name(),
        recorded.len(),
        dropped,
        spans_path.display()
    );
    println!(
        "# {:<40} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, totals) in spans::self_times(&recorded) {
        println!(
            "# {:<40} {:>9} {:>12.3} {:>12.3}",
            name,
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    print_samples(workload, &untraced);
    print_samples(workload, &traced);

    let mut outcome = Outcome {
        attempted: untraced.samples.attempted() + traced.samples.attempted(),
        failed: untraced.samples.failed + traced.samples.failed + wrong,
        metrics: probes::layer_metrics(cfg, &file, &traced),
    };
    outcome.metrics.push((
        "bench.tracing_overhead_share",
        interactions_per_s(&traced) / interactions_per_s(&untraced) - 1.0,
    ));
    outcome
        .metrics
        .extend(demoted_metrics(&untraced, peak_rss_mb, &outcome));
    // In the declared order, whatever order the probes ran in.
    outcome
        .metrics
        .sort_by_key(|(name, _)| per_layer().position(|m| m.name == *name));
    outcome
}

fn print_samples(workload: Workload, phase: &Phase) {
    let s = &phase.samples;
    println!(
        "# {}: {} frames, {} queries, {} reports, {} failed in {:.2} s",
        workload.name(),
        s.frames.len(),
        s.queries.len(),
        s.reports.len(),
        s.failed,
        phase.wall_s
    );
}

/// One run in a process of its own, as the driver makes them: a run inside
/// this process would start from the heap the previous run left behind, and
/// `peak_rss_mb` would climb from run to run.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> std::process::Command {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    command
}

/// The result of one untraced child run; `None` if it printed no result line.
fn run_in_child(workload: Workload, seed: u64, seconds: f64) -> Option<Outcome> {
    let output = child(workload, seed, seconds, false)
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8(output.stdout).ok()?;
    Outcome::parse(&stdout, workload.name())
}

/// `e2e repeat`: the untraced benchmark as two sets of `runs` runs on one
/// seed, every run a process of its own and the two sets' runs taking turns
/// (so the machine drifting over the minutes this takes does not favour one
/// set); prints both medians of every metric of every workload, the gap
/// between them as a share of the smaller, and the bound of those that have
/// one. Returns whether every such gap — in either direction: the code is
/// the same — stayed within its bound and no interaction failed.
fn repeat(workloads: &[Workload], runs: usize, seed: u64, seconds: f64) -> bool {
    // sets[set][workload] = that set's outcomes on that workload.
    let mut sets = [(); 2].map(|()| vec![Vec::with_capacity(runs); workloads.len()]);
    for _ in 0..runs {
        for set in &mut sets {
            for (outcomes, &workload) in set.iter_mut().zip(workloads) {
                match run_in_child(workload, seed, seconds) {
                    Some(outcome) => outcomes.push(outcome),
                    None => {
                        eprintln!("e2e: a run of {} gave no result", workload.name());
                        return false;
                    }
                }
            }
        }
    }
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median 1", "median 2", "gap", "bound"
    );
    let mut within = true;
    for (i, &workload) in workloads.iter().enumerate() {
        // `failed_share` is 0 in every run that gets this far.
        let printed = END_TO_END
            .iter()
            .chain(DEMOTED)
            .filter(|metric| metric.name != "failed_share");
        for metric in printed {
            let [first, second] = [&sets[0][i], &sets[1][i]].map(|outcomes| {
                let values: Vec<f64> = outcomes
                    .iter()
                    .filter_map(|outcome| outcome.value(metric.name))
                    .collect();
                median(&values)
            });
            let gap = first.max(second) / first.min(second) - 1.0;
            // Only a metric with a bound is held to one.
            let (bound, ok) = match metric.bound {
                Some(bound) => (format!("{:.0}%", 100.0 * bound), gap <= bound),
                None => ("-".into(), true),
            };
            within &= ok;
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>7.2}% {:>7}{}",
                workload.name(),
                metric.name,
                first,
                second,
                100.0 * gap,
                bound,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
        let failed: u64 = sets.iter().flat_map(|set| &set[i]).map(|o| o.failed).sum();
        if failed > 0 {
            println!("{:<16} {failed} interactions failed", workload.name());
            within = false;
        }
    }
    within
}

/// Where scratch files go: inside the build directory, so a checkout stays
/// clean and `.gitignore` already covers it.
fn data_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e-data")
}

struct Args {
    repeat: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        repeat: false,
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 3,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "repeat" {
            parsed.repeat = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{arg} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {arg}");
        match arg.as_str() {
            "--workload" => {
                parsed.workloads = vec![Workload::from_name(value).ok_or_else(bad)?];
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                parsed.runs = value.parse().map_err(|_| bad())?;
                if parsed.runs == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}");
            eprintln!(
                "usage: e2e [repeat] [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1] [--runs N]"
            );
            return ExitCode::from(2);
        }
    };
    if args.repeat {
        return if repeat(&args.workloads, args.runs, args.seed, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let [workload] = args.workloads[..] {
        let root = data_root();
        let scratch = scratch_dir(&root);
        let cfg = Config {
            seed: args.seed,
            seconds: args.seconds,
            pairs_per_cpu: workload.pairs_per_cpu(input::FULL_PAIRS_PER_CPU),
            setups: SETUPS,
            data_dir: scratch.0.clone(),
        };
        let outcome = if args.trace {
            std::fs::create_dir_all(&root).expect("create data root");
            run_traced(workload, &cfg, &root)
        } else {
            run_untraced(workload, &cfg)
        };
        if args.trace {
            outcome.print(workload.name(), per_layer());
        } else {
            outcome.print(workload.name(), END_TO_END.iter());
        }
        return if outcome.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // Every workload in turn, each in a process of its own.
    let mut all_ok = true;
    for &workload in &args.workloads {
        let status = child(workload, args.seed, args.seconds, args.trace).status();
        all_ok &= status.is_ok_and(|status| status.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Better, Metric};

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// The part of `BENCHMARK.json` from key `from` up to key `to`.
    fn section<'a>(from: &str, to: Option<&str>) -> &'a str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{from}\""))
            .expect("section");
        let rest = &BENCHMARK_JSON[start..];
        match to {
            Some(to) => &rest[..rest.find(&format!("\"{to}\"")).expect("next section")],
            None => rest,
        }
    }

    /// Every value of `"key": value` in `text`, quotes stripped.
    fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\":");
        text.match_indices(&needle)
            .map(|(at, _)| {
                let rest = text[at + needle.len()..].trim_start();
                let end = if let Some(quoted) = rest.strip_prefix('"') {
                    return &quoted[..quoted.find('"').expect("closing quote")];
                } else {
                    rest.find([',', '}']).expect("end of value")
                };
                rest[..end].trim()
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let workloads = section("workloads", Some("end_to_end"));
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(values(workloads, "name"), names);

        let label = |better: Better| match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let sections = [
            (
                section("end_to_end", Some("per_layer")),
                END_TO_END.to_vec(),
            ),
            (section("per_layer", None), per_layer().copied().collect()),
        ];
        for (text, declared) in sections {
            let column = |f: fn(&Metric) -> &'static str| declared.iter().map(f).collect();
            let names: Vec<_> = column(|m| m.name);
            assert_eq!(values(text, "name"), names);
            let units: Vec<_> = column(|m| m.unit);
            assert_eq!(values(text, "unit"), units);
            let directions: Vec<_> = declared.iter().map(|m| label(m.better)).collect();
            assert_eq!(values(text, "better"), directions);
            let bounds: Vec<f64> = values(text, "bound")
                .iter()
                .map(|b| b.parse().expect("bound is a number"))
                .collect();
            let declared_bounds: Vec<f64> = declared.iter().filter_map(|m| m.bound).collect();
            assert_eq!(bounds, declared_bounds);
        }
        assert_eq!(
            values(BENCHMARK_JSON, "run_seconds"),
            [format!("{DEFAULT_SECONDS}")]
        );
    }

    /// A 1/50-size trace through all four workloads, then one traced run.
    #[test]
    fn smoke_all_workloads_and_a_traced_run() {
        let root = std::env::temp_dir().join(format!("aftermath-e2e-smoke-{}", std::process::id()));
        let _cleanup = Scratch(root.clone());
        let config = |workload: Workload| {
            let scratch = scratch_dir(&root);
            let cfg = Config {
                seed: 7,
                seconds: 0.3,
                pairs_per_cpu: workload.pairs_per_cpu(input::FULL_PAIRS_PER_CPU / 50),
                setups: 1,
                data_dir: scratch.0.clone(),
            };
            (scratch, cfg)
        };
        for workload in Workload::ALL {
            let (_scratch, cfg) = config(workload);
            let outcome = run_untraced(workload, &cfg);
            assert_eq!(outcome.failed, 0, "{}: wrong answers", workload.name());
            assert!(outcome.attempted > 0);
            // All nine of the issue's metrics, the end-to-end ones first.
            let names: Vec<_> = outcome.metrics.iter().map(|&(name, _)| name).collect();
            let declared: Vec<_> = END_TO_END.iter().chain(DEMOTED).collect();
            assert_eq!(names, declared.iter().map(|m| m.name).collect::<Vec<_>>());
            assert_eq!(outcome.value("failed_share"), Some(0.0));
            for &(name, value) in &outcome.metrics {
                assert!(
                    value.is_finite() && (value > 0.0 || name == "failed_share"),
                    "{}: {name} = {value}",
                    workload.name()
                );
                assert!(!metrics::unit_of(name).is_empty());
            }
            // The result line carries the end-to-end metrics and no other.
            let line = outcome.result_line(END_TO_END.iter());
            assert!(line.contains("\"setup_s\"") && !line.contains("frame_p50_ms"));
        }

        let workload = Workload::ColdOpen;
        let (_scratch, cfg) = config(workload);
        std::fs::create_dir_all(&root).expect("create span directory");
        let outcome = run_traced(workload, &cfg, &root);
        assert_eq!(outcome.failed, 0, "traced run: wrong answers");
        let names: Vec<_> = outcome.metrics.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, per_layer().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(outcome.value("failed_share"), Some(0.0));
        for &(name, value) in &outcome.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            assert!(!metrics::unit_of(name).is_empty());
        }
        assert!(
            outcome
                .value("trace.store.tier_reads_per_op")
                .expect("declared")
                > 0.0
        );

        // Every span's parent and interaction are spans of the same file.
        let spans = std::fs::read_to_string(root.join(format!("spans-cold_open-{}.tsv", cfg.seed)))
            .expect("span file");
        let rows: Vec<Vec<&str>> = spans
            .lines()
            .skip(1)
            .map(|line| line.split('\t').collect())
            .collect();
        assert!(rows
            .iter()
            .any(|row| row[3] == "ColdTier::read_at" && row[1] != "0"));
        let ids: std::collections::HashSet<&str> = rows.iter().map(|row| row[0]).collect();
        for row in &rows {
            assert!(row[1] == "0" || ids.contains(row[1]), "orphan span {row:?}");
            assert!(ids.contains(row[2]), "span without interaction {row:?}");
        }
    }
}
