//! Regenerates every table and figure of the paper's evaluation sections.
//!
//! ```text
//! reproduce [--scale test|paper] [--out DIR] [--threads N|auto] [--json] [TARGET...]
//! ```
//!
//! A target is a figure (`fig3` ... `fig19`, `sec6`, `seidel`, or `all`, the
//! default: every figure plus `sec6`) or one of the explicit benchmark modes
//! that `all` leaves out (`zoom-sweep`, `stream`, `ingest`, `store`, `serve`,
//! `chaos`, `lint`); `--x` and `x` name the same target. Each figure prints
//! the series/rows of one paper figure; each mode prints its `BENCH_<kind>.json`
//! record as a table and, with `--json`, writes it. With `--out DIR`, PPM
//! renderings of the visual views (timelines, incidence matrices, histograms)
//! are written to `DIR`.

use std::path::PathBuf;

use aftermath_bench::chaos;
use aftermath_bench::figures::{fmt_cycles, Scale};
use aftermath_bench::ingest;
use aftermath_bench::kmeans_experiments as km;
use aftermath_bench::lint_demo;
use aftermath_bench::record::{Fields, Record};
use aftermath_bench::section6;
use aftermath_bench::seidel_experiments::SeidelExperiment;
use aftermath_bench::serve;
use aftermath_bench::store;
use aftermath_bench::stream;
use aftermath_bench::zoom;
use aftermath_core::{AnalysisSession, Threads, TimelineMode, TimelineModel};
use aftermath_render::views::{render_histogram, render_incidence_matrix};
use aftermath_render::TimelineRenderer;

struct Options {
    scale: Scale,
    out_dir: Option<PathBuf>,
    threads: Threads,
    json: bool,
    trace_path: Option<PathBuf>,
    write_fixture: Option<PathBuf>,
    targets: Vec<String>,
}

impl Options {
    /// Whether the explicit mode `name` was asked for (`all` does not imply
    /// the modes: at paper scale they build deliberately large traces).
    fn has(&self, name: &str) -> bool {
        self.targets.iter().any(|t| t == name)
    }

    /// Prints a benchmark record under `title` and, with `--json`, writes it
    /// as `BENCH_<kind>.json` next to the other outputs: into `--out` when
    /// given, the working directory otherwise.
    fn report(&self, title: &str, record: &Record) {
        record.print(title);
        if !self.json {
            return;
        }
        let file = format!("BENCH_{}.json", record.bench);
        let path = match &self.out_dir {
            Some(dir) => dir.join(&file),
            None => PathBuf::from(&file),
        };
        std::fs::write(&path, record.to_json()).expect("write benchmark record");
        println!("# wrote {}", path.display());
    }
}

const USAGE: &str = "\
usage: reproduce [--scale test|paper] [--out DIR] [--threads N|auto] [--json] [TARGET...]
figures: fig3 fig5 fig8 fig9 fig10 fig12 fig13 fig14 fig15 fig16 fig19 sec6 seidel all
         (no target means 'all': every figure plus sec6)
modes (explicit targets, not part of 'all'; '--x' and 'x' are the same target):
  zoom-sweep  scan-vs-pyramid frame times across zoom levels
  stream      replays the sec6 trace through the streaming ingest layer
              (per-epoch advance/frame latency)
  ingest      measures the columnar ingest pipeline on the zoom trace
              (build / prewarm / detect throughput and bytes per event)
  store       measures the on-disk column store on the zoom trace
              (compression, lazy open-to-first-frame, capped-residency sweep)
  serve       drives N concurrent TCP clients against the analysis server
              (frame latency percentiles, cache hits, sessions per GB, byte-identity)
  chaos       replays the serve load under seeded faults and killed connections
              (zero escaped panics, typed-error-or-exact-bytes, salvage coverage)
  lint        lints a trace (the built-in corrupted demo, or --trace FILE),
              prints the per-code findings and repairs it
--trace FILE lints a serialized trace file instead of the demo
--write-fixture PATH writes the corrupted demo trace to PATH
--json writes BENCH_<kind>.json for sec6 and every mode";

/// Parses the command line (without the program name). Bad values and
/// `--help` exit the process.
fn parse_args(args: impl IntoIterator<Item = String>) -> Options {
    let mut args = args.into_iter();
    let mut options = Options {
        scale: Scale::Paper,
        out_dir: None,
        threads: Threads::auto(),
        json: false,
        trace_path: None,
        write_fixture: None,
        targets: Vec::new(),
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match arg.as_str() {
            "--scale" => {
                let value = value();
                options.scale = Scale::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale '{value}', expected 'test' or 'paper'");
                    std::process::exit(2);
                });
            }
            "--out" => options.out_dir = Some(PathBuf::from(value())),
            "--threads" => {
                options.threads = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--json" => options.json = true,
            "--trace" => options.trace_path = Some(PathBuf::from(value())),
            "--write-fixture" => options.write_fixture = Some(PathBuf::from(value())),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => options
                .targets
                .push(other.trim_start_matches("--").to_string()),
        }
    }
    // `--write-fixture` alone should not drag in the full figure run.
    if options.targets.is_empty() && options.write_fixture.is_none() {
        options.targets.push("all".to_string());
    }
    options
}

type SeidelFig = fn(&SeidelExperiment, &Options);

/// The figures of the seidel case study (paper Sections III-A/B and IV); they
/// share one experiment run.
const SEIDEL_FIGS: [(&str, SeidelFig); 7] = [
    ("fig3", fig3),
    ("fig5", fig5),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig14", fig14),
    ("fig15", fig15),
];

fn wants(options: &Options, name: &str) -> bool {
    let seidel = SEIDEL_FIGS.iter().any(|(fig, _)| *fig == name);
    options
        .targets
        .iter()
        .any(|t| t == name || t == "all" || (t == "seidel" && seidel))
}

fn main() {
    let options = parse_args(std::env::args().skip(1));
    let (scale, threads) = (options.scale, options.threads);
    if let Some(dir) = &options.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    println!(
        "# Aftermath-rs figure reproduction (scale: {:?}, threads: {})",
        options.scale, options.threads
    );

    if let Some(path) = &options.write_fixture {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create fixture directory");
        }
        aftermath_trace::format::write_trace_file(&lint_demo::corrupted_demo_trace(), path)
            .expect("write corrupted fixture");
        println!("# wrote corrupted fixture {}", path.display());
    }
    if options.has("lint") {
        lint_mode(&options);
    }

    if SEIDEL_FIGS.iter().any(|(name, _)| wants(&options, name)) {
        let exp = SeidelExperiment::run(scale);
        for (name, fig) in SEIDEL_FIGS {
            if wants(&options, name) {
                fig(&exp, &options);
            }
        }
    }
    if wants(&options, "fig12") || wants(&options, "fig13") {
        fig12_13(&options);
    }
    if wants(&options, "fig16") {
        fig16(&options);
    }
    if wants(&options, "fig19") {
        fig19(&options);
    }
    // `sec6` and `stream` share one (at paper scale multi-million-event) trace.
    if wants(&options, "sec6") || options.has("stream") {
        let trace = section6::synthetic_trace(options.scale);
        if wants(&options, "sec6") {
            sec6(&options, &trace);
        }
        if options.has("stream") {
            let (chunks, columns) = match scale {
                Scale::Test => (16, 256),
                Scale::Paper => (64, 800),
            };
            let replay = stream::run_stream_replay(&trace, chunks, columns, scale == Scale::Test);
            options.report(
                "Streaming ingest — per-epoch latency of the live analysis pipeline",
                &replay.record(),
            );
        }
    }
    // Byte-identity inside the zoom and stream runs is asserted at test scale;
    // at paper scale the numbers are the point and the equivalence suites
    // already cover correctness.
    if options.has("zoom-sweep") || options.has("zoom") {
        let sweep =
            zoom::run_zoom_sweep(&zoom::zoom_trace(scale), 800, threads, scale == Scale::Test);
        options.report(
            "Zoom sweep — timeline frame times: scan vs. pyramid",
            &sweep.record(),
        );
    }
    if options.has("ingest") {
        options.report(
            "Ingest pipeline — columnar storage engine: build, prewarm, detect, memory",
            &ingest::run_ingest_bench(scale, threads).record(),
        );
    }
    if options.has("store") {
        let bench = store::run_store_bench(scale, threads);
        options.report(
            "Column store — compression, lazy open-to-first-frame, capped residency",
            &bench.record(),
        );
        // Print-only: where the file's block bytes sit — and a Seidel
        // trace's, whose event and sample lanes the zoom trace lacks — and
        // which tier checksummed them (`table` under AFTERMATH_NO_SIMD,
        // which `ci/smoke.sh store` asserts).
        println!("# bytes by lane: {}", bench.lane_bytes);
        println!(
            "# bytes by lane (seidel): {}",
            store::seidel_lane_bytes(scale)
        );
        println!("# crc tier: {}", aftermath_trace::crc::tier_name());
    }
    if options.has("serve") {
        options.report(
            "Analysis server — N concurrent clients, shared-cache sessions, frame latency",
            &serve::run_serve_bench(scale, threads).record(),
        );
    }
    if options.has("chaos") {
        options.report(
            "Chaos harness — fault-injected store, killed connections, salvage coverage",
            &chaos::run_chaos_bench(scale, threads).record(),
        );
    }
}

/// `lint`: lints a trace (the built-in corrupted demo, or `--trace FILE`),
/// repairs it, re-lints the repaired trace and prints the per-code findings.
fn lint_mode(options: &Options) {
    let (trace, source) = match &options.trace_path {
        Some(path) => {
            let trace = aftermath_trace::format::read_trace_file(path).unwrap_or_else(|e| {
                eprintln!("cannot read trace {}: {e}", path.display());
                std::process::exit(2);
            });
            (trace, path.display().to_string())
        }
        None => (lint_demo::corrupted_demo_trace(), "demo".to_string()),
    };
    let report = trace.lint();
    let repaired = trace.repair().unwrap_or_else(|e| {
        eprintln!("repair failed: {e}");
        std::process::exit(1);
    });
    let clean = repaired.trace().lint().is_clean();
    let mut fields = Fields::new()
        .text("source", &source)
        .int("findings", report.findings().len())
        .int("repairs", repaired.report().repairs().len())
        .flag("repaired_clean", clean)
        .note_if(clean, "the repaired trace re-lints clean");
    for (code, n) in report.summary().iter() {
        let row = format!("{}; repair: {}", code.description(), code.default_repair());
        fields = fields.int(code.label(), n).note_if(true, &row);
    }
    options.report(
        "Trace lint — findings and repairs",
        &Record::new("lint", fields),
    );
    const MAX_SHOWN: usize = 20;
    for f in report.findings().iter().take(MAX_SHOWN) {
        println!("# {} @ {}: {}", f.code, f.event, f.detail);
    }
    if report.findings().len() > MAX_SHOWN {
        println!(
            "# ... {} more findings",
            report.findings().len() - MAX_SHOWN
        );
    }
}

fn print_series_header(title: &str, columns: &str) {
    println!("\n## {title}");
    println!("{columns}");
}

fn fig3(exp: &SeidelExperiment, _: &Options) {
    let series = exp.fig3_idle_workers(40);
    print_series_header(
        "Figure 2/3 — seidel: number of idle workers over normalized execution time",
        "normalized_time,idle_workers",
    );
    for (x, v) in series.normalized_points() {
        println!("{:.3},{:.2}", x, v);
    }
    println!(
        "# machine has {} workers; peak idle = {:.1}",
        exp.num_cpus,
        series.max().unwrap_or(0.0)
    );
}

fn fig5(exp: &SeidelExperiment, _: &Options) {
    let profile = exp.fig5_parallelism_profile();
    print_series_header(
        "Figure 5 — seidel: available parallelism vs. task-graph depth",
        "depth,ready_tasks",
    );
    for (d, p) in profile.iter().enumerate() {
        println!("{d},{p}");
    }
    let peak = profile.iter().skip(1).max().copied().unwrap_or(0);
    println!(
        "# phases: startup={} tasks at depth 0, drop to {} at depth 1, wave-front peak {} tasks",
        profile.first().copied().unwrap_or(0),
        profile.get(1).copied().unwrap_or(0),
        peak
    );
}

fn fig8(exp: &SeidelExperiment, _: &Options) {
    let series = exp.fig8_average_task_duration(40);
    print_series_header(
        "Figure 7/8 — seidel: average task duration over normalized execution time",
        "normalized_time,avg_duration_cycles",
    );
    for (x, v) in series.normalized_points() {
        println!("{:.3},{:.0}", x, v);
    }
    println!(
        "# peak average duration {} at normalized time {:.2}",
        fmt_cycles(series.max().unwrap_or(0.0)),
        series
            .argmax()
            .map(|i| (i as f64 + 0.5) / series.num_bins() as f64)
            .unwrap_or(0.0)
    );
}

fn fig9(exp: &SeidelExperiment, _: &Options) {
    let (first, rest) = exp.fig9_init_fraction_by_phase();
    print_series_header(
        "Figure 9 — seidel typemap: initialization share of execution cycles",
        "phase,init_fraction",
    );
    println!("first_quarter,{first:.3}");
    println!("remaining_three_quarters,{rest:.3}");
}

fn fig10(exp: &SeidelExperiment, _: &Options) {
    let (sys, rss) = exp.fig10_os_derivatives(40);
    print_series_header(
        "Figure 10 — seidel: increase of system time / resident size per cycle",
        "normalized_time,d_system_time_us_per_cycle,d_resident_kbytes_per_cycle",
    );
    for ((x, s), (_, r)) in sys
        .normalized_points()
        .into_iter()
        .zip(rss.normalized_points())
    {
        println!("{:.3},{:.6e},{:.6e}", x, s, r);
    }
}

fn fig14(exp: &SeidelExperiment, options: &Options) {
    let summary = exp.fig14_locality();
    print_series_header(
        "Figure 14 — seidel: locality of memory accesses (non-optimized vs optimized run-time)",
        "configuration,remote_read_fraction,makespan_cycles",
    );
    println!(
        "non-optimized,{:.3},{}",
        summary.remote_fraction_non_optimized,
        fmt_cycles(summary.makespan_non_optimized as f64)
    );
    println!(
        "numa-optimized,{:.3},{}",
        summary.remote_fraction_optimized,
        fmt_cycles(summary.makespan_optimized as f64)
    );
    println!(
        "# speedup of the optimized configuration: {:.2}x (paper: 7.91G vs 2.59G cycles ~ 3.05x)",
        summary.speedup
    );
    if let Some(dir) = &options.out_dir {
        for (name, trace) in [
            ("fig14_numa_read_non_optimized", &exp.non_optimized.trace),
            ("fig14_numa_read_optimized", &exp.optimized.trace),
        ] {
            let session = AnalysisSession::new(trace);
            session.prewarm(options.threads);
            let model =
                TimelineModel::build(&session, TimelineMode::NumaRead, session.time_bounds(), 800)
                    .expect("timeline model");
            let fb = TimelineRenderer::new().render_with(&model, options.threads);
            let path = dir.join(format!("{name}.ppm"));
            fb.write_ppm_file(&path).expect("write ppm");
            println!("# wrote {}", path.display());
        }
    }
}

fn fig15(exp: &SeidelExperiment, options: &Options) {
    let summary = exp.fig15_incidence();
    print_series_header(
        "Figure 15 — seidel: communication incidence matrix",
        "configuration,diagonal_fraction",
    );
    println!(
        "non-optimized,{:.3}",
        summary.diagonal_fraction_non_optimized
    );
    println!("numa-optimized,{:.3}", summary.diagonal_fraction_optimized);
    if let Some(dir) = &options.out_dir {
        for (name, matrix) in [
            ("fig15_matrix_non_optimized", &summary.non_optimized),
            ("fig15_matrix_optimized", &summary.optimized),
        ] {
            let fb = render_incidence_matrix(matrix, 16);
            let path = dir.join(format!("{name}.ppm"));
            fb.write_ppm_file(&path).expect("write ppm");
            println!("# wrote {}", path.display());
        }
    }
}

fn fig12_13(options: &Options) {
    let rows = km::granularity_sweep(options.scale);
    print_series_header(
        "Figure 12/13 — k-means: execution time and idle fraction vs. block size",
        "block_size,num_blocks,seconds,idle_fraction",
    );
    for row in &rows {
        println!(
            "{},{},{:.2},{:.3}",
            row.block_size, row.num_blocks, row.seconds, row.idle_fraction
        );
    }
    if options.scale == Scale::Paper {
        println!("# paper reference (seconds): {:?}", km::PAPER_FIG12_SECONDS);
    }
}

fn fig16(options: &Options) {
    let hist = km::fig16_duration_histogram(options.scale, 30);
    print_series_header(
        "Figure 16 — k-means: distribution of main computation task durations",
        "bin_start_cycles,fraction_of_tasks",
    );
    for i in 0..hist.num_bins() {
        println!("{:.0},{:.4}", hist.bin_start(i), hist.fraction(i));
    }
    println!("# peaks at bins {:?}", hist.peaks(0.02));
    if let Some(dir) = &options.out_dir {
        let fb = render_histogram(&hist, 600, 200);
        let path = dir.join("fig16_histogram.ppm");
        fb.write_ppm_file(&path).expect("write ppm");
        println!("# wrote {}", path.display());
    }
}

fn fig19(options: &Options) {
    let summary = km::fig19_correlation(options.scale);
    print_series_header(
        "Figure 17/18/19 — k-means: duration vs. branch-misprediction rate",
        "metric,value",
    );
    println!("r_squared,{:.3}", summary.r_squared);
    println!("regression_slope_cycles_per_rate,{:.1}", summary.slope);
    println!("tasks,{}", summary.num_tasks);
    println!(
        "conditional_kernel_mean_cycles,{}",
        fmt_cycles(summary.conditional.mean)
    );
    println!(
        "conditional_kernel_stddev_cycles,{}",
        fmt_cycles(summary.conditional.std_dev)
    );
    println!(
        "optimized_kernel_mean_cycles,{}",
        fmt_cycles(summary.optimized.mean)
    );
    println!(
        "optimized_kernel_stddev_cycles,{}",
        fmt_cycles(summary.optimized.std_dev)
    );
    println!("# paper: R^2 = 0.83; mean 9.76M -> 7.73M cycles; stddev 1.18M -> 335k cycles");
}

fn sec6(options: &Options, trace: &aftermath_trace::Trace) {
    let io = section6::trace_io_stats_with(trace, options.threads);
    let render = section6::render_stats_with(trace, 1024, options.threads);
    let fields = Fields::new()
        .int("recorded_items", io.num_events)
        .int("encoded_bytes", io.encoded_bytes)
        .float("bytes_per_event", io.bytes_per_event)
        .float("encode_seconds", io.write_seconds)
        .float("decode_seconds", io.read_seconds)
        .int("timeline_draw_calls_optimized", render.optimized_draw_calls)
        .int(
            "timeline_draw_calls_unaggregated",
            render.unaggregated_draw_calls,
        )
        .int("timeline_draw_calls_naive", render.naive_draw_calls)
        .int(
            "overlay_draw_calls_optimized",
            render.overlay_optimized_calls,
        )
        .int("overlay_draw_calls_naive", render.overlay_naive_calls)
        .float("counter_index_overhead", render.index_overhead_ratio)
        .note_if(true, "paper claims <= 0.05");
    options.report(
        "Section VI — trace format and rendering optimizations",
        &Record::new("sec6", fields),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(args: &[&str]) -> Vec<String> {
        parse_args(args.iter().map(|a| a.to_string())).targets
    }

    #[test]
    fn a_mode_is_a_target_with_or_without_dashes() {
        for mode in [
            "stream",
            "ingest",
            "store",
            "serve",
            "chaos",
            "lint",
            "zoom-sweep",
        ] {
            let dashed = format!("--{mode}");
            assert_eq!(targets(&[&dashed]), targets(&[mode]));
            assert_eq!(targets(&[mode]), [mode], "a mode alone runs no figure");
            assert_eq!(
                targets(&["--scale", "test", "--json", &dashed, "sec6"]),
                [mode, "sec6"]
            );
        }
        assert_eq!(targets(&[]), ["all"]);
        assert_eq!(targets(&["--scale", "test", "--threads", "2"]), ["all"]);
        assert!(targets(&["--write-fixture", "x.trace"]).is_empty());
        let options = parse_args(["--serve".to_string()]);
        assert!(options.has("serve") && !wants(&options, "fig3"));
        let all = parse_args([]);
        assert!(wants(&all, "sec6") && !all.has("serve"));
    }
}
