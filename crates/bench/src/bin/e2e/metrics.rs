//! The declared metrics (names and units exactly as in `BENCHMARK.json`),
//! percentile helpers and the result line.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the reference median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: the result line of every untraced run of every
/// workload, each with the bound a later change is held to.
pub const END_TO_END: &[Metric] = &[
    bounded("setup_s", "s", Better::Lower, 0.25),
    bounded("store_bytes_per_event", "B/event", Better::Lower, 0.02),
];

/// The rest of what a user of the program sees. The interaction timings and
/// the peak resident set size are on this box not steady enough to be held
/// to a bound of a tenth (see the README), and `failed_share` must stay 0 and
/// so cannot be held to a share of its median: they are per-layer metrics,
/// without a bound. Every untraced run prints them all the same.
pub const DEMOTED: &[Metric] = &[
    layer("frame_p50_ms", "ms", Better::Lower),
    layer("frame_p95_ms", "ms", Better::Lower),
    layer("query_p50_ms", "ms", Better::Lower),
    layer("report_p50_ms", "ms", Better::Lower),
    layer("interactions_per_s", "1/s", Better::Higher),
    layer("failed_share", "share", Better::Lower),
    layer("peak_rss_mb", "MB", Better::Lower),
];

/// The layer probes and counters of a traced run. The direction says which
/// way is better where the question has an answer;
/// `core.timeline.engine_scan_share` merely describes the adaptive engine's
/// choices, and `bench.tracing_overhead_share` is negative when tracing
/// slows the run.
pub const LAYERS: &[Metric] = &[
    layer("trace.builder.finish_s", "s", Better::Lower),
    layer("trace.store.write_s", "s", Better::Lower),
    layer("trace.store.write_mb_per_s", "MB/s", Better::Higher),
    layer("trace.store.file_mb", "MB", Better::Lower),
    layer("trace.store.open_ms", "ms", Better::Lower),
    layer("trace.store.tier_reads_per_op", "1/op", Better::Lower),
    layer("trace.store.tier_read_mb_per_op", "MB/op", Better::Lower),
    layer("trace.store.tier_read_ms_per_op", "ms/op", Better::Lower),
    layer("trace.store.materialise_ms", "ms", Better::Lower),
    layer("trace.store.materialise_mb_per_s", "MB/s", Better::Higher),
    layer("trace.store.rematerialised_ratio", "ratio", Better::Lower),
    layer("trace.store.evict_ms", "ms", Better::Lower),
    layer("trace.store.resident_mb", "MB", Better::Lower),
    layer("trace.crc.mb_per_s", "MB/s", Better::Higher),
    layer("core.session.prewarm_s", "s", Better::Lower),
    layer("core.pyramid.build_ms", "ms", Better::Lower),
    layer("core.pyramid.mb", "MB", Better::Lower),
    layer("core.index.build_ms", "ms", Better::Lower),
    layer("core.timeline.scan_ms", "ms", Better::Lower),
    layer("core.timeline.pyramid_ms", "ms", Better::Lower),
    layer("core.timeline.adaptive_ms", "ms", Better::Lower),
    layer("core.timeline.adaptive_regret", "ratio", Better::Lower),
    layer("core.timeline.engine_scan_share", "share", Better::Lower),
    layer(
        "core.kernels.state_mlanes_per_s",
        "Mlanes/s",
        Better::Higher,
    ),
    layer(
        "core.kernels.minmax_mvalues_per_s",
        "Mvalues/s",
        Better::Higher,
    ),
    layer("core.session.cache_hit_rate", "share", Better::Higher),
    layer("core.session.cache_misses", "count", Better::Lower),
    layer("core.session.query_us", "us", Better::Lower),
    layer("core.anomaly.detect_ms", "ms", Better::Lower),
    layer("core.anomaly.idle_ms", "ms", Better::Lower),
    layer("core.anomaly.numa_ms", "ms", Better::Lower),
    layer("core.anomaly.counter_ms", "ms", Better::Lower),
    layer("core.anomaly.duration_ms", "ms", Better::Lower),
    layer("core.store_session.frame_ms", "ms", Better::Lower),
    layer("render.frame_ms", "ms", Better::Lower),
    layer("render.mpixels_per_s", "Mpx/s", Better::Higher),
    layer("serve.protocol.encode_us", "us", Better::Lower),
    layer("serve.protocol.decode_us", "us", Better::Lower),
    layer("serve.protocol.frame_kb", "KB", Better::Lower),
    layer("serve.manager.handle_us", "us", Better::Lower),
    layer("serve.transport.rtt_us", "us", Better::Lower),
    layer("serve.transport.overhead_share", "share", Better::Lower),
    layer(
        "serve.manager.store_concurrency_penalty",
        "ratio",
        Better::Lower,
    ),
    layer("exec.parallel_map_overhead_us", "us", Better::Lower),
    layer("exec.prewarm_speedup", "ratio", Better::Higher),
    layer("bench.tracing_overhead_share", "share", Better::Higher),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them: the
/// result line of every traced run.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> + Clone {
    DEMOTED.iter().chain(LAYERS)
}

/// The declared unit of a metric (empty for an undeclared name).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Measured values by metric name, in insertion order.
pub type Values = Vec<(&'static str, f64)>;

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Interactions executed in the timed phase.
    pub attempted: u64,
    /// Interactions that errored, timed out or failed verification.
    pub failed: u64,
    /// Everything the run measured, in the order it prints.
    pub metrics: Values,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and, of what the run measured, the `declared` metrics.
    pub fn result_line<'m>(&self, declared: impl Iterator<Item = &'m Metric>) -> String {
        let metrics: Vec<String> = declared
            .filter_map(|metric| {
                let (name, unit) = (metric.name, metric.unit);
                let value = self.value(name)?;
                Some(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The metric lines [`Outcome::print`] wrote for `workload`, and the
    /// counts of the result line, read back from a run's standard output.
    pub fn parse(stdout: &str, workload: &str) -> Option<Outcome> {
        let result = stdout.lines().last()?;
        let count = |key: &str| -> Option<u64> {
            let rest = &result[result.find(key)? + key.len()..];
            rest[..rest.find([',', '}'])?].trim().parse().ok()
        };
        let metrics = stdout
            .lines()
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                if fields.next()? != workload {
                    return None;
                }
                let name = fields.next()?;
                let metric = END_TO_END
                    .iter()
                    .chain(per_layer())
                    .find(|m| m.name == name)?;
                Some((metric.name, fields.next()?.parse().ok()?))
            })
            .collect();
        Some(Outcome {
            attempted: count("\"attempted\":")?,
            failed: count("\"failed\":")?,
            metrics,
        })
    }

    /// One line per metric — workload, name, value, unit — then the result
    /// line with the `declared` metrics.
    pub fn print<'m>(&self, workload: &str, declared: impl Iterator<Item = &'m Metric>) {
        for (name, value) in &self.metrics {
            println!("{workload:<16} {name:<44} {value:>16.6} {}", unit_of(name));
        }
        println!("{}", self.result_line(declared));
    }
}

/// One interaction's latency, and when in its phase it completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub at_s: f64,
    pub ms: f64,
}

/// Rounds a timed phase is cut into: equal counts of completions, in the
/// order they completed. A timing is the median of the rounds' values, so a
/// burst of interference that spoils one or two rounds does not move it, and
/// it still estimates what a statistic pooled over the phase estimates.
const ROUNDS: usize = 5;
/// Samples every round needs; with fewer the phase is taken as one round.
const MIN_ROUND_SAMPLES: usize = 5;

/// `samples` in completion order, cut into [`ROUNDS`] equal rounds (one
/// round when that would leave a round under [`MIN_ROUND_SAMPLES`]).
fn rounds(samples: &[Sample]) -> Vec<Vec<Sample>> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let n = sorted.len();
    let count = if n >= ROUNDS * MIN_ROUND_SAMPLES {
        ROUNDS
    } else {
        1
    };
    (0..count)
        .map(|i| sorted[i * n / count..(i + 1) * n / count].to_vec())
        .collect()
}

/// The `q`-quantile of the latencies in `samples`: the median over the
/// rounds of each round's quantile.
pub fn latency_quantile(samples: &[Sample], q: f64) -> f64 {
    let per_round: Vec<f64> = rounds(samples)
        .iter()
        .map(|round| {
            let ms: Vec<f64> = round.iter().map(|s| s.ms).collect();
            quantile(&ms, q)
        })
        .collect();
    median(&per_round)
}

/// Completions per second: the median over the rounds of each round's
/// completions over the time from the previous round's last completion to
/// its own (a single round: over the whole phase of `wall_s` seconds).
pub fn completion_rate(samples: &[Sample], wall_s: f64) -> f64 {
    let rounds = rounds(samples);
    if rounds.len() == 1 {
        return samples.len() as f64 / wall_s;
    }
    let mut previous_end = 0.0;
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|round| {
            let end = round.last().expect("no round is empty").at_s;
            let rate = round.len() as f64 / (end - previous_end);
            previous_end = end;
            rate
        })
        .collect();
    median(&per_round)
}

/// Nearest-rank quantile of `samples` (0 for an empty slice).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_slow_round_does_not_move_a_timing() {
        // 100 completions per second at 1 ms; the fifth of them around the
        // middle runs at 3 ms and a third of the speed.
        let mut at_s = 0.0;
        let samples: Vec<Sample> = (0..1000)
            .map(|i| {
                let slow = (400..600).contains(&i);
                at_s += if slow { 0.03 } else { 0.01 };
                Sample {
                    at_s,
                    ms: if slow { 3.0 } else { 1.0 },
                }
            })
            .collect();
        assert_eq!(latency_quantile(&samples, 0.95), 1.0);
        assert!((completion_rate(&samples, at_s) - 100.0).abs() < 1e-6);
        // Too few samples for five rounds: one round, the whole phase.
        let sparse: Vec<Sample> = samples.iter().step_by(50).copied().collect();
        assert_eq!(rounds(&sparse).len(), 1);
        assert_eq!(latency_quantile(&sparse, 0.5), 1.0);
        assert_eq!(completion_rate(&sparse, 10.0), 2.0);
        assert_eq!(latency_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 7,
            failed: 0,
            metrics: vec![("setup_s", 1.25), ("frame_p50_ms", 0.5)],
        };
        let line = outcome.result_line(END_TO_END.iter());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let printed = format!(
            "# a comment\nnavigate setup_s 1.25 s\nnavigate frame_p50_ms 0.5 ms\n\
             cold_open setup_s 9 s\n{line}"
        );
        assert_eq!(Outcome::parse(&printed, "navigate"), Some(outcome));
    }
}
