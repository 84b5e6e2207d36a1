//! The acceptance gates of the `BENCH_*.json` records, as one table.
//!
//! Every gate is a row of [`GATES`]: the record kind, the gated field and the
//! [`Rule`] it must satisfy. `bench_check` evaluates every row of the
//! fresh record's kind ([`check`]), `reproduce` renders a gated field's note
//! from its row ([`acceptance`]), and the bench modules' unit tests evaluate
//! single rows on their test-scale records ([`Gate::evaluate`]) — a bound is a
//! literal in this file and nowhere else. `baselines/README.md` says, per row,
//! where the bound comes from and what regression it lets through.

use std::fmt;

use crate::record::{Fields, Record};

/// The predicate of one gate.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// The fresh value is at most the bound.
    AtMost(f64),
    /// The fresh value is at least the bound.
    AtLeast(f64),
    /// The fresh flag is set.
    IsSet,
    /// The fresh counter is zero.
    IsZero,
    /// The fresh value is at most this many times the baseline's.
    AtMostTimes(f64),
    /// The fresh value is at least this many times the baseline's.
    AtLeastTimes(f64),
    /// In every row of the record's array, the field is at most the ceiling
    /// the function derives from that row.
    AtMostPerRow(fn(&Fields) -> Result<f64, String>),
}
use Rule::*;

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtMost(x) => write!(f, "at most {x}"),
            AtLeast(x) => write!(f, "at least {x}"),
            IsSet => write!(f, "is set"),
            IsZero => write!(f, "is zero"),
            AtMostTimes(k) => write!(f, "at most {k} × baseline"),
            AtLeastTimes(k) => write!(f, "at least {k} × baseline"),
            AtMostPerRow(_) => write!(f, "at most its row's ceiling, in every row"),
        }
    }
}

/// One acceptance gate.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The record kind the gate applies to.
    pub kind: &'static str,
    /// The gated field (of the record, or of each row for a per-row rule).
    pub field: &'static str,
    /// The predicate.
    pub rule: Rule,
    /// `(text field, value)`: the gate is skipped on records where the field
    /// has that value.
    pub unless: Option<(&'static str, &'static str)>,
}

const fn gate(kind: &'static str, field: &'static str, rule: Rule) -> Gate {
    Gate {
        kind,
        field,
        rule,
        unless: None,
    }
}

/// The per-cell rule: the pyramid engine may be at most 10 % slower than the scan
/// it falls through to, plus 100 µs — deep-zoom frames run in microseconds, where
/// one timer quantum would otherwise dominate the ratio.
fn cell_ceiling(frame: &Fields) -> Result<f64, String> {
    Ok(frame.number("scan_seconds")? * 1.10 + 100e-6)
}

/// A record measured on the scalar tier (`AFTERMATH_NO_SIMD=1`, hardware
/// without AVX2) times the scalar kernel against itself: no speedup to gate.
const fn unless_scalar(gate: Gate) -> Gate {
    let unless = Some(("simd_level", "scalar"));
    Gate { unless, ..gate }
}

/// Every gate `bench_check` enforces, each with what it protects;
/// `baselines/README.md` has the long form: where the bound comes from and what
/// regression it lets through.
pub const GATES: &[Gate] = &[
    // The one engine is at no (zoom, mode) cell slower than the scan it falls
    // through to.
    gate("zoom_sweep", "pyramid_seconds", AtMostPerRow(cell_ceiling)),
    // A wide SIMD tier pays for itself on the state-gating kernel.
    unless_scalar(gate("zoom_sweep", "state_kernel_speedup", AtLeast(2.0))),
    // Prewarm + detect throughput: wall-clock, hence half the baseline.
    gate("ingest", "analyze_events_per_sec", AtLeastTimes(0.5)),
    // Resident column density: deterministic for a fixed trace.
    gate("ingest", "bytes_per_event", AtMostTimes(1.1)),
    // On-disk encoding density: deterministic for a fixed trace.
    gate("store", "compressed_bytes_per_event", AtMostTimes(1.1)),
    // The store file undercuts the resident columns.
    gate("store", "disk_vs_soa_ratio", AtMost(0.6)),
    // Lazy open to the first frame: wall-clock, hence loose.
    gate("store", "open_first_frame_seconds", AtMostTimes(4.0)),
    // Eviction never changes a frame.
    gate("store", "capped_identical", IsSet),
    // The capped sweep's steady-state residency stays within its budget.
    gate("store", "capped_resident_ratio", AtMost(0.5)),
    // Concurrency, shared caches and the wire never change an answer.
    gate("serve", "responses_identical", IsSet),
    // One client's computed frame is every other client's cache hit.
    gate("serve", "cache_hit_rate", AtLeastTimes(0.9)),
    // N sessions over one trace cost bookkeeping, not data.
    gate("serve", "sessions_per_gb", AtLeastTimes(0.9)),
    // Tail latency under concurrent load: wall-clock, hence loose.
    gate("serve", "p95_frame_seconds", AtMostTimes(4.0)),
    // The footprint of N open sessions over the footprint of one.
    gate("serve", "n_vs_one_ratio", AtMost(1.5)),
    // Every failure path is a typed error, never an unwind.
    gate("chaos", "panics", IsZero),
    // A fault may cost an answer, never change one.
    gate("chaos", "successful_identical", IsSet),
    // Inside the surviving span a salvaged store answers exactly.
    gate("chaos", "salvage_identical", IsSet),
    // The seeded damage plan costs some rows, not most.
    gate("chaos", "salvage_row_coverage", AtLeast(0.5)),
    // Severed-connection recovery: wall-clock, hence loose.
    gate("chaos", "recovery_p95_seconds", AtMostTimes(4.0)),
];

/// The outcome of a gate, ordered by the exit code `bench_check` maps it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// The gate holds (exit code 0).
    Pass,
    /// The gate is violated (exit code 1).
    Regression,
    /// The gate cannot be evaluated: a field is missing or of the wrong type,
    /// or a relative rule has no baseline (exit code 2).
    Incomparable,
}

impl Gate {
    /// Whether `subject` — the record's fields, or one row — satisfies the
    /// rule, and the numbers that say so.
    fn holds(&self, subject: &Fields, baseline: Option<&Record>) -> Result<(bool, String), String> {
        let times_baseline = |k: f64| -> Result<f64, String> {
            let baseline = baseline.ok_or("the rule needs a baseline record")?;
            let base = baseline.fields.number(self.field)?;
            if base <= 0.0 {
                return Err(format!("baseline {} is {base}", self.field));
            }
            Ok(k * base)
        };
        let (at_most, bound) = match self.rule {
            IsSet => {
                let set = subject.flag_value(self.field)?;
                return Ok((set, set.to_string()));
            }
            IsZero => {
                let count = subject.int_value(self.field)?;
                return Ok((count == 0, count.to_string()));
            }
            AtMost(x) => (true, x),
            AtLeast(x) => (false, x),
            AtMostTimes(k) => (true, times_baseline(k)?),
            AtLeastTimes(k) => (false, times_baseline(k)?),
            AtMostPerRow(ceiling) => (true, ceiling(subject)?),
        };
        let value = subject.number(self.field)?;
        let holds = if at_most {
            value <= bound
        } else {
            value >= bound
        };
        Ok((holds, format!("{value:.6} against {bound:.6}")))
    }

    /// `Ok(Ok(what held))`, `Ok(Err(what was violated))`, or `Err(why the
    /// gate cannot be evaluated)`.
    fn outcome(
        &self,
        fresh: &Record,
        baseline: Option<&Record>,
    ) -> Result<Result<String, String>, String> {
        if let Some((field, value)) = self.unless {
            if fresh.fields.text_value(field)? == value {
                return Ok(Ok(format!("skipped ({field} is {value})")));
            }
        }
        let AtMostPerRow(_) = self.rule else {
            let (holds, line) = self.holds(&fresh.fields, baseline)?;
            return Ok(if holds { Ok(line) } else { Err(line) });
        };
        let rows = fresh.rows.as_ref().map_or(&[][..], |array| &array.rows);
        if rows.is_empty() {
            return Err("the record carries no rows".into());
        }
        let mut violations = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let (holds, line) = self.holds(row, baseline)?;
            if !holds {
                let cell: Vec<&str> = row.0.iter().take(2).map(|f| f.value()).collect();
                violations.push(format!("row {i} ({}): {line}", cell.join(", ")));
            }
        }
        Ok(if violations.is_empty() {
            Ok(format!("{} rows within their ceilings", rows.len()))
        } else {
            Err(violations.join("; "))
        })
    }

    /// Evaluates the gate, returning the verdict and the line `bench_check`
    /// prints for it.
    pub fn evaluate(&self, fresh: &Record, baseline: Option<&Record>) -> (Verdict, String) {
        let head = format!("{}.{} {}", self.kind, self.field, self.rule);
        match self.outcome(fresh, baseline) {
            Ok(Ok(held)) => (Verdict::Pass, format!("{head}: {held}")),
            Ok(Err(violated)) => (Verdict::Regression, format!("FAIL — {head}: {violated}")),
            Err(e) => (
                Verdict::Incomparable,
                format!("cannot evaluate {head}: {e}"),
            ),
        }
    }
}

/// The rows of [`GATES`] that apply to records of `kind`.
pub fn gates_of(kind: &str) -> impl Iterator<Item = &'static Gate> + '_ {
    GATES.iter().filter(move |gate| gate.kind == kind)
}

/// The printed acceptance of a gated field (`acceptance: at most 0.6`), `None`
/// for a field no row names.
pub fn acceptance(kind: &str, field: &str) -> Option<String> {
    let gate = gates_of(kind).find(|gate| gate.field == field)?;
    Some(format!("acceptance: {}", gate.rule))
}

/// Evaluates **every** row of the fresh record's kind — a failing or
/// incomparable row never short-circuits the rest, so one run reports every
/// violation — printing one line per row, and returns the worst verdict.
/// A kind without rows has no gating rules and is incomparable.
pub fn check(fresh: &Record, baseline: Option<&Record>) -> Verdict {
    let mut worst = None;
    for gate in gates_of(&fresh.bench) {
        let (verdict, line) = gate.evaluate(fresh, baseline);
        match verdict {
            Verdict::Pass => println!("bench_check: {line}"),
            _ => eprintln!("bench_check: {line}"),
        }
        worst = worst.max(Some(verdict));
    }
    worst.unwrap_or_else(|| {
        eprintln!(
            "bench_check: unknown record kind '{}' — no gating rules",
            fresh.bench
        );
        Verdict::Incomparable
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Scale;
    use aftermath_core::Threads;

    /// The test-scale record of every gated kind.
    fn test_scale_records() -> Vec<Record> {
        let threads = Threads::single();
        let zoom_trace = crate::zoom::zoom_trace(Scale::Test);
        vec![
            crate::zoom::run_zoom_sweep(&zoom_trace, 96, threads, false).record(),
            crate::ingest::run_ingest_bench(Scale::Test, threads).record(),
            crate::store::run_store_bench(Scale::Test, threads).record(),
            crate::serve::run_serve_bench(Scale::Test, threads).record(),
            crate::chaos::run_chaos_bench(Scale::Test, threads).record(),
        ]
    }

    /// Gives field `name` the value of the one field of `value`.
    fn set(fields: &mut Fields, name: &str, value: Fields) {
        let field = fields.0.iter_mut().find(|f| f.name == name);
        field.expect("gated field is present").token = value.0[0].token.clone();
    }

    /// `record` with every gated field moved exactly onto its bound (relative
    /// rules: against a baseline of 1.0), so each gate passes with no slack.
    fn on_the_bounds(record: &Record) -> (Record, Record) {
        let (mut fresh, mut baseline) = (record.clone(), record.clone());
        let float = |x: f64| Fields::new().float("", x);
        for gate in gates_of(&record.bench) {
            let on_bound = match gate.rule {
                AtMost(x) | AtLeast(x) => float(x),
                AtMostTimes(k) | AtLeastTimes(k) => {
                    set(&mut baseline.fields, gate.field, float(1.0));
                    float(k)
                }
                IsSet => Fields::new().flag("", true),
                IsZero => Fields::new().int("", 0u64),
                AtMostPerRow(ceiling) => {
                    for row in &mut fresh.rows.as_mut().expect("kind has rows").rows {
                        // Rounded down to the record's six decimals.
                        let at = ceiling(row).expect("row carries the ceiling's inputs");
                        set(row, gate.field, float((at * 1e6).floor() / 1e6));
                    }
                    continue;
                }
            };
            set(&mut fresh.fields, gate.field, on_bound);
            if let Some((field, value)) = gate.unless {
                let other = Fields::new().text("", &format!("not {value}"));
                set(&mut fresh.fields, field, other);
            }
        }
        (fresh, baseline)
    }

    /// The fields holding the gated field of `fresh` (its first row for a
    /// per-row rule).
    fn gated<'a>(fresh: &'a mut Record, gate: &Gate) -> &'a mut Fields {
        match gate.rule {
            AtMostPerRow(_) => &mut fresh.rows.as_mut().unwrap().rows[0],
            _ => &mut fresh.fields,
        }
    }

    #[test]
    fn every_gate_exists_passes_on_its_bound_and_bites_just_past_it() {
        let records = test_scale_records();
        assert_eq!(GATES.len(), 19);
        for gate in GATES {
            let record = records
                .iter()
                .find(|r| r.bench == gate.kind)
                .unwrap_or_else(|| panic!("no record of kind {}", gate.kind));
            // (b) The test-scale record carries the field with the type the
            // rule needs: evaluating the row is never "incomparable".
            let (verdict, line) = gate.evaluate(record, Some(record));
            assert_ne!(verdict, Verdict::Incomparable, "{line}");

            // (a) On the bound the gate passes ...
            let (fresh, baseline) = on_the_bounds(record);
            let (verdict, line) = gate.evaluate(&fresh, Some(&baseline));
            assert_eq!(verdict, Verdict::Pass, "{line}");
            assert_eq!(check(&fresh, Some(&baseline)), Verdict::Pass);

            // ... one per cent past it (flag cleared, counter at 1) it fails ...
            let mut past = fresh.clone();
            let fields = gated(&mut past, gate);
            let at = fields.number(gate.field).unwrap_or(0.0);
            let moved = match gate.rule {
                AtMost(_) | AtMostTimes(_) | AtMostPerRow(_) => Fields::new().float("", at * 1.01),
                AtLeast(_) | AtLeastTimes(_) => Fields::new().float("", at / 1.01),
                IsSet => Fields::new().flag("", false),
                IsZero => Fields::new().int("", 1u64),
            };
            set(fields, gate.field, moved);
            let (verdict, line) = gate.evaluate(&past, Some(&baseline));
            assert_eq!(verdict, Verdict::Regression, "{line}");
            assert_eq!(check(&past, Some(&baseline)), Verdict::Regression);

            // ... and without the field it cannot be evaluated.
            let mut without = fresh.clone();
            gated(&mut without, gate).0.retain(|f| f.name != gate.field);
            let (verdict, line) = gate.evaluate(&without, Some(&baseline));
            assert_eq!(verdict, Verdict::Incomparable, "{line}");
            assert_eq!(check(&without, Some(&baseline)), Verdict::Incomparable);

            // A relative rule without a baseline is incomparable, any other
            // rule does not read one.
            let expected = match gate.rule {
                AtMostTimes(_) | AtLeastTimes(_) => Verdict::Incomparable,
                _ => Verdict::Pass,
            };
            assert_eq!(gate.evaluate(&fresh, None).0, expected);

            // A skipped gate passes whatever its field holds.
            if let Some((field, value)) = gate.unless {
                set(&mut past.fields, field, Fields::new().text("", value));
                assert_eq!(gate.evaluate(&past, None).0, Verdict::Pass);
            }
        }
    }

    #[test]
    fn notes_render_the_row_and_unknown_kinds_are_incomparable() {
        assert_eq!(
            acceptance("store", "disk_vs_soa_ratio").unwrap(),
            format!("acceptance: {}", gates_of("store").nth(1).unwrap().rule)
        );
        let unknown = Record::new("sec6", Fields::new());
        assert_eq!(check(&unknown, None), Verdict::Incomparable);
        assert_eq!(acceptance("sec6", "bytes_per_event"), None);
    }
}
