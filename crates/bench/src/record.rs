//! Machine-readable benchmark records: the one value every `BENCH_*.json` file
//! is written from, printed from and read back into.
//!
//! A [`Record`] is the shared envelope (`schema_version`, `bench`, `git`), an
//! ordered list of typed fields ([`Fields`]: integer, float, flag or text, each
//! with an optional note) and at most one named array of rows (zoom `frames`,
//! stream `epochs`). Each bench builds one in its `record()` method, one line
//! per field, so a field name is written exactly once; [`Record::to_json`] is
//! what `reproduce --json` writes, [`Record::print`] is the `metric,value`
//! table `reproduce` prints, and [`Record::parse`] is what `bench_check` reads.
//!
//! The workspace is offline and carries no JSON dependency: the reader is a
//! scraper for exactly the layout [`Record::to_json`] emits (one top-level field
//! per line, one row object per line), not a general JSON parser.

use std::process::Command;
use std::time::Instant;

/// Version of the `BENCH_*.json` record schema. Bumped whenever a record's
/// fields change meaning or rendering; `bench_check` refuses records of any
/// other version, so a committed baseline is re-recorded with the bump.
pub const SCHEMA_VERSION: u64 = 5;

/// `git describe --always --dirty --tags` of the working tree, or `"unknown"` when
/// git or the repository is unavailable.
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One named value with an optional human-readable note.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The field name — the contract README tables, CI and the gates key on.
    pub name: String,
    /// The value as its JSON token; the token's form is its type: digits for
    /// an integer, six decimals for a float, `true` / `false` for a flag,
    /// quotes around text.
    pub token: String,
    /// Printed in parentheses after the value; never serialised.
    pub note: Option<String>,
}

impl Field {
    fn json(&self) -> String {
        format!("\"{}\": {}", self.name, self.token)
    }

    /// The value as printed: the token, text without its quotes.
    pub fn value(&self) -> &str {
        self.token.trim_matches('"')
    }
}

/// An ordered list of [`Field`]s: the top level of a record, or one row of its
/// array. Built by chaining the typed pushers, read through the typed
/// accessors — a flag that is `false` reads back as a flag that is not set,
/// never as a missing or zero number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fields(pub Vec<Field>);

impl Fields {
    /// An empty list.
    pub fn new() -> Self {
        Fields::default()
    }

    fn push(mut self, name: &str, token: String) -> Self {
        let (name, note) = (name.to_string(), None);
        self.0.push(Field { name, token, note });
        self
    }

    /// Appends an integer field (a `usize` or `u64` count).
    pub fn int(self, name: &str, value: impl TryInto<u64>) -> Self {
        let value = value.try_into().ok().expect("a count fits 64 bits");
        self.push(name, value.to_string())
    }

    /// Appends a float field (seconds, ratios, rates), at six decimals.
    pub fn float(self, name: &str, value: f64) -> Self {
        self.push(name, format!("{value:.6}"))
    }

    /// Appends a flag field.
    pub fn flag(self, name: &str, value: bool) -> Self {
        self.push(name, value.to_string())
    }

    /// Appends a text field (SIMD tier, timeline mode, input path). Quotes and
    /// backslashes are replaced: the reader handles no escapes.
    pub fn text(self, name: &str, value: &str) -> Self {
        self.push(name, format!("\"{}\"", value.replace(['"', '\\'], "'")))
    }

    /// Attaches `note` to the field appended last, when `show` holds — the
    /// marker phrases `ci/smoke.sh` greps print only when their flag is set.
    pub fn note_if(mut self, show: bool, note: &str) -> Self {
        if let (true, Some(last)) = (show, self.0.last_mut()) {
            last.note = Some(note.to_string());
        }
        self
    }

    /// The token of field `name`.
    fn token(&self, name: &str) -> Result<&str, String> {
        let field = self.0.iter().find(|f| f.name == name);
        Ok(&field.ok_or_else(|| format!("no {name} field"))?.token)
    }

    /// Field `name`, read as `what` (a `T`).
    fn read<T: std::str::FromStr>(&self, name: &str, what: &str) -> Result<T, String> {
        let token = self.token(name)?;
        let wrong = |_| format!("{name} is {token}, not {what}");
        token.parse().map_err(wrong)
    }

    /// A finite integer or float field as `f64`.
    pub fn number(&self, name: &str) -> Result<f64, String> {
        let value: f64 = self.read(name, "a number")?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("{name} is {value}, not a finite number"))
        }
    }

    /// A flag field.
    pub fn flag_value(&self, name: &str) -> Result<bool, String> {
        self.read(name, "a flag")
    }

    /// An integer field.
    pub fn int_value(&self, name: &str) -> Result<u64, String> {
        self.read(name, "an integer")
    }

    /// A text field.
    pub fn text_value(&self, name: &str) -> Result<&str, String> {
        let token = self.token(name)?;
        let text = token.strip_prefix('"').and_then(|t| t.strip_suffix('"'));
        text.ok_or_else(|| format!("{name} is {token}, not text"))
    }

    /// Reads `"key": value` pairs separated by `, ` (one top-level line, or the
    /// inside of one row object). A text value never holds a quote, so `, "`
    /// only ever starts the next pair.
    fn parse(pairs: &str) -> Result<Fields, String> {
        let mut fields = Fields::new();
        for pair in pairs.split(", \"") {
            let (name, token) = pair
                .trim_start_matches('"')
                .split_once("\": ")
                .ok_or_else(|| format!("expected '\"key\": value', found '{pair}'"))?;
            fields = fields.push(name, token.to_string());
        }
        Ok(fields)
    }
}

/// The named array of a record: zoom `frames`, stream `epochs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// The array's field name.
    pub name: String,
    /// The rows, each carrying the same field names in the same order.
    pub rows: Vec<Fields>,
    /// Printed as a `# note` line after the CSV block; never serialised.
    pub note: Option<String>,
}

/// One benchmark record (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The record kind (`sec6`, `zoom_sweep`, `ingest`, ...): selects the file
    /// name `BENCH_<kind>.json` and the gate rows of [`crate::gates::GATES`].
    pub bench: String,
    /// [`git_describe`] of the tree that produced the record, so a stored
    /// baseline names the commit it was measured at.
    pub git: String,
    /// The top-level fields, in writing order.
    pub fields: Fields,
    /// The array of rows, if the kind has one.
    pub rows: Option<Rows>,
}

impl Record {
    /// A record of kind `bench` measured on the current tree.
    pub fn new(bench: &str, fields: Fields) -> Self {
        Record {
            bench: bench.to_string(),
            git: git_describe(),
            fields,
            rows: None,
        }
    }

    /// Adds the record's array of rows, with an optional note for the printed
    /// table.
    pub fn with_rows(mut self, name: &str, rows: Vec<Fields>, note: Option<String>) -> Self {
        self.rows = Some(Rows {
            name: name.to_string(),
            rows,
            note,
        });
        self
    }

    /// Serialises the record (what `reproduce --json` writes).
    pub fn to_json(&self) -> String {
        let mut lines = vec![
            format!("\"schema_version\": {SCHEMA_VERSION}"),
            format!("\"bench\": \"{}\"", self.bench),
            format!("\"git\": \"{}\"", self.git),
        ];
        lines.extend(self.fields.0.iter().map(Field::json));
        if let Some(array) = &self.rows {
            let rows: Vec<String> = array
                .rows
                .iter()
                .map(|row| {
                    let pairs: Vec<String> = row.0.iter().map(Field::json).collect();
                    format!("    {{{}}}", pairs.join(", "))
                })
                .collect();
            lines.push(format!("\"{}\": [\n{}\n  ]", array.name, rows.join(",\n")));
        }
        format!("{{\n  {}\n}}\n", lines.join(",\n  "))
    }

    /// Prints the record as the `metric,value[ (note)]` table under `title`,
    /// the rows as a CSV block after it. A gated field's note ends with its
    /// acceptance, rendered from its row of [`crate::gates::GATES`] — what is
    /// printed is what `bench_check` enforces.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\nmetric,value");
        for field in &self.fields.0 {
            let acceptance = crate::gates::acceptance(&self.bench, &field.name);
            let notes: Vec<String> = field.note.iter().cloned().chain(acceptance).collect();
            if notes.is_empty() {
                println!("{},{}", field.name, field.value());
            } else {
                println!("{},{} ({})", field.name, field.value(), notes.join("; "));
            }
        }
        let Some(array) = &self.rows else { return };
        if let Some(first) = array.rows.first() {
            let names: Vec<&str> = first.0.iter().map(|f| f.name.as_str()).collect();
            println!("\n{}", names.join(","));
        }
        for row in &array.rows {
            let values: Vec<&str> = row.0.iter().map(Field::value).collect();
            println!("{}", values.join(","));
        }
        if let Some(note) = &array.note {
            println!("# {note}");
        }
    }

    /// Reads back what [`Record::to_json`] wrote (notes excepted: they are not
    /// serialised). A record of another schema version, or without the
    /// envelope, is an error — the caller reports it as incomparable.
    pub fn parse(json: &str) -> Result<Record, String> {
        let mut fields = Fields::new();
        let mut rows: Option<Rows> = None;
        for line in json.lines().map(|line| line.trim().trim_end_matches(',')) {
            if let Some(row) = line.strip_prefix('{').filter(|row| !row.is_empty()) {
                let array = rows.as_mut().ok_or("row object outside an array")?;
                array.rows.push(Fields::parse(row.trim_end_matches('}'))?);
            } else if let Some(name) = line.strip_suffix("\": [") {
                let name = name.trim_start_matches('"').to_string();
                rows = Some(Rows {
                    name,
                    rows: Vec::new(),
                    note: None,
                });
            } else if !matches!(line, "" | "{" | "}" | "]") {
                fields.0.extend(Fields::parse(line)?.0);
            }
        }
        let envelope = Fields(fields.0.drain(..fields.0.len().min(3)).collect());
        match envelope.int_value("schema_version") {
            Ok(SCHEMA_VERSION) => {}
            Ok(other) => {
                return Err(format!(
                "schema_version {other}, this binary reads {SCHEMA_VERSION} — incomparable record"
            ))
            }
            Err(e) => return Err(format!("{e} — incomparable record")),
        }
        Ok(Record {
            bench: envelope.text_value("bench")?.to_string(),
            git: envelope.text_value("git")?.to_string(),
            fields,
            rows,
        })
    }
}

/// Wall-clock seconds of `samples` consecutive runs of `f`. Callers reduce with
/// [`quantile`]: `0.0` for the fastest run (what an engine *can* do, robust to
/// scheduler spikes on shared runners), `0.5` for the median.
pub fn sample_seconds(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Quantile `q` (in `[0, 1]`) of a sample set by nearest-rank on a sorted copy;
/// `0.0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: bool) -> Record {
        let record = Record::new(
            "zoom_sweep",
            Fields::new()
                .int("num_events", 16_000_000)
                .float("zoomed_out_speedup", 6.125)
                .flag("responses_identical", false)
                .text("simd_level", "avx2")
                // A key that already appeared as a value ("zoom_sweep" is the
                // record kind) and a text value holding a comma.
                .float("zoom_sweep", 3.5)
                .text("source", "a,b.trace"),
        );
        if !rows {
            return record;
        }
        record.with_rows(
            "frames",
            vec![
                Fields::new().int("zoom_factor", 1).text("mode", "state"),
                Fields::new().int("zoom_factor", 4).text("mode", "num,a"),
            ],
            None,
        )
    }

    #[test]
    fn scrapes_numbers_and_strings() {
        let read = Record::parse(&sample(true).to_json()).unwrap();
        assert_eq!(read.bench, "zoom_sweep");
        assert_eq!(read.fields.number("zoomed_out_speedup"), Ok(6.125));
        assert_eq!(read.fields.number("num_events"), Ok(16e6));
        assert_eq!(read.fields.int_value("num_events"), Ok(16_000_000));
        assert_eq!(read.fields.text_value("simd_level"), Ok("avx2"));
        assert!(read.fields.number("no_such_key").is_err());
        assert!(
            read.fields.number("simd_level").is_err(),
            "strings are not numbers"
        );
        // A cleared flag is a legible value, not a missing or nonsensical one.
        assert_eq!(read.fields.flag_value("responses_identical"), Ok(false));
        assert!(read.fields.number("responses_identical").is_err());
    }

    #[test]
    fn round_trip_is_the_identity() {
        for record in [sample(false), sample(true)] {
            let json = record.to_json();
            let read = Record::parse(&json).unwrap();
            assert_eq!(read, record);
            assert_eq!(read.to_json(), json);
            // "zoom_sweep" appears as a value before it appears as a key.
            assert_eq!(read.fields.number("zoom_sweep"), Ok(3.5));
        }
        // Notes and the rows note are printed, never serialised.
        let noted = Record::new("x", Fields::new().flag("ok", true).note_if(true, "fine"));
        assert_eq!(noted.fields.0[0].note.as_deref(), Some("fine"));
        assert_eq!(
            Record::parse(&noted.to_json()).unwrap().fields.0[0].note,
            None
        );
    }

    #[test]
    fn preamble_carries_schema_and_bench_name() {
        let json = Record::new("stream_sec6", Fields::new()).to_json();
        assert!(json.starts_with(&format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"bench\": \"stream_sec6\",\n  \"git\": \""
        )));
        let read = Record::parse(&json).unwrap();
        assert_eq!(
            (read.bench.as_str(), read.git),
            ("stream_sec6", git_describe())
        );
        // Another schema version, or no envelope at all, is incomparable.
        let old = json.replace(&format!(": {SCHEMA_VERSION},"), ": 4,");
        assert!(Record::parse(&old).unwrap_err().contains("incomparable"));
        assert!(Record::parse("{\n  \"num_events\": 3\n}\n").is_err());
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(sample_seconds(3, || ()).len(), 3);
    }
}
