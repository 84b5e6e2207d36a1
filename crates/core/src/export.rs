//! CSV export of per-task records and time series (paper Sections IV and V).
//!
//! Aftermath exports filtered performance data to files for processing with external
//! tools (the paper uses SciPy). The exporters here honour the same [`TaskFilter`]
//! mechanism as every other analysis, so outliers or auxiliary task types can be
//! excluded before the data leaves the tool.

use std::io::Write;

use aftermath_trace::CounterId;

use crate::error::AnalysisError;
use crate::filter::TaskFilter;
use crate::series::TimeSeries;
use crate::session::AnalysisSession;

/// Writes one CSV row per task accepted by `filter`.
///
/// Columns: `task,type,cpu,creation,start,end,duration`, followed by one column per
/// requested counter holding the counter's increase during the task (empty when the
/// counter could not be attributed).
///
/// # Errors
///
/// Returns [`AnalysisError::UnknownCounter`] for counters not present in the trace and
/// [`AnalysisError::Io`] when writing fails.
pub fn export_task_records<W: Write>(
    session: &AnalysisSession<'_>,
    filter: &TaskFilter,
    counters: &[CounterId],
    mut out: W,
) -> Result<usize, AnalysisError> {
    let trace = session.trace();
    for &c in counters {
        if trace.counter(c).is_none() {
            return Err(AnalysisError::UnknownCounter(c));
        }
    }
    write!(out, "task,type,cpu,creation,start,end,duration")?;
    for &c in counters {
        let name = &trace.counter(c).expect("validated above").name;
        write!(out, ",{name}")?;
    }
    writeln!(out)?;

    let mut rows = 0;
    for task in filter.filter_tasks(trace) {
        let type_name = trace
            .task_type(task.task_type)
            .map(|t| t.name.as_str())
            .unwrap_or("?");
        write!(
            out,
            "{},{},{},{},{},{},{}",
            task.id.0,
            type_name,
            task.cpu.0,
            task.creation.0,
            task.execution.start.0,
            task.execution.end.0,
            task.duration()
        )?;
        for &c in counters {
            match session.counter_delta(&task, c) {
                Some(delta) => write!(out, ",{delta}")?,
                None => write!(out, ",")?,
            }
        }
        writeln!(out)?;
        rows += 1;
    }
    Ok(rows)
}

/// Writes a [`TimeSeries`] as CSV with columns `bin_start,bin_end,normalized_time,value`.
///
/// # Errors
///
/// Returns [`AnalysisError::Io`] when writing fails.
pub fn export_time_series<W: Write>(series: &TimeSeries, mut out: W) -> Result<(), AnalysisError> {
    writeln!(out, "bin_start,bin_end,normalized_time,value")?;
    let n = series.num_bins();
    for (i, &v) in series.values.iter().enumerate() {
        let iv = series.bin_interval(i);
        let norm = if n == 0 {
            0.0
        } else {
            (i as f64 + 0.5) / n as f64
        };
        writeln!(out, "{},{},{:.6},{}", iv.start.0, iv.end.0, norm, v)?;
    }
    Ok(())
}

/// Writes a ranked anomaly report as CSV, one row per anomaly.
///
/// Columns: `kind,start,end,duration,severity,score,num_tasks,cpus,tasks,explanation`.
/// CPU and task lists are `;`-separated; the explanation is quoted with embedded
/// quotes doubled, so the file loads into standard CSV tooling.
///
/// # Errors
///
/// Returns [`AnalysisError::Io`] when writing fails.
pub fn export_anomalies<W: Write>(
    anomalies: &[crate::anomaly::Anomaly],
    mut out: W,
) -> Result<usize, AnalysisError> {
    writeln!(
        out,
        "kind,start,end,duration,severity,score,num_tasks,cpus,tasks,explanation"
    )?;
    for a in anomalies {
        let cpus = a
            .cpus
            .iter()
            .map(|c| c.0.to_string())
            .collect::<Vec<_>>()
            .join(";");
        let tasks = a
            .tasks
            .iter()
            .map(|t| t.0.to_string())
            .collect::<Vec<_>>()
            .join(";");
        writeln!(
            out,
            "{},{},{},{},{:.6},{:.6},{},{},{},\"{}\"",
            a.kind.label(),
            a.interval.start.0,
            a.interval.end.0,
            a.interval.duration(),
            a.severity,
            a.score,
            a.tasks.len(),
            cpus,
            tasks,
            a.explanation.replace('"', "\"\""),
        )?;
    }
    Ok(anomalies.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_sim_trace;
    use crate::AnalysisSession;
    use aftermath_trace::TimeInterval;

    #[test]
    fn task_records_csv_shape() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let counter = session.counter_id("branch-mispredictions").unwrap();
        let mut buf = Vec::new();
        let rows = export_task_records(&session, &TaskFilter::new(), &[counter], &mut buf).unwrap();
        assert_eq!(rows, trace.tasks().len());
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("task,type,cpu"));
        assert!(header.ends_with("branch-mispredictions"));
        assert_eq!(lines.count(), rows);
    }

    #[test]
    fn filtered_export_has_fewer_rows() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let init_ty = trace
            .task_types()
            .iter()
            .find(|t| t.name == "seidel_init")
            .unwrap()
            .id;
        let mut buf = Vec::new();
        let rows = export_task_records(
            &session,
            &TaskFilter::new().with_task_type(init_ty),
            &[],
            &mut buf,
        )
        .unwrap();
        assert_eq!(rows, 16);
    }

    #[test]
    fn unknown_counter_rejected() {
        let trace = small_sim_trace();
        let session = AnalysisSession::new(&trace);
        let mut buf = Vec::new();
        assert!(
            export_task_records(&session, &TaskFilter::new(), &[CounterId(1234)], &mut buf)
                .is_err()
        );
    }

    #[test]
    fn anomaly_csv_shape() {
        use crate::anomaly::{Anomaly, AnomalyKind};
        use aftermath_trace::{CpuId, TaskId};
        let anomalies = vec![Anomaly {
            kind: AnomalyKind::NumaLocality,
            interval: TimeInterval::from_cycles(10, 90),
            cpus: vec![CpuId(0), CpuId(3)],
            tasks: vec![TaskId(7)],
            severity: 0.75,
            score: 3.5,
            explanation: "remote \"storm\"".into(),
        }];
        let mut buf = Vec::new();
        let rows = export_anomalies(&anomalies, &mut buf).unwrap();
        assert_eq!(rows, 1);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("kind,start,end,duration"));
        assert!(lines[1].starts_with("numa-locality,10,90,80,0.75"));
        assert!(lines[1].contains("0;3"));
        assert!(lines[1].contains("\"remote \"\"storm\"\"\""));
    }

    #[test]
    fn time_series_csv() {
        let series = TimeSeries::new(TimeInterval::from_cycles(0, 100), vec![1.0, 2.0]);
        let mut buf = Vec::new();
        export_time_series(&series, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "bin_start,bin_end,normalized_time,value");
        assert!(lines[1].starts_with("0,50,"));
        assert!(lines[2].starts_with("50,100,"));
    }
}
