//! Counter and anomaly overlays on the timeline (paper Section VI-B, Figure 21).
//!
//! A counter curve is overlaid on the timeline by drawing, for every pixel column, a
//! single vertical line from the pixel of the minimum to the pixel of the maximum
//! counter value inside the column's time slice. At low zoom levels this replaces
//! thousands of per-sample line segments with one line per column; the min/max values
//! come from the session's n-ary counter index.
//!
//! [`AnomalyOverlay`] is the highlight pass for the automatic detection engine
//! ([`aftermath_core::anomaly`]): every detected anomaly draws as a coloured badge
//! band above the timeline, one row per anomaly kind, so detected regions are visible
//! at any zoom level and can drive navigation.

use aftermath_core::anomaly::{Anomaly, AnomalyKind};
use aftermath_core::AnalysisSession;
use aftermath_trace::{CounterId, CpuId, TimeInterval};

use crate::color::Color;
use crate::framebuffer::Framebuffer;

/// Renders one counter of one CPU as a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterOverlay {
    /// The CPU whose samples are drawn.
    pub cpu: CpuId,
    /// The counter to draw.
    pub counter: CounterId,
    /// Curve colour.
    pub color: Color,
    /// Height of the plot in pixels.
    pub height: usize,
}

impl CounterOverlay {
    /// Creates an overlay with a default height of 100 pixels.
    pub fn new(cpu: CpuId, counter: CounterId, color: Color) -> Self {
        CounterOverlay {
            cpu,
            counter,
            color,
            height: 100,
        }
    }

    /// Value range used for the vertical axis: the counter's min/max over the interval.
    fn value_range(
        &self,
        session: &AnalysisSession<'_>,
        interval: TimeInterval,
    ) -> Option<(f64, f64)> {
        let (min, max) = session.counter_min_max(self.cpu, self.counter, interval)?;
        if max > min {
            Some((min, max))
        } else {
            Some((min, min + 1.0))
        }
    }

    fn value_to_y(&self, value: f64, min: f64, max: f64) -> usize {
        let frac = ((value - min) / (max - min)).clamp(0.0, 1.0);
        // y grows downwards: the maximum value maps to row 0.
        ((1.0 - frac) * (self.height.saturating_sub(1)) as f64).round() as usize
    }

    /// Optimized rendering: one vertical min/max line per pixel column (Figure 21b–d).
    ///
    /// Returns `None` when the counter has no samples on this CPU in the interval.
    pub fn render(
        &self,
        session: &AnalysisSession<'_>,
        interval: TimeInterval,
        columns: usize,
    ) -> Option<Framebuffer> {
        let (min, max) = self.value_range(session, interval)?;
        let mut fb = Framebuffer::new(columns, self.height, Color::BLACK);
        let mut drew = false;
        for col in 0..columns {
            let col_iv = interval.bin(columns, col);
            if let Some((lo, hi)) = session.counter_min_max(self.cpu, self.counter, col_iv) {
                let y0 = self.value_to_y(hi, min, max);
                let y1 = self.value_to_y(lo, min, max);
                fb.draw_vline(col, y0, y1, self.color);
                drew = true;
            }
        }
        drew.then_some(fb)
    }

    /// Naive rendering: one line segment per pair of adjacent samples (Figure 21a).
    ///
    /// Produces the same visual envelope as [`CounterOverlay::render`] but issues one
    /// drawing operation per sample pair, which the benchmarks show to be much more
    /// expensive on large traces.
    pub fn render_naive(
        &self,
        session: &AnalysisSession<'_>,
        interval: TimeInterval,
        columns: usize,
    ) -> Option<Framebuffer> {
        let (min, max) = self.value_range(session, interval)?;
        let samples = session.samples_in(self.cpu, self.counter, interval);
        if samples.is_empty() {
            return None;
        }
        let mut fb = Framebuffer::new(columns, self.height, Color::BLACK);
        for i in 1..samples.len() {
            let x0 = column_of(interval, columns, samples.timestamp(i - 1));
            let x1 = column_of(interval, columns, samples.timestamp(i));
            let y0 = self.value_to_y(samples.value(i - 1), min, max);
            let y1 = self.value_to_y(samples.value(i), min, max);
            fb.draw_line(x0, y0, x1, y1, self.color);
        }
        Some(fb)
    }
}

/// Position of `t` on a `columns`-wide view of `view`, before clamping.
fn scaled_column(view: TimeInterval, columns: usize, t: aftermath_trace::Timestamp) -> usize {
    let duration = view.duration().max(1);
    (t.0.saturating_sub(view.start.0) as u128 * columns as u128 / duration as u128) as usize
}

/// The pixel column showing timestamp `t`, clamped into the framebuffer.
fn column_of(view: TimeInterval, columns: usize, t: aftermath_trace::Timestamp) -> usize {
    scaled_column(view, columns, t).min(columns.saturating_sub(1))
}

/// The pixel-column span `(x, width)` covered by `iv` on a `columns`-wide view of
/// `view`; always at least one pixel wide and clipped to the framebuffer.
fn column_span(view: TimeInterval, columns: usize, iv: TimeInterval) -> (usize, usize) {
    let x0 = column_of(view, columns, iv.start);
    let x1 = scaled_column(view, columns, iv.end);
    let width = (x1.max(x0 + 1) - x0).min(columns - x0);
    (x0, width)
}

/// Draws detected anomalies as badge bands above a timeline.
///
/// Each [`AnomalyKind`] owns one horizontal badge row (in [`AnomalyKind::ALL`] order);
/// an anomaly fills its row across the pixel columns its time interval covers, in the
/// kind's colour. Rendering into a dedicated strip ([`AnomalyOverlay::render`]) or
/// onto the top rows of an existing framebuffer ([`AnomalyOverlay::render_onto`]) are
/// both supported.
#[derive(Debug, Clone)]
pub struct AnomalyOverlay<'a> {
    anomalies: &'a [Anomaly],
    /// Height of one badge row in pixels.
    pub row_height: usize,
}

impl<'a> AnomalyOverlay<'a> {
    /// Creates an overlay for `anomalies` with 3-pixel badge rows.
    pub fn new(anomalies: &'a [Anomaly]) -> Self {
        AnomalyOverlay {
            anomalies,
            row_height: 3,
        }
    }

    /// Sets the badge row height.
    #[must_use]
    pub fn with_row_height(mut self, row_height: usize) -> Self {
        self.row_height = row_height.max(1);
        self
    }

    /// The badge colour of an anomaly kind.
    pub fn color_for(kind: AnomalyKind) -> Color {
        match kind {
            AnomalyKind::IdlePhase => Color::rgb(250, 210, 60),
            AnomalyKind::NumaLocality => Color::rgb(240, 80, 140),
            AnomalyKind::CounterOutlier => Color::rgb(80, 200, 240),
            AnomalyKind::DurationOutlier => Color::rgb(250, 140, 50),
        }
    }

    /// Height in pixels of the full badge strip (one row per anomaly kind).
    pub fn strip_height(&self) -> usize {
        AnomalyKind::ALL.len() * self.row_height
    }

    /// Renders the badge strip for the visible interval as its own framebuffer.
    pub fn render(&self, view: TimeInterval, columns: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(columns, self.strip_height(), Color::BLACK);
        self.render_onto(&mut fb, view);
        fb
    }

    /// Draws the badges onto the top rows of `fb` (e.g. a rendered timeline).
    ///
    /// Anomalies outside `view` are skipped; intervals partially visible are clipped
    /// to the framebuffer. An empty `view` draws nothing.
    pub fn render_onto(&self, fb: &mut Framebuffer, view: TimeInterval) {
        if view.is_empty() || fb.width() == 0 {
            return;
        }
        let columns = fb.width();
        for anomaly in self.anomalies {
            let Some(visible) = anomaly.interval.intersection(&view) else {
                continue;
            };
            // Always at least one pixel wide so short anomalies stay visible.
            let (x, width) = column_span(view, columns, visible);
            let y = anomaly.kind.index() * self.row_height;
            fb.fill_rect(x, y, width, self.row_height, Self::color_for(anomaly.kind));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftermath_core::anomaly::{AnomalyConfig, AnomalyKind};
    use aftermath_core::AnalysisSession;
    use aftermath_sim::{SimConfig, Simulator};
    use aftermath_trace::{TaskId, Timestamp};
    use aftermath_workloads::SeidelConfig;

    fn trace() -> aftermath_trace::Trace {
        Simulator::new(SimConfig::small_test())
            .run(&SeidelConfig::small().build())
            .unwrap()
            .trace
    }

    #[test]
    fn optimized_issues_at_most_one_call_per_column() {
        let trace = trace();
        let session = AnalysisSession::new(&trace);
        let counter = session.counter_id("system-time-us").unwrap();
        let overlay = CounterOverlay::new(CpuId(0), counter, Color::WHITE);
        let columns = 128;
        let fb = overlay
            .render(&session, session.time_bounds(), columns)
            .unwrap();
        assert!(fb.draw_calls() <= columns as u64);
        assert_eq!(fb.width(), columns);
        assert_eq!(fb.height(), 100);
    }

    #[test]
    fn naive_issues_one_call_per_sample_pair() {
        let trace = trace();
        let session = AnalysisSession::new(&trace);
        let counter = session.counter_id("system-time-us").unwrap();
        let overlay = CounterOverlay::new(CpuId(0), counter, Color::WHITE);
        let bounds = session.time_bounds();
        let fb = overlay.render_naive(&session, bounds, 128).unwrap();
        let samples = session.samples_in(CpuId(0), counter, bounds).len() as u64;
        assert_eq!(fb.draw_calls(), samples - 1);
    }

    #[test]
    fn missing_counter_returns_none() {
        let trace = trace();
        let session = AnalysisSession::new(&trace);
        let overlay = CounterOverlay::new(CpuId(0), CounterId(999), Color::WHITE);
        assert!(overlay
            .render(&session, session.time_bounds(), 64)
            .is_none());
        assert!(overlay
            .render_naive(&session, session.time_bounds(), 64)
            .is_none());
    }

    #[test]
    fn anomaly_badges_cover_their_interval() {
        let anomalies = vec![
            aftermath_core::anomaly::Anomaly {
                kind: AnomalyKind::NumaLocality,
                interval: aftermath_trace::TimeInterval::from_cycles(250, 500),
                cpus: vec![],
                tasks: vec![TaskId(1)],
                severity: 0.9,
                score: 4.0,
                explanation: "test".into(),
            },
            aftermath_core::anomaly::Anomaly {
                kind: AnomalyKind::IdlePhase,
                interval: aftermath_trace::TimeInterval::from_cycles(0, 100),
                cpus: vec![],
                tasks: vec![],
                severity: 0.5,
                score: 0.8,
                explanation: "test".into(),
            },
        ];
        let overlay = AnomalyOverlay::new(&anomalies).with_row_height(2);
        let view = aftermath_trace::TimeInterval::from_cycles(0, 1000);
        let fb = overlay.render(view, 100);
        assert_eq!(fb.height(), overlay.strip_height());
        // NUMA badge row: columns 25..50 on row index 1 (row_height 2 → y = 2).
        let numa = AnomalyOverlay::color_for(AnomalyKind::NumaLocality);
        assert_eq!(fb.get(25, 2), Some(numa));
        assert_eq!(fb.get(49, 3), Some(numa));
        assert_eq!(fb.get(51, 2), Some(Color::BLACK));
        // Idle badge on its own row at the start of the view.
        let idle = AnomalyOverlay::color_for(AnomalyKind::IdlePhase);
        assert_eq!(fb.get(0, 0), Some(idle));
        assert_eq!(fb.get(25, 0), Some(Color::BLACK));
    }

    #[test]
    fn anomaly_overlay_on_simulated_trace() {
        let trace = trace();
        let session = AnalysisSession::new(&trace);
        let report = session.detect_anomalies(&AnomalyConfig::default()).unwrap();
        let overlay = AnomalyOverlay::new(report.as_slice());
        let bounds = session.time_bounds();
        let fb = overlay.render(bounds, 256);
        assert_eq!(fb.width(), 256);
        // Out-of-view anomalies draw nothing.
        let far = aftermath_trace::TimeInterval::new(
            Timestamp(bounds.end.0 + 1_000),
            Timestamp(bounds.end.0 + 2_000),
        );
        let empty = overlay.render(far, 64);
        assert_eq!(empty.draw_calls(), 0);
    }

    #[test]
    fn curve_pixels_are_drawn() {
        let trace = trace();
        let session = AnalysisSession::new(&trace);
        let counter = session.counter_id("resident-kbytes").unwrap();
        let overlay = CounterOverlay::new(CpuId(0), counter, Color::rgb(255, 0, 0));
        let fb = overlay.render(&session, session.time_bounds(), 64).unwrap();
        assert!(fb.count_pixels(Color::rgb(255, 0, 0)) > 0);
    }
}
