//! Timeline rendering with the paper's Section VI-B optimizations.
//!
//! [`TimelineRenderer::render`] draws a [`TimelineModel`] (one cell per CPU row and pixel
//! column, already reduced to the predominant state/type/node per pixel) and aggregates
//! runs of identically coloured cells into single rectangle fills.
//!
//! [`TimelineRenderer::render_states_naive`] is the baseline the paper argues against:
//! it iterates over *every* state interval and draws each one individually, which both
//! issues many more drawing operations and repeatedly overdraws the same pixels at low
//! zoom levels. The two renderers produce equivalent images for state mode; the
//! benchmarks compare their cost.

use aftermath_core::{AnalysisSession, TimelineCell, TimelineModel};
use aftermath_exec::{parallel_map_chunks, Threads};
use aftermath_trace::TimeInterval;

use crate::color::{Color, Palette};
use crate::framebuffer::Framebuffer;

/// Renders timeline models into framebuffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineRenderer {
    /// Height of one CPU row in pixels.
    pub row_height: usize,
    /// Colour palette.
    pub palette: Palette,
}

impl Default for TimelineRenderer {
    fn default() -> Self {
        TimelineRenderer {
            row_height: 4,
            palette: Palette::default(),
        }
    }
}

impl TimelineRenderer {
    /// Creates a renderer with the default row height (4 px per CPU).
    pub fn new() -> Self {
        TimelineRenderer::default()
    }

    /// Creates a renderer with a custom row height.
    pub fn with_row_height(row_height: usize) -> Self {
        TimelineRenderer {
            row_height: row_height.max(1),
            palette: Palette::default(),
        }
    }

    /// Creates a renderer with a custom palette (e.g. [`Palette::light`]), keeping
    /// the default row height.
    pub fn with_palette(palette: Palette) -> Self {
        TimelineRenderer {
            palette,
            ..TimelineRenderer::default()
        }
    }

    /// The colour of one timeline cell.
    pub fn cell_color(&self, cell: &TimelineCell) -> Color {
        match cell {
            TimelineCell::Empty => self.palette.background,
            TimelineCell::State(s) => self.palette.state(*s),
            TimelineCell::Shade(v) => self.palette.heat(*v),
            TimelineCell::Type(ty) => self.palette.task_type(*ty),
            TimelineCell::Node(n) => self.palette.numa_node(*n),
        }
    }

    /// Renders a timeline model; every pixel is drawn at most once and horizontal runs of
    /// the same colour become a single rectangle fill.
    pub fn render(&self, model: &TimelineModel) -> Framebuffer {
        self.render_with(model, Threads::single())
    }

    /// Like [`TimelineRenderer::render`] but rasterizes the CPU rows on up to
    /// `threads` workers of the execution layer.
    ///
    /// Every CPU row of the model owns one horizontal band of the framebuffer
    /// (`row_height` pixel rows), and bands are disjoint slices of the pixel buffer,
    /// so workers never touch shared memory. The produced image and its draw-call
    /// count are identical to the sequential [`TimelineRenderer::render`].
    pub fn render_with(&self, model: &TimelineModel, threads: Threads) -> Framebuffer {
        let width = model.columns;
        let height = model.num_rows() * self.row_height;
        let mut pixels = vec![self.palette.background; width * height];
        let band_len = width * self.row_height;
        let draw_calls = parallel_map_chunks(threads, &mut pixels, band_len, |row, band| {
            self.rasterize_row(&model.cells[row], band, width)
        })
        .into_iter()
        .sum();
        Framebuffer::from_parts(width, height, pixels, draw_calls)
    }

    /// Draws one CPU row into its framebuffer band (a `width × row_height` pixel
    /// slice), aggregating same-coloured runs; returns the number of rectangle fills
    /// an equivalent [`Framebuffer::fill_rect`] sequence would have issued.
    fn rasterize_row(&self, cells: &[TimelineCell], band: &mut [Color], width: usize) -> u64 {
        let mut draw_calls = 0;
        let mut col = 0;
        while col < cells.len() {
            let color = self.cell_color(&cells[col]);
            let mut run = 1;
            while col + run < cells.len() && self.cell_color(&cells[col + run]) == color {
                run += 1;
            }
            if color != self.palette.background {
                draw_calls += 1;
                // Clip like `Framebuffer::fill_rect` does: a hand-built model whose
                // rows are wider than `columns` must draw truncated, not panic.
                let x0 = col.min(width);
                let x1 = (col + run).min(width);
                for band_row in band.chunks_mut(width) {
                    band_row[x0..x1].fill(color);
                }
            }
            col += run;
        }
        draw_calls
    }

    /// Renders a timeline model into a reused framebuffer (reshaped and cleared
    /// first), producing exactly the image of [`TimelineRenderer::render_with`]
    /// without allocating a fresh pixel buffer per frame.
    ///
    /// This is what a live monitor calls once per epoch: the frame dimensions are
    /// stable across epochs, so after the first frame no per-frame allocation
    /// remains on the render path.
    pub fn render_into(&self, model: &TimelineModel, threads: Threads, fb: &mut Framebuffer) {
        let width = model.columns;
        let height = model.num_rows() * self.row_height;
        fb.reset(width, height, self.palette.background);
        let band_len = width * self.row_height;
        let (pixels, draw_calls) = fb.raw_parts_mut();
        *draw_calls = parallel_map_chunks(threads, pixels, band_len, |row, band| {
            self.rasterize_row(&model.cells[row], band, width)
        })
        .into_iter()
        .sum();
    }

    /// Renders a timeline model **without** rectangle aggregation: one fill per cell.
    ///
    /// This isolates the effect of the aggregation optimization in the benchmarks while
    /// producing exactly the same image as [`TimelineRenderer::render`].
    pub fn render_unaggregated(&self, model: &TimelineModel) -> Framebuffer {
        let width = model.columns;
        let height = model.num_rows() * self.row_height;
        let mut fb = Framebuffer::new(width, height, self.palette.background);
        for (row, cells) in model.cells.iter().enumerate() {
            let y = row * self.row_height;
            for (col, cell) in cells.iter().enumerate() {
                let color = self.cell_color(cell);
                if color != self.palette.background {
                    fb.fill_rect(col, y, 1, self.row_height, color);
                }
            }
        }
        fb
    }

    /// The naive state-mode renderer: draws every state interval of every CPU directly,
    /// without per-pixel reduction. At low zoom levels many states map to the same pixel
    /// and are drawn over each other (the last one wins), which is both slower and less
    /// accurate than the predominant-state reduction.
    pub fn render_states_naive(
        &self,
        session: &AnalysisSession<'_>,
        interval: TimeInterval,
        columns: usize,
    ) -> Framebuffer {
        let cpus: Vec<_> = session.trace().topology().cpu_ids().collect();
        let height = cpus.len() * self.row_height;
        let mut fb = Framebuffer::new(columns, height, self.palette.background);
        let duration = interval.duration().max(1);
        for (row, &cpu) in cpus.iter().enumerate() {
            let y = row * self.row_height;
            for state in session.states_in(cpu, interval) {
                let Some(clipped) = state.interval.intersection(&interval) else {
                    continue;
                };
                let x0 = ((clipped.start.0 - interval.start.0) as u128 * columns as u128
                    / duration as u128) as usize;
                let x1 = ((clipped.end.0 - interval.start.0) as u128 * columns as u128
                    / duration as u128) as usize;
                let w = (x1.saturating_sub(x0)).max(1);
                fb.fill_rect(
                    x0.min(columns.saturating_sub(1)),
                    y,
                    w,
                    self.row_height,
                    self.palette.state(state.state),
                );
            }
        }
        fb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftermath_core::{AnalysisSession, Threads, TimelineMode, TimelineModel};
    use aftermath_sim::{SimConfig, Simulator};
    use aftermath_trace::WorkerState;
    use aftermath_workloads::SeidelConfig;

    fn session_trace() -> aftermath_trace::Trace {
        Simulator::new(SimConfig::small_test())
            .run(&SeidelConfig::small().build())
            .unwrap()
            .trace
    }

    #[test]
    fn aggregated_and_unaggregated_produce_identical_images() {
        let trace = session_trace();
        let session = AnalysisSession::new(&trace);
        let model = TimelineModel::build(&session, TimelineMode::State, session.time_bounds(), 200)
            .unwrap();
        let r = TimelineRenderer::new();
        let fast = r.render(&model);
        let slow = r.render_unaggregated(&model);
        assert_eq!(fast.width(), slow.width());
        assert_eq!(fast.height(), slow.height());
        for y in 0..fast.height() {
            for x in 0..fast.width() {
                assert_eq!(fast.get(x, y), slow.get(x, y), "pixel ({x},{y}) differs");
            }
        }
        // Aggregation must issue strictly fewer drawing operations.
        assert!(fast.draw_calls() < slow.draw_calls());
    }

    #[test]
    fn overwide_model_rows_clip_instead_of_panicking() {
        // TimelineModel's fields are public, so a hand-built model may be
        // inconsistent; rendering must clip like Framebuffer::fill_rect does.
        let model = TimelineModel {
            interval: aftermath_trace::TimeInterval::from_cycles(0, 100),
            cpus: vec![aftermath_trace::CpuId(0)],
            columns: 4,
            cells: vec![vec![TimelineCell::State(WorkerState::Idle); 7]],
        };
        let r = TimelineRenderer::with_row_height(2);
        for fb in [r.render(&model), r.render_with(&model, Threads::new(2))] {
            assert_eq!(fb.width(), 4);
            assert_eq!(fb.height(), 2);
            assert_eq!(fb.count_pixels(r.palette.state(WorkerState::Idle)), 8);
        }
    }

    #[test]
    fn render_into_reuses_the_buffer_and_matches_render() {
        let trace = session_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let r = TimelineRenderer::new();
        let mut fb = Framebuffer::new(1, 1, r.palette.background);
        // Rolling frames over shifting viewports: every reused frame must equal a
        // freshly allocated render of the same model.
        for (columns, end_frac) in [(64, 3u64), (64, 2), (200, 1)] {
            let window = aftermath_trace::TimeInterval::from_cycles(
                bounds.start.0,
                bounds.start.0 + bounds.duration() / end_frac,
            );
            let model =
                TimelineModel::build(&session, TimelineMode::State, window, columns).unwrap();
            r.render_into(&model, Threads::new(2), &mut fb);
            assert_eq!(fb, r.render(&model));
        }
    }

    #[test]
    fn parallel_render_is_identical_to_sequential() {
        let trace = session_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let r = TimelineRenderer::new();
        for mode in [
            TimelineMode::State,
            TimelineMode::Heatmap {
                min_duration: 0,
                max_duration: 1,
            },
        ] {
            let model = TimelineModel::build(&session, mode, bounds, 173).unwrap();
            let sequential = r.render(&model);
            for threads in [Threads::new(2), Threads::new(3), Threads::auto()] {
                let parallel = r.render_with(&model, threads);
                assert_eq!(sequential, parallel, "threads = {threads}");
            }
        }
    }

    #[test]
    fn naive_renderer_issues_more_draw_calls_at_low_zoom() {
        let trace = session_trace();
        let session = AnalysisSession::new(&trace);
        let bounds = session.time_bounds();
        let columns = 64; // strongly zoomed out: many states per pixel
        let model = TimelineModel::build(&session, TimelineMode::State, bounds, columns).unwrap();
        let r = TimelineRenderer::new();
        let optimized = r.render(&model);
        let naive = r.render_states_naive(&session, bounds, columns);
        assert!(optimized.draw_calls() < naive.draw_calls());
        assert_eq!(optimized.width(), naive.width());
    }

    #[test]
    fn row_height_controls_image_height() {
        let trace = session_trace();
        let session = AnalysisSession::new(&trace);
        let model =
            TimelineModel::build(&session, TimelineMode::State, session.time_bounds(), 32).unwrap();
        let fb = TimelineRenderer::with_row_height(7).render(&model);
        assert_eq!(fb.height(), model.num_rows() * 7);
        assert_eq!(TimelineRenderer::with_row_height(0).row_height, 1);
    }

    #[test]
    fn light_theme_renders_same_shapes_on_light_background() {
        let trace = session_trace();
        let session = AnalysisSession::new(&trace);
        let model =
            TimelineModel::build(&session, TimelineMode::State, session.time_bounds(), 96).unwrap();
        let dark = TimelineRenderer::new().render(&model);
        let light_renderer = TimelineRenderer::with_palette(Palette::light());
        let light = light_renderer.render(&model);
        assert_eq!(dark.width(), light.width());
        assert_eq!(dark.height(), light.height());
        // Same cells filled: a pixel is background in one theme iff it is in the other.
        for y in 0..dark.height() {
            for x in 0..dark.width() {
                assert_eq!(
                    dark.get(x, y) == Some(Palette::dark().background),
                    light.get(x, y) == Some(Palette::light().background),
                    "pixel ({x},{y}) fill status differs between themes"
                );
            }
        }
        assert!(light.count_pixels(Palette::light().background) > 0);
    }

    #[test]
    fn heatmap_mode_renders_shades() {
        let trace = session_trace();
        let session = AnalysisSession::new(&trace);
        let max = trace.tasks().iter().map(|t| t.duration()).max().unwrap();
        let model = TimelineModel::build(
            &session,
            TimelineMode::Heatmap {
                min_duration: 0,
                max_duration: max,
            },
            session.time_bounds(),
            128,
        )
        .unwrap();
        let fb = TimelineRenderer::new().render(&model);
        // At least one pixel should differ from the background.
        assert!(fb.count_pixels(Palette::BACKGROUND) < fb.width() * fb.height());
    }
}
