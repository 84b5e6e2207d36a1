//! Measures interactive zoom/pan frame times: the per-column scan path vs. the
//! multi-resolution aggregation pyramid, across zoom levels and all six timeline
//! modes, on the dense synthetic navigation trace.
//!
//! Run with:
//! ```text
//! cargo run --release --example zoom_sweep            # test scale (small, fast)
//! cargo run --release --example zoom_sweep -- paper   # paper scale (dense trace)
//! ```

use aftermath_bench::figures::Scale;
use aftermath_bench::zoom::{run_zoom_sweep, zoom_trace};
use aftermath_core::Threads;

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        _ => Scale::Test,
    };
    println!("# zoom sweep at {scale:?} scale — building trace...");
    let trace = zoom_trace(scale);
    println!("# {} recorded events", trace.num_events());
    let sweep = run_zoom_sweep(&trace, 800, Threads::auto(), scale == Scale::Test);

    sweep
        .record()
        .print("Zoom sweep — timeline frame times: scan vs. pyramid");
}
