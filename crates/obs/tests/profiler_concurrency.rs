//! The sampling profiler under four threads opening spans concurrently.
//!
//! The profiler samples every live thread in the process. In the library's
//! unit-test binary, spans opened by tests running in parallel would be
//! sampled too, so this test runs in its own process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use thistle_obs::{CollectingSink, Profiler, TraceCtx};

#[test]
fn profiler_start_stop_under_concurrent_spans() {
    let sink = Arc::new(CollectingSink::new());
    let ctx = TraceCtx::new(sink);
    let stop = Arc::new(AtomicBool::new(false));
    let profiler = Profiler::start(997);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let ctx = ctx.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _outer = ctx.span("work_outer");
                    for _ in 0..50 {
                        let _inner = ctx.span("work_inner");
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::Relaxed);
    });
    let profile = profiler.stop();
    assert!(profile.ticks > 0);
    assert!(profile.samples > 0, "busy workers must be sampled");
    for (path, _) in profile.iter() {
        for frame in path.split(';') {
            assert!(
                frame == "work_outer" || frame == "work_inner",
                "sampled frame names must be real span names, got {frame:?}"
            );
        }
    }
    // Start/stop again immediately: the registry survives reuse.
    let second = Profiler::start(500);
    let profile2 = second.stop();
    assert_eq!(profile2.hz, 500);
}
