//! `THISTLE_NO_LOCK_OBS` turns the whole contention observatory into
//! pass-through wrappers: no lock families registered, nothing in the
//! snapshot. The variable is read once, in `Service::new`, and the process
//! environment is shared by every test in a binary, so this test has its
//! binary to itself.

use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_serve::{Service, ServiceOptions};

#[test]
fn lock_observation_can_be_disabled() {
    std::env::set_var("THISTLE_NO_LOCK_OBS", "1");
    let optimizer =
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 9,
            candidate_limit: 300,
            top_solutions: 1,
            threads: 2,
            ..OptimizerOptions::default()
        });
    let service = Service::new(
        optimizer,
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        },
    );
    let layer = ConvLayer::new("cont", 1, 16, 16, 18, 18, 3, 3, 1);
    let response = service
        .optimize(
            &layer,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )
        .expect("solve");
    // The breakdown still decomposes (queue/solve are pool timestamps),
    // only the lock-wait accounting is off.
    assert!(response.breakdown.solve_ms > 0.0);
    assert!(service.metrics().snapshot().locks.is_empty());
}
