//! An idle server must not wake. Every thread of a started server waits on
//! a blocking call (`accept`, a channel, a condvar), so over half a second
//! with no traffic no thread may gain more than a couple of voluntary
//! context switches. A polling loop wakes on every tick and fails this.
//!
//! Linux only: the counts come from `/proc/self/task/*/status`. This file
//! is its own test binary with a single test, so the only threads in the
//! process are the harness's, the server's, and this test's own, which is
//! left out.
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use thistle::Optimizer;
use thistle_arch::TechnologyParams;
use thistle_serve::{HttpServer, Service, ServiceOptions};

/// Most voluntary context switches one thread may gain over the window.
const MAX_WAKEUPS: u64 = 2;

/// `(name, voluntary_ctxt_switches)` of every thread in this process except
/// the calling one, keyed by thread id.
fn voluntary_switches() -> BTreeMap<String, (String, u64)> {
    let own = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    let own = own
        .file_name()
        .expect("thread-self names a task")
        .to_string_lossy()
        .into_owned();
    let mut threads = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let entry = entry.expect("read a task entry");
        let tid = entry.file_name().to_string_lossy().into_owned();
        if tid == own {
            continue;
        }
        // A thread may exit between the listing and this read.
        let Ok(status) = std::fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .map(str::trim)
        };
        let name = field("Name:").unwrap_or("?").to_string();
        let switches = field("voluntary_ctxt_switches:")
            .and_then(|v| v.parse().ok())
            .expect("status reports voluntary_ctxt_switches");
        threads.insert(tid, (name, switches));
    }
    threads
}

#[test]
fn an_idle_server_does_not_wake() {
    let service = Service::new(
        Optimizer::new(TechnologyParams::cgo2022_45nm()),
        ServiceOptions::default(),
    );
    let server = HttpServer::start(Arc::new(service), "127.0.0.1:0").expect("bind");
    // Let every thread reach its wait before the window opens.
    std::thread::sleep(Duration::from_millis(50));
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_millis(500));
    let after = voluntary_switches();

    // A thread born inside the window counts from zero.
    let woke: Vec<String> = after
        .iter()
        .filter_map(|(tid, (name, switches))| {
            let gained = switches - before.get(tid).map_or(0, |(_, s)| *s);
            (gained > MAX_WAKEUPS).then(|| format!("{name} (tid {tid}): +{gained}"))
        })
        .collect();
    assert!(
        woke.is_empty(),
        "threads woke while the server was idle, in 500 ms: {woke:?}"
    );
    server.shutdown();
}
