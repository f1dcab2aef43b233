//! An idle connection's reader never wakes.
//!
//! After one answered `Stats`, the connection's reader thread
//! (`pts-server-conn`) blocks in one socket read with no timeout, so over
//! a second of idle it makes at most a couple of voluntary context
//! switches. A reader that woke on a poll timer would make one per tick.
//! The count comes from `/proc/self/task/*/status`, so this pin is
//! Linux-only, and it has its own test binary so that no other test's
//! server threads share the process.
#![cfg(target_os = "linux")]

use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{serve, Client};
use pts_util::protocol::DEFAULT_NAMESPACE;
use std::fs;
use std::time::Duration;

const IDLE: Duration = Duration::from_secs(1);
const MAX_WAKEUPS: u64 = 2;

/// The `voluntary_ctxt_switches` of every thread of this process named
/// `name`.
fn voluntary_switches(name: &str) -> Vec<u64> {
    let mut counts = Vec::new();
    for task in fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let (Ok(comm), Ok(status)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("status")),
        ) else {
            continue; // the thread exited meanwhile
        };
        if comm.trim_end() != name {
            continue;
        }
        let count = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .expect("status has voluntary_ctxt_switches");
        counts.push(count.trim().parse().unwrap());
    }
    counts
}

#[test]
fn an_idle_connection_reader_does_not_wake() {
    let engine = ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(1).seed(5),
        L0Factory::default(),
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();

    let before = voluntary_switches("pts-server-conn");
    assert_eq!(before.len(), 1, "one connection, one reader thread");
    std::thread::sleep(IDLE);
    let after = voluntary_switches("pts-server-conn");
    assert_eq!(after.len(), 1, "the reader thread is gone");
    let wakeups = after[0] - before[0];
    assert!(
        wakeups <= MAX_WAKEUPS,
        "an idle reader woke {wakeups} times in {IDLE:?} (at most {MAX_WAKEUPS})"
    );
    drop(client);
    server.join();
}
