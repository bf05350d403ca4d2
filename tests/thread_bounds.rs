//! Queued jobs cost no threads. A one-shot job publishes its events from
//! the kernel's thread and ends from the scheduler worker, so admitting
//! a hundred jobs behind a busy worker leaves the server's thread count
//! where it was.
//!
//! The count is the test process's own (`/proc/self/task`), so this file
//! holds a single test: no other test may share the process.

#![cfg(target_os = "linux")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::ragen::UniformSampler;
use service::client::Client;
use service::json::Json;
use service::proto::JobSubmission;
use service::server::{Server, ServerConfig};
use std::time::Duration;

const PAPER_EXAMPLE: &str = "[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn queued_jobs_leave_the_thread_count_flat() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_jobs: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    let serving = std::thread::spawn(move || server.serve());
    // One keep-alive client: a single connection thread on the server.
    let client = Client::new(&addr);

    // Occupy the only worker with a budgeted long job, and wait for its
    // first incumbent: by then the threads of its repeats are up.
    let mut rng = StdRng::seed_from_u64(31);
    let data = UniformSampler::new(200).sample_dataset(200, 20, &mut rng);
    let text: String = data.rankings().iter().map(|r| format!("{r}\n")).collect();
    let long = client
        .submit(&JobSubmission {
            algo: Some("BestOf(BioConsert,1000)".to_owned()),
            budget: Some(Duration::from_secs(120)),
            ..JobSubmission::new(text)
        })
        .expect("submit the long job");
    while client
        .status(long.id)
        .expect("status")
        .get("best")
        .is_none_or(Json::is_null)
    {
        std::thread::sleep(Duration::from_millis(5));
    }

    // 100 jobs queue behind it (the default queue holds 128).
    let before = threads();
    let queued: Vec<u64> = (0..100)
        .map(|_| {
            client
                .submit(&JobSubmission {
                    algo: Some("Borda".to_owned()),
                    ..JobSubmission::new(PAPER_EXAMPLE)
                })
                .expect("queue a job")
                .id
        })
        .collect();
    let after = threads();
    let health = client.healthz().expect("healthz");
    assert_eq!(health.get("jobs_queued").and_then(Json::as_u64), Some(100));
    assert!(
        after <= before + 5,
        "100 queued jobs grew the process from {before} to {after} threads"
    );

    client.cancel(long.id).expect("cancel the long job");
    for id in queued {
        client.wait(id).expect("queued job finishes");
    }
    shutdown.shutdown();
    serving
        .join()
        .expect("serve thread")
        .expect("serve returns cleanly");
}
