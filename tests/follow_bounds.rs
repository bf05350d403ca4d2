//! Follow jobs cost no threads. Each round of a follow job is a one-shot
//! admission that publishes itself, and between rounds the job is parked
//! on its dataset, so a hundred followers re-solving after a PATCH leave
//! the server's thread count where it was.
//!
//! The count is the test process's own (`/proc/self/task`), so this file
//! holds a single test: no other test may share the process.

#![cfg(target_os = "linux")]

use service::client::Client;
use service::json::Json;
use service::proto::JobSubmission;
use service::server::{Server, ServerConfig};
use std::time::{Duration, Instant};

const PAPER_EXAMPLE: &str = "[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Poll job `id`'s status until `done` holds for it.
fn wait_for(client: &Client, id: u64, what: &str, done: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if done(&status) {
            return;
        }
        assert!(Instant::now() < deadline, "job {id}: {what}: {status}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn follow_jobs_leave_the_thread_count_flat() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    let serving = std::thread::spawn(move || server.serve());
    // One keep-alive client: a single connection thread on the server.
    let client = Client::new(&addr);
    client.create_dataset("shared", PAPER_EXAMPLE).expect("PUT");
    // A one-shot job on the dataset brings the scheduler's workers up.
    let warm = client
        .submit(&JobSubmission {
            algo: Some("Borda".into()),
            ..JobSubmission::for_dataset("shared")
        })
        .expect("warm-up job");
    client.wait(warm.id).expect("warm-up job finishes");

    let before = threads();
    let followers: Vec<u64> = (0..100)
        .map(|_| {
            client
                .submit(&JobSubmission {
                    algo: Some("Borda".into()),
                    follow: true,
                    ..JobSubmission::for_dataset("shared")
                })
                .expect("attach a follow job")
                .id
        })
        .collect();
    for &id in &followers {
        wait_for(&client, id, "version 1 never resolved", |status| {
            status.get("outcome").and_then(Json::as_str).is_some()
        });
    }
    // A new label: a version-2 report is the one that ranks it.
    client
        .patch_dataset(
            "shared",
            "{\"ops\":[{\"op\":\"add\",\"ranking\":\"[{E},{A},{B,C,D}]\"}]}",
        )
        .expect("PATCH");
    for &id in &followers {
        wait_for(&client, id, "version 2 never resolved", |status| {
            status
                .get("report")
                .and_then(|report| report.get("ranking"))
                .is_some_and(|ranking| ranking.to_string().contains("\"E\""))
        });
    }
    let after = threads();
    assert!(
        after <= before + 5,
        "100 follow jobs grew the process from {before} to {after} threads"
    );

    client.delete_dataset("shared").expect("DELETE the dataset");
    for id in followers {
        let done = client.wait(id).expect("follow job ends");
        assert_eq!(
            done.get("outcome").and_then(Json::as_str),
            Some("cancelled")
        );
    }
    shutdown.shutdown();
    serving
        .join()
        .expect("serve thread")
        .expect("serve returns cleanly");
}
