//! End-to-end tests of the `rawt` command-line tool.

use std::process::Command;

fn rawt(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_rawt"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Write the paper's example to a temp file of its own: tests run in
/// parallel, so every call gets a fresh path (a shared one could be
/// rewritten by one test while another reads it).
fn write_paper_example() -> std::path::PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("rawt-test-{}-{call}.txt", std::process::id()));
    std::fs::write(
        &path,
        "# the paper's 2.2 example\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n",
    )
    .expect("temp file");
    path
}

#[test]
fn aggregate_finds_the_paper_optimum() {
    let path = write_paper_example();
    let (stdout, stderr, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "BioConsert"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("K score:    5"), "stdout: {stdout}");
    assert!(stdout.contains("{B,C}"), "ties preserved: {stdout}");
}

#[test]
fn aggregate_with_exact_algorithm() {
    let path = write_paper_example();
    let (stdout, _, ok) = rawt(&[
        "aggregate",
        path.to_str().unwrap(),
        "--algo",
        "ExactAlgorithm",
    ]);
    assert!(ok);
    assert!(stdout.contains("K score:    5"), "stdout: {stdout}");
}

#[test]
fn aggregate_defaults_to_guidance() {
    let path = write_paper_example();
    let (stdout, _, ok) = rawt(&["aggregate", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("algorithm:"), "stdout: {stdout}");
}

#[test]
fn compare_ranks_algorithms_by_score() {
    let path = write_paper_example();
    let (stdout, _, ok) = rawt(&["compare", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("BioConsert"));
    // The first result line is the best: m-gap 0.
    let first = stdout
        .lines()
        .find(|l| l.contains("m-gap"))
        .expect("has results");
    assert!(
        first.contains("0.00%"),
        "best must have zero m-gap: {first}"
    );
}

#[test]
fn similarity_reports_features_and_guidance() {
    let path = write_paper_example();
    let (stdout, _, ok) = rawt(&["similarity", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("similarity s(R)"));
    assert!(stdout.contains("recommended (Quality): ExactAlgorithm"));
}

#[test]
fn distance_matches_the_paper() {
    // G(r1, r2) for the paper's r1, r2: count by hand = 2 (D moves across
    // the {B,C} bucket) — verify the library's value through the CLI.
    let (stdout, _, ok) = rawt(&["distance", "[{A},{D},{B,C}]", "[{A},{B,C},{D}]"]);
    assert!(ok);
    let g_line = stdout.lines().find(|l| l.starts_with("G ")).unwrap();
    let g: u64 = g_line.rsplit(' ').next().unwrap().parse().unwrap();
    // D vs B and D vs C are inverted: G = 2.
    assert_eq!(g, 2, "{stdout}");
    assert!(stdout.contains("τ"));
}

#[test]
fn generate_roundtrips_through_aggregate() {
    let (stdout, _, ok) = rawt(&["generate", "uniform", "--n", "8", "--m", "4", "--seed", "9"]);
    assert!(ok);
    let path = std::env::temp_dir().join(format!("rawt-gen-test-{}.txt", std::process::id()));
    std::fs::write(&path, &stdout).unwrap();
    let (stdout2, _, ok2) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "BordaCount"]);
    assert!(ok2, "{stdout2}");
    assert!(stdout2.contains("elements:   8"));
}

/// The exact uniform sampler's tables grow as n⁴, so `generate uniform`
/// refuses an `--n` that would run for minutes, at once, and points to
/// the generator that scales.
#[test]
fn generate_uniform_refuses_n_above_its_cap() {
    let started = std::time::Instant::now();
    let (stdout, stderr, ok) = rawt(&["generate", "uniform", "--n", "4000", "--m", "3"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("above 1000"), "{stderr}");
    assert!(stderr.contains("rawt generate markov"), "{stderr}");
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    let (stdout, stderr, ok) = rawt(&["generate", "markov", "--n", "4000", "--m", "3"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.lines().count(), 1 + 3, "a header and three rankings");
}

#[test]
fn errors_are_reported_cleanly() {
    let (_, stderr, ok) = rawt(&["aggregate", "/nonexistent/file.txt"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    let (_, stderr, ok) = rawt(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let path = write_paper_example();
    let (_, stderr, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "NoSuchAlgo"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));
}

#[test]
fn algo_specs_are_case_insensitive() {
    let path = write_paper_example();
    for spec in [
        "bioconsert",
        "BIOCONSERT",
        "bordacount",
        "bestof(kwiksort,5)",
        "exact",
    ] {
        let (stdout, stderr, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", spec]);
        assert!(ok, "spec {spec}: {stderr}");
        assert!(stdout.contains("K score:"), "spec {spec}: {stdout}");
    }
}

#[test]
fn typo_gets_a_did_you_mean_suggestion() {
    let path = write_paper_example();
    let (_, stderr, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "KwikSrt"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
    assert!(stderr.contains("did you mean"), "{stderr}");
    assert!(stderr.contains("KwikSort"), "{stderr}");
    // Nothing is close to this one: no suggestion, but still a clean error.
    let (_, stderr, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "Zebra12345"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");
}

#[test]
fn list_shows_the_registry() {
    let (stdout, _, ok) = rawt(&["list"]);
    assert!(ok);
    for name in ["BioConsert", "KwikSort", "MedRank", "Exact", "BestOf"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
    assert!(stdout.contains("aliases"), "{stdout}");
    assert!(stdout.contains("BestOf(KwikSort,20)"), "{stdout}");
}

#[test]
fn list_shows_table1_class_tags_and_ties_column() {
    let (stdout, _, ok) = rawt(&["list"]);
    assert!(ok);
    // Header with the Table 1 columns.
    let header = stdout
        .lines()
        .find(|l| l.contains("NAME"))
        .expect("table header");
    assert!(header.contains("CLASS"), "{header}");
    assert!(header.contains("TIES"), "{header}");
    // Every class tag of Table 1 appears.
    for tag in ["[K]", "[G]", "[P]"] {
        assert!(stdout.contains(tag), "missing class tag {tag}: {stdout}");
    }
    // BioConsert produces ties; Chanas cannot (Table 1).
    let bio = stdout
        .lines()
        .find(|l| l.starts_with("BioConsert"))
        .expect("BioConsert row");
    assert!(bio.contains("[G]") && bio.contains("yes"), "{bio}");
    let chanas = stdout
        .lines()
        .find(|l| l.starts_with("Chanas "))
        .expect("Chanas row");
    assert!(chanas.contains("[K]") && chanas.contains("no"), "{chanas}");
}

#[test]
fn aggregate_json_is_machine_consumable() {
    let path = write_paper_example();
    let (stdout, stderr, ok) = rawt(&[
        "aggregate",
        path.to_str().unwrap(),
        "--algo",
        "Exact",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    for needle in [
        "\"algorithm\":\"ExactAlgorithm\"",
        "\"spec\":\"Exact\"",
        "\"score\":5",
        "\"outcome\":\"optimal\"",
        "\"ranking\":[[\"A\"],[\"D\"],[\"B\",\"C\"]]",
        "\"trace\":[",
        "\"elapsed_secs\":",
        "\"normalization\":\"unify\"",
    ] {
        assert!(line.contains(needle), "missing {needle} in {line}");
    }
    // No human-readable noise on stdout in JSON mode.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn compare_json_reports_the_whole_panel_with_traces() {
    let path = write_paper_example();
    let (stdout, stderr, ok) = rawt(&["compare", path.to_str().unwrap(), "--json"]);
    assert!(ok, "stderr: {stderr}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"reports\":["), "{line}");
    assert!(line.contains("\"similarity\":"), "{line}");
    // One report object per panel member (13 paper algorithms fit n = 4).
    assert_eq!(line.matches("\"algorithm\":").count(), 13, "{line}");
    assert_eq!(line.matches("\"trace\":[").count(), 13, "{line}");
    // The sorted-best report leads with m-gap 0.
    assert!(line.contains("\"gap\":0.000000"), "{line}");
}

#[test]
fn aggregate_progress_streams_incumbents_to_stderr() {
    let path = write_paper_example();
    let (stdout, stderr, ok) = rawt(&[
        "aggregate",
        path.to_str().unwrap(),
        "--algo",
        "BioConsert",
        "--progress",
    ]);
    assert!(ok, "stderr: {stderr}");
    // The normal report still lands on stdout…
    assert!(stdout.contains("K score:    5"), "{stdout}");
    // …while the live job lifecycle streams on stderr.
    assert!(stderr.contains("started:"), "{stderr}");
    assert!(stderr.contains("incumbent:  K ="), "{stderr}");
    assert!(stderr.contains("finished:   heuristic"), "{stderr}");
}

#[test]
fn list_json_shares_the_service_registry_serializer() {
    let (stdout, _, ok) = rawt(&["list", "--json"]);
    assert!(ok);
    let line = stdout.trim();
    // One machine-readable line, and byte-identical to the serializer
    // behind `GET /v1/algorithms` — one dump, two front ends.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert_eq!(line, service::proto::registry_json());
    let doc = service::json::Json::parse(line).expect("valid JSON");
    let entries = doc.as_array().expect("array");
    assert!(entries.len() >= 17, "whole registry: {}", entries.len());
    assert!(entries
        .iter()
        .any(|e| { e.get("name").and_then(service::json::Json::as_str) == Some("BioConsert") }));
}

/// Spawn `rawt serve` on an ephemeral port and return (child, addr).
fn spawn_server() -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rawt"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("server spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let addr = line
        .split_whitespace()
        .find(|w| w.starts_with("http://"))
        .unwrap_or_else(|| panic!("no address in startup line {line:?}"))
        .to_owned();
    (child, addr)
}

#[test]
fn serve_and_remote_aggregate_render_identically_and_drain_on_sigint() {
    let path = write_paper_example();
    let (mut child, addr) = spawn_server();
    let (local, _, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "Exact"]);
    assert!(ok);
    let (remote, stderr, ok) = rawt(&[
        "aggregate",
        path.to_str().unwrap(),
        "--algo",
        "Exact",
        "--remote",
        &addr,
    ]);
    assert!(ok, "remote aggregate failed: {stderr}");
    // Everything except the wall-clock outcome line renders identically.
    let stable = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with("outcome:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        stable(&remote),
        stable(&local),
        "remote: {remote}\nlocal: {local}"
    );
    assert!(remote.contains("outcome:    optimal"), "{remote}");
    // The remote --json envelope carries the same fields as the local one.
    let (remote_json, _, ok) = rawt(&[
        "aggregate",
        path.to_str().unwrap(),
        "--algo",
        "Exact",
        "--json",
        "--remote",
        &addr,
    ]);
    assert!(ok);
    // The report bytes are spliced from the server's shared serializer —
    // including its key order and {:.6} float formatting — so the remote
    // envelope matches the local one's shape, not a re-serialized tree.
    for needle in [
        "\"score\":5",
        "\"outcome\":\"optimal\"",
        "\"trace\":[",
        "\"gap\":0.000000",
        "\"algorithm\":\"ExactAlgorithm\",\"spec\":\"Exact\"",
    ] {
        assert!(
            remote_json.contains(needle),
            "missing {needle}: {remote_json}"
        );
    }
    // SIGINT drains the server cleanly (exit status 0).
    let pid = child.id().to_string();
    let sent = Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .expect("kill runs");
    assert!(sent.success());
    let status = child.wait().expect("server exits");
    assert!(
        status.success(),
        "serve must drain cleanly on SIGINT: {status:?}"
    );
}

#[test]
fn second_sigint_forces_serve_to_exit_immediately() {
    use rand::SeedableRng;
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rawt"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut startup = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut startup)
        .expect("startup line");
    let addr = startup
        .split_whitespace()
        .find(|w| w.starts_with("http://"))
        .expect("address in startup line")
        .to_owned();
    // Pin the drain open with a genuinely running job: BioConsert polls
    // its cancel token once per sweep, and a sweep over n = 300 takes
    // long enough that the cooperative drain is still pending when the
    // second SIGINT arrives. (An idle server drains instantly — then a
    // clean exit 0 would be correct, and the test would race it.)
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let data = rank_aggregation_with_ties::ragen::UniformSampler::new(300)
        .sample_dataset(300, 10, &mut rng);
    let mut text = String::new();
    for r in data.rankings() {
        text.push_str(&r.to_string());
        text.push('\n');
    }
    let client = service::client::Client::new(&addr);
    let job = client
        .submit(&service::proto::JobSubmission {
            algo: Some("BioConsert".into()),
            ..service::proto::JobSubmission::new(text)
        })
        .expect("submit");
    // The first event proves the kernel is running, not queued.
    let mut events = client.events(job.id).expect("event stream");
    events.next().expect("started event").expect("parses");
    let pid = child.id().to_string();
    let sigint = || {
        let sent = Command::new("kill")
            .args(["-INT", &pid])
            .status()
            .expect("kill runs");
        assert!(sent.success());
    };
    // Two pending standard signals coalesce into one delivery, so the
    // second Ctrl-C only counts once the first has been *handled* —
    // which the drain announcement on stderr proves.
    sigint();
    let mut stderr = std::io::BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = stderr.read_line(&mut line).expect("read stderr");
        assert!(n > 0, "server exited before announcing the drain");
        if line.contains("draining") {
            break;
        }
    }
    sigint();
    let status = child.wait().expect("server exits");
    assert_eq!(
        status.code(),
        Some(130),
        "a second SIGINT must force an immediate exit: {status:?}"
    );
}

#[test]
fn aggregate_reports_outcome_and_exact_proves_optimality() {
    let path = write_paper_example();
    let (stdout, _, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "Exact"]);
    assert!(ok);
    assert!(stdout.contains("outcome:    optimal"), "{stdout}");
    let (stdout, _, ok) = rawt(&["aggregate", path.to_str().unwrap(), "--algo", "BordaCount"]);
    assert!(ok);
    assert!(stdout.contains("outcome:    heuristic"), "{stdout}");
}

/// A spawned `rawt serve` and its address; the server is killed when the
/// test ends, pass or fail.
struct Served(std::process::Child, String);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn served() -> Served {
    let (child, addr) = spawn_server();
    Served(child, addr)
}

/// Run `rawt session FILE ARGS` over `script` in process, then with
/// `--remote ADDR`; both must exit 0. Returns [(stdout, stderr); 2].
fn session_local_and_remote(addr: &str, args: &[&str], script: &str) -> [(String, String); 2] {
    let path = write_paper_example();
    let path = path.to_str().unwrap();
    [vec![], vec!["--remote", addr]].map(|remote| {
        use std::io::Write;
        use std::process::Stdio;
        let mut child = Command::new(env!("CARGO_BIN_EXE_rawt"))
            .args([&["session", path], args, &remote].concat())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // Dropping stdin after the write is the script's EOF.
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(script.as_bytes()).expect("script written");
        drop(stdin);
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    })
}

/// A session transcript without its header line (which names where the
/// dataset lives) and with each solve line's wall-clock time masked.
fn session_body(stdout: &str) -> Vec<String> {
    let (_header, body) = stdout.split_once('\n').expect("a header line");
    body.lines()
        .map(|line| match line.rfind(" in ") {
            Some(i) if line.ends_with(')') => format!("{} in …)", &line[..i]),
            _ => line.to_owned(),
        })
        .collect()
}

#[test]
fn session_transcripts_are_identical_local_and_remote() {
    let server = served();
    // Edits of every kind (the replace adds label E), a refused edit, an
    // unparsable one, show, and warm-started solves.
    let script = "show\nsolve\nadd [{B},{A},{C},{D}]\nremove 0\nreplace 1 [{E},{A},{B,C,D}]\n\
                  remove 9\nadd [{A}\nsolve\nshow\nsolve\n";
    let [(local, local_err), (remote, remote_err)] =
        session_local_and_remote(&server.1, &[], script);
    assert_eq!(
        session_body(&remote),
        session_body(&local),
        "{remote}\n{local}"
    );
    assert_eq!(remote_err, local_err);
    assert_eq!(local_err.lines().count(), 2, "{local_err}");
    let body = session_body(&local);
    assert_eq!(body.iter().filter(|l| l.contains(" K = ")).count(), 3);
    assert!(body.contains(&"v4 n = 5 m = 3".to_owned()), "{local}");
}

#[test]
fn a_bad_algo_is_reported_at_each_solve_and_the_session_goes_on() {
    let server = served();
    let script = "solve\nadd [{B},{A},{C},{D}]\nsolve\n";
    let [(local, local_err), (remote, remote_err)] =
        session_local_and_remote(&server.1, &["--algo", "NoSuchAlgo"], script);
    assert_eq!(session_body(&local), ["v2 n = 4 m = 4"]);
    assert_eq!(session_body(&remote), session_body(&local));
    assert_eq!(remote_err, local_err);
    let error = local_err.lines().next().unwrap_or_default();
    assert!(error.starts_with("rawt: unknown algorithm"), "{local_err}");
    assert_eq!(
        local_err,
        format!("{error}\n{error}\n"),
        "one line per solve"
    );
}

#[test]
fn a_named_remote_dataset_is_reopened_by_the_next_session() {
    let server = served();
    let remote = |script: &str| {
        let [_, (stdout, _)] = session_local_and_remote(&server.1, &["--id", "cli-keep"], script);
        stdout
    };
    assert_eq!(
        session_body(&remote("add [{D},{C},{B},{A}]\nquit\n")),
        ["v2 n = 4 m = 4"]
    );
    let second = remote("show\n");
    let header = second.lines().next().expect("a header line");
    let reattached = header.contains(" v2 n = 4 m = 4 on ") && header.contains("(exists; ");
    assert!(reattached && header.ends_with(" not loaded)"), "{header}");
    assert_eq!(session_body(&second)[0], "v2 n = 4 m = 4");
    assert_eq!(session_body(&second)[4], "  [3] [{D},{C},{B},{A}]");
}

/// `aggregate --json` prints one envelope whichever side ran the job:
/// byte-identical once the wall-clock `*_secs` values are masked.
#[test]
fn aggregate_json_envelopes_are_byte_identical_local_and_remote() {
    let mask_secs = |json: &str| {
        let mut parts = json.split("_secs\":");
        let head = parts.next().unwrap_or_default().to_owned();
        parts.fold(head, |out, part| {
            out + "_secs\":#" + part.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.')
        })
    };
    let server = served();
    let path = write_paper_example();
    let path = path.to_str().unwrap();
    let args = ["aggregate", path, "--algo", "Exact", "--json"];
    let (local, stderr, ok) = rawt(&args);
    assert!(ok, "{stderr}");
    let (remote, stderr, ok) = rawt(&[&args[..], &["--remote", &server.1]].concat());
    assert!(ok, "{stderr}");
    assert!(local.contains("\"elapsed_secs\":"), "{local}");
    assert_eq!(mask_secs(&remote), mask_secs(&local));
}

/// A dataset id the server would refuse is refused by the client, with
/// the server's message, before anything is sent: the id can never
/// split the request line and come back as some other error.
#[test]
fn a_bad_session_id_is_refused_before_anything_is_sent() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Whatever dials in is noted and hung up on.
    let dialled = std::sync::Arc::new(AtomicBool::new(false));
    let noted = std::sync::Arc::clone(&dialled);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            noted.store(true, Ordering::SeqCst);
            drop(stream);
        }
    });
    let path = write_paper_example();
    let out = Command::new(env!("CARGO_BIN_EXE_rawt"))
        .args(["session", path.to_str().unwrap(), "--remote", &addr])
        .args(["--id", "bad id"])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "rawt: bad dataset id \"bad id\" (1-64 characters from [A-Za-z0-9_-])\n"
    );
    assert!(
        !dialled.load(Ordering::SeqCst),
        "the client dialled the server"
    );
}
