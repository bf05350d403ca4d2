//! End-to-end and per-layer benchmark of the rank aggregation system.
//!
//! ```text
//! perfbench --workload serve|session --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Runs one closed-loop workload for `S` seconds on inputs generated from
//! `N`, checks every op's output after the measured phase, and prints as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones
//! (`END_TO_END`); with `--trace 1` traced and untraced ops take turns
//! and the metrics are the per-layer ones (`PER_LAYER`), preceded by the
//! workload's waterfall and the tracing overhead. See README.md.

mod common;
mod host;
mod serve;
mod session;
mod stats;
mod trace;

use common::{Config, RunResult};
use stats::median;
use std::path::PathBuf;
use std::process::ExitCode;

/// A workload's entry point.
type Workload = fn(&Config) -> RunResult;

/// The workloads, by name. Both are bound more by the wire and the
/// servers' threads than by CPU speed. A CPU-bound workload running the
/// paper's algorithm panel in-process is left out: on a shared host its
/// timings follow the host's CPU speed, which alternates between regimes
/// up to ~1.8x apart for seconds to minutes, and ten runs spread by up to
/// a third of their median.
const WORKLOADS: &[(&str, Workload)] = &[("serve", serve::run), ("session", session::run)];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("success_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gap_to_lb_pct", "%"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that does
/// not touch a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("parse.ms", "ms"),
    ("normalize.ms", "ms"),
    ("pairs.build_ms", "ms"),
    ("pairs.score_ms", "ms"),
    ("algorithms.solve_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.builds_per_op", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("proto.serialize_ms", "ms"),
    ("client.submit_ms", "ms"),
    ("client.first_event_ms", "ms"),
    ("client.stream_ms", "ms"),
    ("client.status_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("http.tw_per_op", "count"),
    ("client.patch_ms", "ms"),
    ("client.resolve_ms", "ms"),
    ("session.rounds_per_op", "count"),
    ("session.patch_ms", "ms"),
    ("session.rebuild_ms", "ms"),
    ("journal.bytes_per_op", "bytes"),
    ("unattributed_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Close a traced run: the traced and untraced op medians, the tracing
/// overhead between them, `unattributed_ms` (the traced median minus the
/// medians of the waterfall's layers), and the spans written to the work
/// directory.
pub fn finish_trace(
    cfg: &Config,
    result: &mut RunResult,
    tracer: &trace::Tracer,
    traced_ms: &[f64],
    untraced_ms: &[f64],
) {
    let traced = median(traced_ms);
    let untraced = median(untraced_ms);
    let attributed: f64 = result
        .waterfall
        .iter()
        .map(|name| layer(result, name))
        .sum();
    result.layers.push(("unattributed_ms", traced - attributed));
    result.layers.push(("trace.op_p50_ms", traced));
    result.layers.push(("trace.untraced_op_p50_ms", untraced));
    result.layers.push(("trace.overhead_ms", traced - untraced));
    let path = cfg
        .work_dir
        .join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
}

fn layer(result: &RunResult, name: &str) -> f64 {
    result
        .layers
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload serve|session --seed N --seconds S --trace 0|1 [--work-dir DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == workload) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        return usage(&format!("cannot create {}: {e}", work_dir.display()));
    }
    let host = host::host_block_json();
    let cfg = Config {
        workload: name,
        seed,
        seconds,
        trace,
        work_dir,
    };
    let sampler = host::StealSampler::start();
    let result = run(&cfg);
    let cpu = sampler.stop();

    let completed = result.attempted - result.failed.min(result.attempted);
    let steady = stats::chunked(
        &result.samples,
        result.measure_start.unwrap_or_else(std::time::Instant::now),
        result.chunk,
        &cpu,
    );
    let problems: Vec<String> = result
        .problems
        .iter()
        .map(|p| format!("\"{}\"", service::json::escape(p)))
        .collect();
    println!(
        "{{\"record\":{{\"workload\":\"{name}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"samples\":{},\"chunks\":{},\"quiet_chunks\":{},\"steal_pct\":{:.2},\"quiet_steal_pct\":{:.2},\"attempted\":{},\"failed\":{},\"problems\":[{}],\"host\":{host}}}}}",
        result.samples.len(),
        steady.chunks,
        steady.quiet,
        100.0 * steady.steal,
        100.0 * steady.quiet_steal,
        result.attempted,
        result.failed,
        problems.join(",")
    );
    let metrics: Vec<String> = if trace {
        println!(
            "waterfall ({name}, traced op p50 {:.4} ms):",
            layer(&result, "trace.op_p50_ms")
        );
        for step in result.waterfall.iter().chain(["unattributed_ms"].iter()) {
            println!("  {step:<28} {:>10.4} ms", layer(&result, step));
        }
        println!(
            "  tracing overhead: {:.4} ms on the op p50 (untraced {:.4} ms)",
            layer(&result, "trace.overhead_ms"),
            layer(&result, "trace.untraced_op_p50_ms")
        );
        PER_LAYER
            .iter()
            .map(|&(n, unit)| metric_json(n, layer(&result, n), unit))
            .collect()
    } else {
        let value = |n: &str| match n {
            "ops_per_s" => steady.ops_per_s,
            "op_p50_ms" => steady.p50,
            "op_p90_ms" => steady.p90,
            "success_pct" => 100.0 * completed as f64 / result.attempted.max(1) as f64,
            "setup_s" => stats::quiet_median(&result.setups, &cpu),
            "peak_rss_mb" => result.peak_rss_mb,
            "gap_to_lb_pct" => result.gap_to_lb_pct,
            _ => unreachable!("END_TO_END names are matched above"),
        };
        END_TO_END
            .iter()
            .map(|&(n, unit)| metric_json(n, value(n), unit))
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0 && result.attempted > 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
