//! The repository benchmark: seeded workloads over the RNTrajRec serving
//! and training stack, with end-to-end metrics (`--trace 0`) or per-layer
//! metrics from a traced run (`--trace 1`).
//!
//! ```text
//! python3 perfbench/run.py --workload http_idle --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and the repository's `serve_http` and
//! `pack_city` binaries, then runs this program. The last line of
//! standard output is the JSON result; the lines before it name every
//! metric with its unit, the correctness verdict and the run context.

mod engine;
mod gen;
mod http_idle;
mod oracle;
mod probes;
mod report;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_line, Report, END_TO_END, PER_LAYER};

/// Grid cell size of every model and feature extractor (the paper's).
pub const CELL_M: f64 = 50.0;
/// Every trip is observed at every 8th ground-truth step.
pub const DOWNSAMPLE: usize = 8;
/// Serving weights are untrained; latency does not depend on them.
pub const MODEL_SEED: u64 = 7;
/// Seed of the four trips the serving workloads' `final_loss` is taken
/// on: fixed, so that it moves only when the model's arithmetic does.
pub const EVAL_SEED: u64 = 0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// A generator whose tail lateness exceeds this fell behind.
pub const GENERATOR_LATE_LIMIT_MS: f64 = 5.0;

pub const WORKLOADS: &[&str] = &["http_idle", "bulk_offline", "train_epoch"];

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only compute the tape references into the work directory
    /// (`bulk_offline` runs itself this way as a child process).
    pub oracle: bool,
    pub work_dir: PathBuf,
    pub serve_http: Option<PathBuf>,
    pub pack_city: Option<PathBuf>,
    /// The source revision under test, for the record.
    pub revision: String,
}

/// What each workload runs, for the record.
fn workload_params(name: &str) -> serde_json::Value {
    match name {
        "http_idle" => serde_json::json!({
            "city_blocks": http_idle::BLOCKS,
            "d": http_idle::DIM,
            "trip_lengths": [http_idle::TRIP_LEN],
            "distinct_bodies": http_idle::POOL,
            "load": serde_json::json!({"loop": "closed", "clients": 1, "connection": "fresh per request"}),
            "slo": serde_json::json!({"latency_ms": http_idle::SLO_MS}),
            "server": "serve_http defaults over one pack_city artifact",
        }),
        "bulk_offline" => serde_json::json!({
            "city_blocks": engine::BLOCKS,
            "d": engine::DIM,
            "trip_lengths": [engine::TRIP_LEN],
            "distinct_trips": engine::TRIPS,
            "load": serde_json::json!({"loop": "closed", "window": engine::window()}),
            "slo": serde_json::json!({"latency_ms": engine::SLO_MS}),
            "engine": "EngineConfig::default()",
        }),
        _ => serde_json::json!({
            "dataset": format!("chengdu(downsample {DOWNSAMPLE}, {} trajectories)", train::TRAJECTORIES),
            "d": train::DIM,
            "batch": train::BATCH,
            "slo": serde_json::json!({"step_ms": train::SLO_STEP_MS}),
        }),
    }
}

fn context(cfg: &RunConfig) -> serde_json::Value {
    serde_json::json!({
        "workload": cfg.workload.clone(),
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "kernel_backend": rntrajrec_nn::kernels::backend::active_name(),
        "pool_threads": rntrajrec_nn::pool::num_threads(),
        "revision": cfg.revision.clone(),
        "params": workload_params(&cfg.workload),
    })
}

fn parse_args() -> Result<(RunConfig, PathBuf), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut serve_http, mut pack_city, mut out, mut revision) = (None, None, None, None);
    let mut oracle = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--oracle" {
            oracle = true;
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--serve-http" => serve_http = Some(PathBuf::from(value()?)),
            "--pack-city" => pack_city = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--revision" => revision = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let out = out.unwrap_or_else(|| PathBuf::from("target/perfbench"));
    let cfg = RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        // The reference child shares its parent's work directory.
        work_dir: out.join(format!(
            "work-{}",
            if oracle {
                std::os::unix::process::parent_id()
            } else {
                std::process::id()
            }
        )),
        oracle,
        serve_http,
        pack_city,
        revision: revision.unwrap_or_else(|| "not given".to_string()),
    };
    Ok((cfg, out))
}

fn run(cfg: &RunConfig) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "http_idle" => http_idle::run(cfg, cfg.trace),
        "bulk_offline" => engine::run(cfg, cfg.trace),
        _ => train::run(cfg, cfg.trace),
    }
}

fn main() -> ExitCode {
    let (cfg, out) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    if cfg.oracle {
        return match run(&cfg) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: references for {} failed: {e}", cfg.workload);
                ExitCode::FAILURE
            }
        };
    }
    let ctx = context(&cfg);
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let (values, spec) = if cfg.trace {
        (report.layers.clone(), PER_LAYER)
    } else {
        (report.end_to_end(), END_TO_END)
    };
    let line = match result_line(&report, &values, spec) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "run context: {}",
        serde_json::to_string(&ctx).expect("json")
    );
    for (name, unit) in spec {
        println!("  {name:<30} {:>14.4} {unit}", values[name]);
    }
    if !cfg.trace {
        // From how many samples each timing was summarized, the
        // percentile its `_p90` was read at, and the run's median and p99
        // tail (recorded, not bounded).
        for key in ["latency_samples", "ttfs_samples", "step_gap_samples"] {
            let samples = serde_json::to_string(&report.details[key]).expect("json");
            println!("  {key:<30} {samples}");
        }
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "correct: {} ({} attempted, {} failed, error_rate {error_rate:.6}){}",
        report.correct(),
        report.attempted,
        report.failed,
        report
            .first_failure
            .as_ref()
            .map(|f| format!("; first failure: {f}"))
            .unwrap_or_default()
    );
    if let Some(t) = &report.tracer {
        println!("self time by span (traced run):");
        for (name, (n, total, own)) in trace::self_time_table(t.spans()) {
            println!("  {name:<24} {n:>7} spans {total:>12.3} ms total {own:>12.3} ms self");
        }
    }

    let tag = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let details: Vec<(String, serde_json::Value)> = report
        .details
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let metrics: Vec<(String, serde_json::Value)> = spec
        .iter()
        .map(|(n, u)| {
            (
                n.to_string(),
                serde_json::json!({"value": values[n], "unit": *u}),
            )
        })
        .collect();
    let record = serde_json::json!({
        "context": ctx,
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "error_rate": error_rate,
        "first_failure": report.first_failure.clone(),
        "metrics": serde_json::Value::Object(metrics),
        "details": serde_json::Value::Object(details),
    });
    let mut files = vec![(format!("record-{tag}.json"), record)];
    if let Some(t) = &report.tracer {
        files.push((format!("spans-{tag}.json"), t.to_json()));
    }
    for (name, value) in files {
        let path = out.join(name);
        let text = serde_json::to_string_pretty(&value).expect("json");
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
