//! `http_idle`: the real `serve_http` binary over one packed artifact,
//! one closed-loop client posting `/v1/recover` on a fresh connection
//! per request.

use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_artifact::Artifact;
use rntrajrec_models::{FeatureExtractor, SampleInput};
use rntrajrec_roadnet::RTree;
use rntrajrec_serve::http::client;
use rntrajrec_serve::{
    BrownoutConfig, CityShard, EngineConfig, QueryContext, ServingModel, ShardRouter,
};

use crate::oracle::{tape_reference, teacher_forced_loss, Expected};
use crate::probes::{self, post};
use crate::report::Report;
use crate::stats::{median, summarize};
use crate::trace::{ledger, Tracer};
use crate::{gen, sys, RunConfig, DOWNSAMPLE, EVAL_SEED, SETUP_REPS};

/// The DEPLOYMENT.md artifact shape.
pub const BLOCKS: usize = 8;
pub const DIM: usize = 16;
pub const TRIP_LEN: usize = 33;
/// Distinct request bodies; the client cycles through them.
pub const POOL: usize = 64;
/// A response slower than this misses the SLO.
pub const SLO_MS: f64 = 50.0;
/// The client thinks for a seeded uniform 0..THINK_MS between a
/// response and its next request. Back to back, requests phase-lock to
/// the server's own timers and the tail flips between modes from run
/// to run.
pub const THINK_MS: f64 = 10.0;

const READY_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// The engine settings `serve_http` runs with when every flag is at its
/// default, for the in-process replay.
fn serve_http_engine_config() -> EngineConfig {
    EngineConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(2),
        workers: 2,
        threads_per_worker: 0,
        queue_capacity: Some(64),
        batch_timeout: Some(Duration::from_secs(30)),
        brownout: Some(BrownoutConfig::for_queue_capacity(64)),
        ..EngineConfig::default()
    }
}

struct Server {
    child: Child,
    addr: SocketAddr,
}

/// Spawn the server and wait until `/healthz` answers 200.
fn boot(cfg: &RunConfig, artifact: &Path, rep: usize) -> Result<Server, String> {
    let bin = cfg.serve_http.as_ref().ok_or("--serve-http is required")?;
    let log = cfg.work_dir.join(format!("serve_http.{rep}.out"));
    let out = File::create(&log).map_err(|e| e.to_string())?;
    let err = File::create(cfg.work_dir.join(format!("serve_http.{rep}.err")))
        .map_err(|e| e.to_string())?;
    let mut child = Command::new(bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--artifact")
        .arg(artifact)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let started = Instant::now();
    let addr = loop {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        if let Some(rest) = text
            .lines()
            .find_map(|l| l.strip_prefix("listening on http://"))
        {
            break rest
                .trim()
                .parse::<SocketAddr>()
                .map_err(|e| e.to_string())?;
        }
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Err(format!("serve_http exited with {status} before listening"));
        }
        if started.elapsed() > READY_TIMEOUT {
            let _ = sys::stop(&mut child, Duration::from_secs(1));
            return Err("serve_http did not start listening".to_string());
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    loop {
        if client::get(addr, "/healthz").is_ok_and(|r| r.status == 200) {
            return Ok(Server { child, addr });
        }
        if started.elapsed() > READY_TIMEOUT {
            let _ = sys::stop(&mut child, Duration::from_secs(1));
            return Err("serve_http never reported healthy".to_string());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// One closed-loop phase against the server.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    ttfs_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Client latency minus the server-reported engine latency.
    overhead_ms: Vec<f64>,
    /// (body index, send, end) per request, for the ledger.
    sent_log: Vec<(usize, Instant, Instant)>,
    sent: u64,
    succeeded: u64,
    failed: u64,
    slo_met: u64,
    wall: Duration,
}

fn drive(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[Expected],
    order: &[(usize, Duration)],
    span: Option<Duration>,
    report: &mut Report,
) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    let mut prev_end = start;
    for (k, &(i, think)) in order.iter().enumerate() {
        if span.is_some_and(|s| start.elapsed() >= s) {
            break;
        }
        let due = prev_end + think;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let send = Instant::now();
        ph.late_ms
            .push(send.saturating_duration_since(due).as_secs_f64() * 1e3);
        let posted = post(addr, "/v1/recover", &bodies[i]);
        let end = Instant::now();
        prev_end = end;
        ph.sent += 1;
        ph.sent_log.push((i, send, end));
        let latency = (end - send).as_secs_f64() * 1e3;
        ph.latency_ms.push(latency);
        let verdict = posted.and_then(|p| {
            ph.ttfs_ms
                .push(p.first_byte.saturating_duration_since(send).as_secs_f64() * 1e3);
            if p.status != 200 {
                return Err(format!("status {}: {}", p.status, p.body));
            }
            let resp = RecoverResponse::from_json(&p.body).map_err(|e| format!("{e:?}"))?;
            ph.overhead_ms.push(latency - resp.latency_ms);
            let path = resp.path();
            ph.gap_ms.push(latency / path.len().max(1) as f64);
            expected[i].check(&path)
        });
        match verdict {
            Ok(()) => {
                ph.succeeded += 1;
                ph.slo_met += u64::from(latency <= SLO_MS);
            }
            Err(why) => {
                ph.failed += 1;
                report.fail(format!("request {k}: {why}"));
            }
        }
    }
    ph.wall = prev_end - start;
    ph
}

impl Phase {
    fn counts(&self) -> serde_json::Value {
        serde_json::json!({
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejected": 0,
        })
    }
}

pub fn run(cfg: &RunConfig, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let pack = cfg.pack_city.as_ref().ok_or("--pack-city is required")?;
    let artifact_path = cfg.work_dir.join("city.rnta");
    let status = Command::new(pack)
        .args(["--city", "bench", "--blocks"])
        .arg(BLOCKS.to_string())
        .arg("--dim")
        .arg(DIM.to_string())
        .arg("--out")
        .arg(&artifact_path)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", pack.display()))?;
    if !status.success() {
        return Err(format!("pack_city failed: {status}"));
    }

    // The same artifact in-process: the tape references, and the
    // inputs exactly as the server extracts them.
    let artifact = Artifact::read_from(&artifact_path).map_err(|e| e.to_string())?;
    let loaded = artifact.instantiate().map_err(|e| e.to_string())?;
    let net = &loaded.city.net;
    let ctx = QueryContext::new(net.clone(), artifact.meta.cell_m);
    let trips = gen::trips(net, cfg.seed, "trips", TRIP_LEN, POOL, DOWNSAMPLE);
    let bodies: Vec<String> = trips.iter().map(gen::request_body).collect();
    let mut expected = Vec::new();
    for body in &bodies {
        let req = RecoverRequest::from_json(body).map_err(|e| format!("{e:?}"))?;
        let input = ctx.sample_input(&req).map_err(|e| e.to_string())?;
        let path = tape_reference(&loaded.model, &input);
        expected.push(Expected::new(path, &input, net.num_segments()));
    }
    let rtree = RTree::build(net);
    let fx = FeatureExtractor::new(net, &rtree, loaded.grid);
    let truth: Vec<SampleInput> = trips.iter().map(|t| fx.extract(t)).collect();
    let eval: Vec<SampleInput> = gen::trips(net, EVAL_SEED, "eval", TRIP_LEN, 4, DOWNSAMPLE)
        .iter()
        .map(|t| fx.extract(t))
        .collect();
    report.e2e.final_loss = teacher_forced_loss(&loaded.model, &eval);

    // Set-up: spawn until /healthz answers, several times.
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    let mut drain_failures = Vec::new();
    for rep in 0..SETUP_REPS.min(3) {
        if let Some(mut s) = server.take() {
            drain_failures.extend(sys::stop(&mut s.child, DRAIN_GRACE).err());
        }
        let started = Instant::now();
        server = Some(boot(cfg, &artifact_path, rep)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut server = server.expect("at least one set-up");
    let outcome = measure(
        cfg,
        trace,
        &mut report,
        &server,
        &bodies,
        &expected,
        &setup_s,
    );
    report.e2e.peak_rss_mb = sys::peak_rss_mb(Some(server.child.id())).unwrap_or(f64::NAN);
    drain_failures.extend(sys::stop(&mut server.child, DRAIN_GRACE).err());
    // A server that does not drain on SIGTERM is killed and noted; it
    // does not change what the run measured.
    report.detail("server_drain_failures", serde_json::json!(drain_failures));
    outcome?;

    if trace {
        let mut tracer = report.tracer.take().expect("traced phase ran");
        // Replay the traced requests in-process on the same artifact and
        // engine settings, layer by layer.
        let serving = Arc::new(
            ServingModel::from_parts(loaded.model, loaded.x_road, loaded.quant, false)
                .map_err(|e| e.to_string())?,
        );
        let engine = crate::engine::start_engine(Arc::clone(&serving), serve_http_engine_config());
        let router = Arc::new(ShardRouter::new(vec![CityShard::new(
            "bench",
            Arc::clone(&engine),
            Arc::new(ctx),
            None,
        )]));
        let roots: Vec<(usize, usize)> = tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "http.request")
            .map(|(id, s)| (id, s.req as usize))
            .collect();
        let order: Vec<usize> = roots.iter().map(|&(_, i)| i).collect();
        let before = engine.stats();
        let rows = probes::replay(
            &mut Tracer::new(false),
            &router,
            &bodies,
            &order,
            Some(&expected),
            &mut report,
        );
        let after = engine.stats();
        report.attempted += order.len() as u64;
        for row in &rows {
            tracer.record_replayed(Some(roots[row.k].0), &row.layers);
        }
        let led = ledger(tracer.spans(), "http.request");
        report.layer(
            "ledger.coverage",
            median(&led.iter().map(|r| r.0).collect::<Vec<_>>()),
        );
        report.layer(
            "ledger.unattributed_ms",
            median(&led.iter().map(|r| r.1).collect::<Vec<_>>()),
        );
        probes::replay_engine_layers(
            &rows,
            (
                after.requests - before.requests,
                after.admitted - before.admitted,
                after.batches - before.batches,
                after.flushed_deadline - before.flushed_deadline,
            ),
            &mut report,
        );
        let city_cfg = artifact.meta.city_params.to_config();
        let grid = net.grid(artifact.meta.cell_m);
        let shape = probes::Shape {
            city: &city_cfg,
            net,
            grid: &grid,
            dim: DIM,
            serving: &serving,
            inputs: &truth,
            bodies: &bodies,
            router: &router,
            work_dir: &cfg.work_dir,
        };
        probes::common(&mut tracer, &shape, &mut report)?;
        probes::train(&mut tracer, &shape, &mut report);
        let (read, inst) = probes::artifact_load(&mut tracer, &artifact_path)?;
        report.layer("artifact.read_ms", read);
        report.layer("artifact.instantiate_ms", inst);
        report.tracer = Some(tracer);
    }
    Ok(report)
}

fn measure(
    cfg: &RunConfig,
    trace: bool,
    report: &mut Report,
    server: &Server,
    bodies: &[String],
    expected: &[Expected],
    setup_s: &[f64],
) -> Result<(), String> {
    // Warm-up: every body once; its time counts toward setup_s.
    let warm_order: Vec<(usize, Duration)> =
        (0..bodies.len()).map(|i| (i, Duration::ZERO)).collect();
    let warm = drive(server.addr, bodies, expected, &warm_order, None, report);
    report.attempted += warm.sent;
    report.e2e.setup_s = median(setup_s) + warm.wall.as_secs_f64();
    report.detail("phase_warmup", warm.counts());

    let order = gen::think_order(cfg.seed, 1 << 16, bodies.len(), THINK_MS);
    let seconds = Duration::from_secs_f64(cfg.seconds);
    if !trace {
        let ph = drive(server.addr, bodies, expected, &order, Some(seconds), report);
        report.attempted += ph.sent;
        report.e2e.slo_attempted = ph.sent;
        report.e2e.slo_met = ph.slo_met;
        report.e2e.throughput = ph.succeeded as f64 / ph.wall.as_secs_f64().max(1e-9);
        report.detail("phase_measure", ph.counts());
        crate::engine::generator_check(report, &ph.late_ms);
        report.e2e.latency_ms = ph.latency_ms;
        report.e2e.ttfs_ms = ph.ttfs_ms;
        report.e2e.step_gap_ms = ph.gap_ms;
        return Ok(());
    }
    let half = seconds / 2;
    let base = drive(server.addr, bodies, expected, &order, Some(half), report);
    let mut tracer = Tracer::new(true);
    let ph = drive(server.addr, bodies, expected, &order, Some(half), report);
    report.attempted += base.sent + ph.sent;
    report.detail("phase_untraced", base.counts());
    report.detail("phase_traced", ph.counts());
    for &(i, send, end) in &ph.sent_log {
        tracer.record("http.request", i as u64, None, send, end);
    }
    report.layer("http.overhead_p50_ms", median(&ph.overhead_ms));
    report.layer("bench.gen_late_p99_ms", summarize(&ph.late_ms).p99.value);
    report.layer("bench.sent", ph.sent as f64);
    report.layer("bench.succeeded", ph.succeeded as f64);
    report.layer("bench.failed", ph.failed as f64);
    report.layer(
        "bench.trace_overhead",
        median(&ph.latency_ms) / median(&base.latency_ms),
    );
    report.tracer = Some(tracer);
    Ok(())
}
