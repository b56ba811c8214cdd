//! `bulk_offline`: the in-process engine under a closed window of
//! streamed long trips.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec_models::{FeatureExtractor, SampleInput};
use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
use rntrajrec_serve::{
    CityShard, EngineConfig, QueryContext, RecoveryEngine, RecoveryHandle, ServingModel,
    ShardRouter, StepWait, SubmitOptions,
};

use crate::oracle::{
    read_references, tape_reference, teacher_forced_loss, write_references, Expected,
};
use crate::report::Report;
use crate::stats::{mean, median, summarize};
use crate::trace::{ledger, Tracer};
use crate::{gen, probes, sys, RunConfig, CELL_M, DOWNSAMPLE, EVAL_SEED, MODEL_SEED, SETUP_REPS};

pub const BLOCKS: usize = 14;
pub const DIM: usize = 128;
/// Ground-truth steps of every trip.
pub const TRIP_LEN: usize = 129;
/// Distinct trips; requests draw from them.
pub const TRIPS: usize = 16;
/// A response slower than this misses the SLO.
pub const SLO_MS: f64 = 2000.0;
/// How often the generator thread polls its handles for step events.
const POLL: Duration = Duration::from_micros(500);

/// Requests outstanding at all times: two full batches.
pub fn window() -> usize {
    2 * EngineConfig::default().max_batch
}

/// A closed loop: `window` requests outstanding until `span` has passed
/// or `count` requests were sent, each sending `order[k % len]`.
struct Plan {
    window: usize,
    span: Option<Duration>,
    count: Option<usize>,
    order: Vec<usize>,
}

impl Plan {
    fn sending(&self, start: Instant, next: usize) -> bool {
        self.span.is_none_or(|s| Instant::now() < start + s) && self.count.is_none_or(|c| next < c)
    }
}

struct Live {
    h: RecoveryHandle,
    input: usize,
    req: u64,
    submit_start: Instant,
    submitted: Instant,
    first: Option<Instant>,
    last: Option<Instant>,
    steps: usize,
    step_error: Option<String>,
}

/// What one phase of load measured.
#[derive(Default)]
pub struct Phase {
    pub latency_ms: Vec<f64>,
    pub ttfs_ms: Vec<f64>,
    pub gap_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub batch_size: Vec<f64>,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub rejected: u64,
    pub slo_met: u64,
    /// Start of the phase to its last completion.
    pub wall: Duration,
    pub stats_delta: (u64, u64, u64, u64),
}

impl Phase {
    pub fn counts(&self) -> serde_json::Value {
        serde_json::json!({
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejected": self.rejected,
        })
    }
}

fn drain_steps(l: &mut Live, expected: &Expected) {
    while let StepWait::Step(s) = l.h.next_step(Duration::ZERO) {
        let at = Instant::now();
        l.first.get_or_insert(at);
        l.last = Some(at);
        let want = expected.path.get(s.step);
        let ok = s.step == l.steps
            && want.is_some_and(|w| w.0 == s.segment && w.1.to_bits() == s.rate.to_bits());
        if !ok && l.step_error.is_none() {
            l.step_error = Some(format!(
                "streamed step {} ({}, {}) disagrees with the reference {want:?}",
                s.step, s.segment, s.rate
            ));
        }
        l.steps += 1;
    }
}

/// Drive `engine` through `plan` from one generator thread, which also
/// polls every outstanding handle for step events. Requests are timed
/// from submission; the generator is late by the time between a slot
/// freeing and its next submission.
fn drive(
    engine: &RecoveryEngine,
    inputs: &[SampleInput],
    expected: &[Expected],
    plan: &Plan,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Phase {
    let mut ph = Phase::default();
    let before = engine.stats();
    let start = Instant::now();
    let mut next = 0usize;
    let mut live: Vec<Live> = Vec::new();
    // When each free slot of the window freed.
    let mut freed: VecDeque<Instant> = std::iter::repeat_n(start, plan.window).collect();
    let mut last_done = start;
    loop {
        while live.len() < plan.window && plan.sending(start, next) {
            let k = next;
            next += 1;
            let slot = freed.pop_front().unwrap_or(start);
            let input = plan.order[k % plan.order.len()];
            let owned = inputs[input].clone();
            let submit_start = Instant::now();
            ph.late_ms
                .push(submit_start.saturating_duration_since(slot).as_secs_f64() * 1e3);
            let res = engine.submit(owned, SubmitOptions::new().stream());
            let submitted = Instant::now();
            ph.sent += 1;
            match res {
                Ok(h) => live.push(Live {
                    h,
                    input,
                    req: k as u64,
                    submit_start,
                    submitted,
                    first: None,
                    last: None,
                    steps: 0,
                    step_error: None,
                }),
                Err(e) => {
                    ph.rejected += 1;
                    ph.failed += 1;
                    freed.push_back(submitted);
                    report.fail(format!("request {k} rejected: {e}"));
                }
            }
        }
        let mut i = 0;
        while i < live.len() {
            let exp = &expected[live[i].input];
            drain_steps(&mut live[i], exp);
            let Some(r) = live[i].h.poll().cloned() else {
                i += 1;
                continue;
            };
            drain_steps(&mut live[i], exp);
            let l = live.swap_remove(i);
            let done = Instant::now();
            last_done = done;
            freed.push_back(done);
            let verdict = match (&r.error, &l.step_error) {
                (Some(e), _) => Err(format!("engine error: {e}")),
                (None, Some(e)) => Err(e.clone()),
                (None, None) if l.steps != r.path.len() => Err(format!(
                    "stream delivered {} of {} steps",
                    l.steps,
                    r.path.len()
                )),
                (None, None) => exp.check(&r.path),
            };
            let latency = (done - l.submit_start).as_secs_f64() * 1e3;
            if let Some(f) = l.first {
                ph.ttfs_ms.push((f - l.submit_start).as_secs_f64() * 1e3);
            }
            if let (Some(f), Some(z)) = (l.first, l.last) {
                if l.steps > 1 {
                    ph.gap_ms
                        .push((z - f).as_secs_f64() * 1e3 / (l.steps - 1) as f64);
                }
            }
            ph.latency_ms.push(latency);
            ph.queue_wait_ms.push(r.queue_wait.as_secs_f64() * 1e3);
            ph.compute_ms.push(r.compute.as_secs_f64() * 1e3);
            ph.batch_size.push(r.batch_size as f64);
            match verdict {
                Ok(()) => {
                    ph.succeeded += 1;
                    ph.slo_met += u64::from(latency <= SLO_MS);
                }
                Err(why) => {
                    ph.failed += 1;
                    report.fail(format!("request {}: {why}", l.req));
                }
            }
            if tracer.enabled() {
                let root = tracer.record("engine.request", l.req, None, l.submit_start, done);
                tracer.record("engine.submit", l.req, root, l.submit_start, l.submitted);
                let waited = l.submitted + r.queue_wait;
                tracer.record("engine.queue_wait", l.req, root, l.submitted, waited);
                tracer.record("engine.compute", l.req, root, waited, waited + r.compute);
            }
        }
        if !plan.sending(start, next) && live.is_empty() {
            break;
        }
        std::thread::sleep(POLL);
    }
    ph.wall = last_done - start;
    let after = engine.stats();
    ph.stats_delta = (
        after.requests - before.requests,
        after.admitted - before.admitted,
        after.batches - before.batches,
        after.flushed_deadline - before.flushed_deadline,
    );
    ph
}

/// Time per trajectory of a phase, for the tracing-overhead ratio.
fn ms_per_traj(ph: &Phase) -> f64 {
    ph.wall.as_secs_f64() * 1e3 / ph.succeeded.max(1) as f64
}

pub fn run(cfg: &RunConfig, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let city_cfg = CityConfig {
        blocks_x: BLOCKS,
        blocks_y: BLOCKS,
        ..CityConfig::default()
    };

    // Inputs and their tape references; none of this is timed.
    let city = SyntheticCity::generate(city_cfg.clone());
    let num_segments = city.net.num_segments();
    let rtree = RTree::build(&city.net);
    let grid = city.net.grid(CELL_M);
    let fx = FeatureExtractor::new(&city.net, &rtree, grid);
    let trips = gen::trips(&city.net, cfg.seed, "trips", TRIP_LEN, TRIPS, DOWNSAMPLE);
    let inputs: Vec<SampleInput> = trips.iter().map(|t| fx.extract(t)).collect();
    let bodies: Vec<String> = trips.iter().map(gen::request_body).collect();
    // The tape references come from a child process, so that this
    // process's memory high-water mark is the serving stack's alone.
    let refs = cfg.work_dir.join("references.txt");
    if cfg.oracle {
        let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, DIM, MODEL_SEED);
        let paths: Vec<_> = inputs.iter().map(|i| tape_reference(&model, i)).collect();
        let eval: Vec<SampleInput> =
            gen::trips(&city.net, EVAL_SEED, "eval", TRIP_LEN, 4, DOWNSAMPLE)
                .iter()
                .map(|t| fx.extract(t))
                .collect();
        write_references(&refs, teacher_forced_loss(&model, &eval), &paths)?;
        return Ok(report);
    }
    let status = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(std::env::args().skip(1))
        .arg("--oracle")
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("reference process failed: {status}"));
    }
    let (loss, paths) = read_references(&refs)?;
    if paths.len() != inputs.len() {
        return Err("reference process returned the wrong number of paths".to_string());
    }
    report.e2e.final_loss = loss;
    let expected: Vec<Expected> = paths
        .into_iter()
        .zip(&inputs)
        .map(|(path, i)| Expected::new(path, i, num_segments))
        .collect();

    // Set-up: city, model and `ServingModel::new` several times, each
    // copy dropped before the next is built; the last one serves. Its
    // engine is the only one started.
    let mut build_s = Vec::new();
    let mut serving = None;
    for _ in 0..SETUP_REPS {
        drop(serving.take());
        let t = Instant::now();
        let c = SyntheticCity::generate(city_cfg.clone());
        let g = c.net.grid(CELL_M);
        let m = EndToEnd::build(&MethodSpec::RnTrajRec, &c.net, &g, DIM, MODEL_SEED);
        serving = Some(Arc::new(ServingModel::new(m).map_err(|e| e.to_string())?));
        build_s.push(t.elapsed().as_secs_f64());
    }
    let serving = serving.expect("at least one set-up");
    let t = Instant::now();
    let engine = start_engine(Arc::clone(&serving), EngineConfig::default());
    let start_s = t.elapsed().as_secs_f64();

    // Warm-up: every distinct input once. Not timed, but its cost shows
    // in setup_s.
    let warm_plan = Plan {
        window: window(),
        span: None,
        count: Some(inputs.len()),
        order: (0..inputs.len()).collect(),
    };
    let mut off = Tracer::new(false);
    let warm = drive(
        &engine,
        &inputs,
        &expected,
        &warm_plan,
        &mut off,
        &mut report,
    );
    report.e2e.setup_s = median(&build_s) + start_s + warm.wall.as_secs_f64();
    report.detail(
        "setup",
        serde_json::json!({
            "build_s": build_s,
            "engine_start_s": start_s,
            "warmup_s": warm.wall.as_secs_f64(),
        }),
    );
    report.attempted += warm.sent;
    report.detail("phase_warmup", warm.counts());

    let seconds = Duration::from_secs_f64(cfg.seconds);
    if !trace {
        let plan = Plan {
            window: window(),
            span: Some(seconds),
            count: None,
            order: gen::pick_order(cfg.seed, 4096, inputs.len()),
        };
        let ph = drive(&engine, &inputs, &expected, &plan, &mut off, &mut report);
        report.attempted += ph.sent;
        report.e2e.latency_ms = ph.latency_ms.clone();
        report.e2e.ttfs_ms = ph.ttfs_ms.clone();
        report.e2e.step_gap_ms = ph.gap_ms.clone();
        report.e2e.slo_attempted = ph.sent;
        report.e2e.slo_met = ph.slo_met;
        report.e2e.throughput = ph.succeeded as f64 / ph.wall.as_secs_f64().max(1e-9);
        report.e2e.peak_rss_mb = sys::peak_rss_mb(None).unwrap_or(f64::NAN);
        report.detail("phase_measure", ph.counts());
        generator_check(&mut report, &ph.late_ms);
    } else {
        let half = seconds / 2;
        let plan = Plan {
            window: window(),
            span: Some(half),
            count: None,
            order: gen::pick_order(cfg.seed, 4096, inputs.len()),
        };
        let base = drive(&engine, &inputs, &expected, &plan, &mut off, &mut report);
        let mut tracer = Tracer::new(true);
        let ph = drive(&engine, &inputs, &expected, &plan, &mut tracer, &mut report);
        report.attempted += base.sent + ph.sent;
        report.detail("phase_untraced", base.counts());
        report.detail("phase_traced", ph.counts());
        let qw = summarize(&ph.queue_wait_ms);
        report.layer("engine.queue_wait_p50_ms", qw.p50);
        report.layer("engine.queue_wait_p99_ms", qw.p99.value);
        report.layer("engine.compute_p50_ms", median(&ph.compute_ms));
        report.layer("engine.batch_size_mean", mean(&ph.batch_size));
        let (requests, admitted, batches, by_deadline) = ph.stats_delta;
        report.layer(
            "engine.admitted_share",
            admitted as f64 / requests.max(1) as f64,
        );
        report.layer(
            "engine.flushed_deadline_share",
            by_deadline as f64 / batches.max(1) as f64,
        );
        let rows = ledger(tracer.spans(), "engine.request");
        report.layer(
            "ledger.coverage",
            median(&rows.iter().map(|r| r.0).collect::<Vec<_>>()),
        );
        report.layer(
            "ledger.unattributed_ms",
            median(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        );
        report.layer("bench.gen_late_p99_ms", summarize(&ph.late_ms).p99.value);
        report.layer("bench.sent", ph.sent as f64);
        report.layer("bench.succeeded", ph.succeeded as f64);
        report.layer("bench.failed", ph.failed as f64);
        report.layer(
            "bench.trace_overhead",
            ms_per_traj(&ph) / ms_per_traj(&base),
        );

        let ctx = Arc::new(QueryContext::new(city.net.clone(), CELL_M));
        let router = Arc::new(ShardRouter::new(vec![CityShard::new(
            "bench",
            Arc::clone(&engine),
            ctx,
            None,
        )]));
        let shape = probes::Shape {
            city: &city_cfg,
            net: &city.net,
            grid: &grid,
            dim: DIM,
            serving: &serving,
            inputs: &inputs,
            bodies: &bodies,
            router: &router,
            work_dir: &cfg.work_dir,
        };
        probes::common(&mut tracer, &shape, &mut report)?;
        probes::http_overhead(&mut tracer, &shape, &mut report)?;
        probes::train(&mut tracer, &shape, &mut report);
        report.tracer = Some(tracer);
    }
    Ok(report)
}

/// Start an engine that is never shut down. `RecoveryEngine`'s
/// shutdown sets its flag and notifies the workers without holding the
/// queue lock, so a worker between its shutdown check and its wait can
/// miss the wake-up and the join hangs (seen when an engine is dropped
/// right after start). Engines here live until the process exits, which
/// ends their threads.
pub fn start_engine(serving: Arc<ServingModel>, config: EngineConfig) -> Arc<RecoveryEngine> {
    let engine = Arc::new(RecoveryEngine::start(serving, config));
    std::mem::forget(Arc::clone(&engine));
    engine
}

/// Flag (never drop) a run whose generator fell behind.
pub fn generator_check(report: &mut Report, late_ms: &[f64]) {
    let late = summarize(late_ms);
    report.detail(
        "generator_late_ms",
        serde_json::json!({"p50": late.p50, "p99": late.p99.value, "p99_percentile": late.p99.pct}),
    );
    report.detail(
        "generator_fell_behind",
        serde_json::json!(late.p99.value > crate::GENERATOR_LATE_LIMIT_MS),
    );
}
