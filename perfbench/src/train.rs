//! `train_epoch`: RNTrajRec training epochs on a seeded Chengdu split.
//!
//! The benchmark shuffles each epoch and hands `Trainer::train_epoch`
//! one batch at a time, which makes every optimizer step observable
//! while keeping the trainer's own Adam state and loss code in charge.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::train::{TrainConfig, Trainer};
use rntrajrec_models::{FeatureExtractor, SampleInput};
use rntrajrec_nn::Adam;
use rntrajrec_roadnet::RTree;
use rntrajrec_serve::{CityShard, EngineConfig, QueryContext, ServingModel, ShardRouter};
use rntrajrec_synth::{DatasetConfig, SplitDataset};

use crate::oracle::teacher_forced_loss;
use crate::report::Report;
use crate::stats::{median, summarize};
use crate::trace::{ledger, Tracer};
use crate::{gen, probes, sys, RunConfig, CELL_M, DOWNSAMPLE, MODEL_SEED, SETUP_REPS};

pub const TRAJECTORIES: usize = 120;
pub const DIM: usize = 24;
pub const BATCH: usize = 8;
/// An optimizer step slower than this misses the SLO.
pub const SLO_STEP_MS: f64 = 400.0;

/// The fixed split every run trains on; `--seed` draws the epoch order
/// and the trainer's own randomness.
pub fn dataset_config() -> DatasetConfig {
    DatasetConfig::chengdu(DOWNSAMPLE, TRAJECTORIES)
}

/// One epoch's optimizer steps, as the benchmark observed them.
#[derive(Default)]
struct Epoch {
    step_ms: Vec<f64>,
    /// Epoch start to the end of its first step.
    first_ms: f64,
    /// Between consecutive step completions.
    gap_ms: Vec<f64>,
    /// From one step's end to the next step's start.
    late_ms: Vec<f64>,
    losses: Vec<f32>,
    samples: usize,
}

/// The epoch's batches in a seeded order, built before the clock runs.
fn batches(inputs: &[SampleInput], rng: &mut StdRng) -> Vec<Vec<SampleInput>> {
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.shuffle(rng);
    order
        .chunks(BATCH)
        .map(|c| c.iter().map(|&i| inputs[i].clone()).collect())
        .collect()
}

/// One epoch, one `Trainer::train_epoch` call per batch.
fn epoch(trainer: &mut Trainer, model: &mut EndToEnd, batches: &[Vec<SampleInput>]) -> Epoch {
    let mut e = Epoch::default();
    let start = Instant::now();
    let mut prev = start;
    for (k, batch) in batches.iter().enumerate() {
        let s = Instant::now();
        e.losses.push(trainer.train_epoch(model, batch));
        let end = Instant::now();
        e.step_ms.push((end - s).as_secs_f64() * 1e3);
        if k == 0 {
            e.first_ms = (end - start).as_secs_f64() * 1e3;
        } else {
            e.gap_ms.push((end - prev).as_secs_f64() * 1e3);
            e.late_ms.push((s - prev).as_secs_f64() * 1e3);
        }
        e.samples += batch.len();
        prev = end;
    }
    e
}

/// The bench's own epoch loop over `probes::train_step`, with spans.
fn traced_epoch(
    t: &mut Tracer,
    model: &mut EndToEnd,
    opt: &mut Adam,
    batches: &[Vec<SampleInput>],
    rng: &mut StdRng,
    matmuls: &mut Vec<f64>,
    late_ms: &mut Vec<f64>,
) -> usize {
    let mut prev: Option<Instant> = None;
    let mut samples = 0;
    for batch in batches {
        let refs: Vec<&SampleInput> = batch.iter().collect();
        let s = Instant::now();
        if let Some(p) = prev {
            late_ms.push((s - p).as_secs_f64() * 1e3);
        }
        let (_, m) = probes::train_step(t, model, opt, &refs, rng, matmuls.len() as u64);
        matmuls.push(m as f64);
        samples += batch.len();
        prev = Some(Instant::now());
    }
    samples
}

pub fn run(cfg: &RunConfig, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();

    // Set-up: dataset generation, feature extraction and model build,
    // several times; the last one trains.
    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS.min(3) {
        drop(stack.take());
        let t = Instant::now();
        let ds = SplitDataset::generate(dataset_config());
        let rtree = RTree::build(&ds.city.net);
        let grid = ds.city.net.grid(CELL_M);
        let fx = FeatureExtractor::new(&ds.city.net, &rtree, grid);
        let train: Vec<SampleInput> = ds.train.iter().map(|s| fx.extract(s)).collect();
        let held_out: Vec<SampleInput> = ds.valid.iter().map(|s| fx.extract(s)).collect();
        let model = EndToEnd::build(&MethodSpec::RnTrajRec, &ds.city.net, &grid, DIM, MODEL_SEED);
        setup_s.push(t.elapsed().as_secs_f64());
        stack = Some((ds, grid, train, held_out, model));
    }
    let (ds, grid, train, held_out, mut model) = stack.expect("at least one set-up");
    let mut trainer = Trainer::new(TrainConfig {
        batch_size: BATCH,
        seed: gen::stream_seed(cfg.seed, "trainer"),
        ..TrainConfig::default()
    });
    let mut rng = gen::rng(cfg.seed, "epochs");

    // Warm-up epoch: not timed, its cost shows in setup_s.
    let warm = epoch(&mut trainer, &mut model, &batches(&train, &mut rng));
    report.e2e.setup_s = median(&setup_s) + warm.step_ms.iter().sum::<f64>() / 1e3;
    let check = |report: &mut Report, losses: &[f32]| {
        report.attempted += losses.len() as u64;
        for (k, l) in losses.iter().enumerate() {
            if !l.is_finite() {
                report.fail(format!("step {k}: loss {l}"));
            }
        }
    };
    check(&mut report, &warm.losses);
    let seconds = Duration::from_secs_f64(cfg.seconds);

    if !trace {
        let (mut steps, mut samples, mut slo_met) = (0u64, 0usize, 0u64);
        let started = Instant::now();
        let mut first_epoch_loss = None;
        let mut late = Vec::new();
        while started.elapsed() < seconds {
            let b = batches(&train, &mut rng);
            let e = epoch(&mut trainer, &mut model, &b);
            check(&mut report, &e.losses);
            first_epoch_loss.get_or_insert_with(|| {
                f64::from(e.losses.iter().sum::<f32>()) / e.losses.len() as f64
            });
            steps += e.step_ms.len() as u64;
            samples += e.samples;
            slo_met += e
                .step_ms
                .iter()
                .zip(&e.losses)
                .filter(|(ms, l)| **ms <= SLO_STEP_MS && l.is_finite())
                .count() as u64;
            report.e2e.latency_ms.extend(&e.step_ms);
            report.e2e.ttfs_ms.push(e.first_ms);
            report.e2e.step_gap_ms.extend(&e.gap_ms);
            late.extend(e.late_ms);
        }
        let wall = started.elapsed().as_secs_f64();
        report.e2e.slo_attempted = steps;
        report.e2e.slo_met = slo_met;
        report.e2e.throughput = samples as f64 / wall;
        report.e2e.final_loss = first_epoch_loss.unwrap_or(f64::NAN);
        report.detail(
            "phase_measure",
            serde_json::json!({"steps": steps, "samples": samples, "epochs": report.e2e.ttfs_ms.len()}),
        );
        crate::engine::generator_check(&mut report, &late);
    } else {
        let half = seconds / 2;
        let started = Instant::now();
        let mut base_samples = 0;
        while started.elapsed() < half {
            let e = epoch(&mut trainer, &mut model, &batches(&train, &mut rng));
            check(&mut report, &e.losses);
            base_samples += e.samples;
        }
        let base_ms_per_sample = started.elapsed().as_secs_f64() * 1e3 / base_samples as f64;

        let mut tracer = Tracer::new(true);
        let mut opt = Adam::new(trainer.config.lr);
        let (mut matmuls, mut late) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut samples = 0;
        while started.elapsed() < half {
            let b = batches(&train, &mut rng);
            samples += traced_epoch(
                &mut tracer,
                &mut model,
                &mut opt,
                &b,
                &mut rng,
                &mut matmuls,
                &mut late,
            );
        }
        let traced_ms_per_sample = started.elapsed().as_secs_f64() * 1e3 / samples as f64;
        report.attempted += matmuls.len() as u64;
        probes::train_layers(&tracer, &matmuls, &mut report);
        let rows = ledger(tracer.spans(), "train.batch");
        report.layer(
            "ledger.coverage",
            median(&rows.iter().map(|r| r.0).collect::<Vec<_>>()),
        );
        report.layer(
            "ledger.unattributed_ms",
            median(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        );
        report.layer("bench.gen_late_p99_ms", summarize(&late).p99.value);
        report.layer("bench.sent", matmuls.len() as f64);
        report.layer("bench.succeeded", matmuls.len() as f64);
        report.layer("bench.failed", 0.0);
        report.layer(
            "bench.trace_overhead",
            traced_ms_per_sample / base_ms_per_sample,
        );

        // A serving stack at the training shape for the serving layers.
        let serving = Arc::new(
            ServingModel::new(EndToEnd::build(
                &MethodSpec::RnTrajRec,
                &ds.city.net,
                &grid,
                DIM,
                MODEL_SEED,
            ))
            .map_err(|e| e.to_string())?,
        );
        let engine = crate::engine::start_engine(Arc::clone(&serving), EngineConfig::default());
        let ctx = Arc::new(QueryContext::new(ds.city.net.clone(), CELL_M));
        let router = Arc::new(ShardRouter::new(vec![CityShard::new(
            "bench",
            Arc::clone(&engine),
            ctx,
            None,
        )]));
        let bodies: Vec<String> = ds.valid.iter().map(gen::request_body).collect();
        let order: Vec<usize> = (0..bodies.len()).collect();
        let before = engine.stats();
        let rows = probes::replay(&mut tracer, &router, &bodies, &order, None, &mut report);
        let after = engine.stats();
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
        let shape = probes::Shape {
            city: &ds.config.city,
            net: &ds.city.net,
            grid: &grid,
            dim: DIM,
            serving: &serving,
            inputs: &held_out,
            bodies: &bodies,
            router: &router,
            work_dir: &cfg.work_dir,
        };
        probes::common(&mut tracer, &shape, &mut report)?;
        probes::http_overhead(&mut tracer, &shape, &mut report)?;
        report.tracer = Some(tracer);
        report.e2e.final_loss = teacher_forced_loss(&model, &held_out[..4]);
    }
    report.e2e.peak_rss_mb = sys::peak_rss_mb(None).unwrap_or(f64::NAN);
    Ok(report)
}
