//! Layer probes for the traced run: the benchmark times its own calls
//! into each layer's public functions, at the workload's shape (city,
//! hidden size, trips).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::train::TrainConfig;
use rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_artifact::Artifact;
use rntrajrec_geo::GridSpec;
use rntrajrec_models::{BatchMember, SampleInput};
use rntrajrec_nn::{clip_global_norm, kernels, Adam, Tape};
use rntrajrec_roadnet::{CityConfig, RoadNetwork};
use rntrajrec_serve::{HttpConfig, HttpServer, ServingModel, ShardRouter, SubmitOptions};

use crate::oracle::Expected;
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{CELL_M, MODEL_SEED};

/// Calls per timed probe, and repetitions of the costlier ones.
const CHEAP_CALLS: usize = 256;
const REPS: usize = 3;
/// Members of the fused-batch probes.
const BATCH: usize = 8;
/// Sequential requests of the HTTP probe.
const HTTP_REQUESTS: usize = 24;
const TRAIN_BATCHES: usize = 2;

/// What the probes need to know about the workload.
pub struct Shape<'a> {
    pub city: &'a CityConfig,
    pub net: &'a RoadNetwork,
    pub grid: &'a GridSpec,
    pub dim: usize,
    pub serving: &'a Arc<ServingModel>,
    /// Inputs with ground truth (the training probe needs targets).
    pub inputs: &'a [SampleInput],
    pub bodies: &'a [String],
    /// A single-shard router over an engine at the workload's shape.
    pub router: &'a Arc<ShardRouter>,
    pub work_dir: &'a Path,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Up to `BATCH` inputs spread over the pool, so mixed-length
/// workloads probe both lengths.
fn spread<T>(items: &[T]) -> Vec<&T> {
    let n = items.len().min(BATCH);
    (0..n).map(|i| &items[i * items.len() / n]).collect()
}

/// Mean duration (us) of the spans named `name`.
fn mean_us(t: &Tracer, name: &str) -> f64 {
    mean(&t.durations_ms(name)) * 1e3
}

/// Probes every workload runs: wire, routing, features, encoder,
/// decoder, service set-up and artifacts.
pub fn common(t: &mut Tracer, s: &Shape<'_>, report: &mut Report) -> Result<(), String> {
    // Wire, routing and feature extraction on the workload's bodies.
    let mut reqs = Vec::new();
    for k in 0..CHEAP_CALLS.max(s.bodies.len()) {
        let body = &s.bodies[k % s.bodies.len()];
        let req = t.span("wire.parse", k as u64, || RecoverRequest::from_json(body));
        reqs.push(req.map_err(|e| format!("wire rejected a generated body: {e:?}"))?);
    }
    let shard = s.router.shards()[0].ctx().clone();
    let mut nodes = Vec::new();
    for (k, req) in reqs.iter().enumerate().take(s.bodies.len().max(32)) {
        t.span("shard.route", k as u64, || {
            s.router.resolve(&req.points).map(|_| ())
        })
        .map_err(|e| format!("routing failed: {e}"))?;
        let input = t
            .span("features.extract", k as u64, || shard.sample_input(req))
            .map_err(|e| format!("feature extraction refused a generated body: {e}"))?;
        nodes.extend(input.subgraphs.iter().map(|g| g.nodes.len() as f64));
    }
    report.layer("wire.parse_us", mean_us(t, "wire.parse"));
    report.layer("shard.route_us", mean_us(t, "shard.route"));
    report.layer("features.extract_us", mean_us(t, "features.extract"));
    report.layer("features.subgraph_nodes_mean", mean(&nodes));
    let paths: Vec<_> = s.inputs.iter().map(|i| s.serving.recover(i)).collect();
    for k in 0..CHEAP_CALLS {
        let path = &paths[k % paths.len()];
        t.span("wire.serialize", k as u64, || {
            let resp = RecoverResponse::from_path(k as u64, path, 1, 1.0);
            std::hint::black_box(serde_json::to_string(&resp).expect("response serializes"))
        });
    }
    report.layer("wire.serialize_us", mean_us(t, "wire.serialize"));

    // Encoder and decoder: B=1 members one by one against one fused B=8.
    let model = s.serving.model();
    let road = s
        .serving
        .road_cache()
        .map(|c| &c.x_road)
        .ok_or("the served model has no road cache")?;
    let batch = spread(s.inputs);
    let enc = |refs: &[&SampleInput]| {
        model
            .encoder
            .infer_batch(&model.store, refs, Some(road))
            .expect("RNTrajRec has a tape-free encoder")
    };
    let (mut b1, mut b8, mut prof) = (Vec::new(), Vec::new(), None);
    for rep in 0..REPS {
        let started = Instant::now();
        for (k, input) in batch.iter().enumerate() {
            t.span("encoder.b1", k as u64, || {
                std::hint::black_box(enc(&[*input]))
            });
        }
        b1.push(ms(started.elapsed()) / batch.len() as f64);
        let scope = kernels::profile_scope("encoder.b8");
        t.span("encoder.b8", rep as u64, || {
            std::hint::black_box(enc(&batch))
        });
        let p = scope.finish();
        b8.push(ms(p.wall) / batch.len() as f64);
        prof = Some(p);
    }
    let prof = prof.expect("REPS > 0");
    let (b1, b8) = (median(&b1), median(&b8));
    report.layer("encoder.b1_ms", b1);
    report.layer("encoder.b8_ms_per_traj", b8);
    report.layer("encoder.fusion_speedup", b1 / b8);
    report.layer(
        "encoder.matmuls_per_traj",
        prof.matmuls as f64 / batch.len() as f64,
    );
    report.layer(
        "encoder.mflop_per_traj",
        prof.flops as f64 / 1e6 / batch.len() as f64,
    );

    let encoded = enc(&batch);
    let members: Vec<BatchMember<'_>> = encoded
        .iter()
        .zip(&batch)
        .map(|(e, sample)| BatchMember {
            per_point: &e.per_point,
            traj: &e.traj,
            sample,
        })
        .collect();
    let decode = |m: &[BatchMember<'_>]| {
        model
            .decoder
            .recover_batch_infer_with(&model.store, m, s.serving.head())
    };
    let lockstep = batch.iter().map(|i| i.target_len()).max().unwrap_or(1) as f64;
    let (mut b1_us, mut b8_us, mut fused, mut prof) = (Vec::new(), Vec::new(), Vec::new(), None);
    for rep in 0..REPS {
        let mut solo_ms = 0.0;
        for (k, m) in members.iter().enumerate() {
            let started = Instant::now();
            t.span("decoder.b1", k as u64, || {
                std::hint::black_box(decode(std::slice::from_ref(m)))
            });
            let d = ms(started.elapsed());
            solo_ms += d;
            b1_us.push(d * 1e3 / m.sample.target_len() as f64);
        }
        let scope = kernels::profile_scope("decoder.b8");
        t.span("decoder.b8", rep as u64, || {
            std::hint::black_box(decode(&members))
        });
        let p = scope.finish();
        b8_us.push(ms(p.wall) * 1e3 / lockstep);
        fused.push(solo_ms / ms(p.wall));
        prof = Some(p);
    }
    let prof = prof.expect("REPS > 0");
    report.layer("decoder.step_b1_us", median(&b1_us));
    report.layer("decoder.step_b8_us", median(&b8_us));
    report.layer("decoder.fusion_speedup", median(&fused));
    report.layer("decoder.matmuls_per_step", prof.matmuls as f64 / lockstep);
    report.layer("decoder.mflop_per_step", prof.flops as f64 / 1e6 / lockstep);

    // Service set-up (X_road precompute) and artifact load.
    let mut pre = Vec::new();
    for rep in 0..REPS {
        let m = EndToEnd::build(&MethodSpec::RnTrajRec, s.net, s.grid, s.dim, MODEL_SEED);
        let started = Instant::now();
        let served = t.span("service.precompute", rep as u64, || ServingModel::new(m));
        pre.push(ms(started.elapsed()));
        served.map_err(|e| e.to_string())?;
    }
    report.layer("service.precompute_ms", median(&pre));
    let path = s.work_dir.join("probe.rnta");
    rntrajrec_artifact::pack_fresh("bench", "v1", s.city, CELL_M, s.dim, MODEL_SEED)
        .write_to(&path)
        .map_err(|e| e.to_string())?;
    let (read, inst) = artifact_load(t, &path)?;
    report.layer("artifact.read_ms", read);
    report.layer("artifact.instantiate_ms", inst);
    Ok(())
}

/// Median times (ms) of `Artifact::read_from` and `instantiate`.
pub fn artifact_load(t: &mut Tracer, path: &Path) -> Result<(f64, f64), String> {
    let (mut read, mut inst) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let started = Instant::now();
        let a = t
            .span("artifact.read", rep as u64, || Artifact::read_from(path))
            .map_err(|e| e.to_string())?;
        read.push(ms(started.elapsed()));
        let started = Instant::now();
        t.span("artifact.instantiate", rep as u64, || a.instantiate())
            .map_err(|e| e.to_string())?;
        inst.push(ms(started.elapsed()));
    }
    Ok((median(&read), median(&inst)))
}

/// One training step from the public parts `Trainer` is made of:
/// forward loss, backward, clipping and Adam. Returns the loss and the
/// matmuls it issued.
pub fn train_step(
    t: &mut Tracer,
    model: &mut EndToEnd,
    opt: &mut Adam,
    batch: &[&SampleInput],
    rng: &mut StdRng,
    req: u64,
) -> (f32, u64) {
    let scope = kernels::profile_scope("train.batch");
    let root = t.open("train.batch", req);
    let mut tape = Tape::new();
    let loss = t.span("train.forward", req, || {
        model.batch_loss_scheduled(&mut tape, batch, 1.0, rng)
    });
    let value = tape.value(loss).item();
    model.store.zero_grad();
    t.span("train.backward", req, || {
        tape.backward(loss, &mut model.store)
    });
    t.span("train.optim", req, || {
        clip_global_norm(&mut model.store, TrainConfig::default().clip_norm);
        opt.step(&mut model.store);
    });
    t.close(root);
    (value, scope.finish().matmuls)
}

/// Report the `train.*` metrics from the spans recorded so far.
pub fn train_layers(t: &Tracer, matmuls: &[f64], report: &mut Report) {
    report.layer(
        "train.forward_ms_per_batch",
        mean(&t.durations_ms("train.forward")),
    );
    report.layer(
        "train.backward_ms_per_batch",
        mean(&t.durations_ms("train.backward")),
    );
    report.layer(
        "train.optim_ms_per_batch",
        mean(&t.durations_ms("train.optim")),
    );
    report.layer("train.matmuls_per_batch", mean(matmuls));
}

/// Training steps at the workload's shape, for workloads that do not
/// train.
pub fn train(t: &mut Tracer, s: &Shape<'_>, report: &mut Report) {
    let mut model = EndToEnd::build(&MethodSpec::RnTrajRec, s.net, s.grid, s.dim, MODEL_SEED);
    let mut opt = Adam::new(TrainConfig::default().lr);
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let batch = spread(s.inputs);
    let matmuls: Vec<f64> = (0..TRAIN_BATCHES)
        .map(|k| train_step(t, &mut model, &mut opt, &batch, &mut rng, k as u64).1 as f64)
        .collect();
    train_layers(t, &matmuls, report);
}

/// A response as one `POST` on a fresh connection saw it.
pub struct Posted {
    pub first_byte: Instant,
    pub status: u16,
    pub body: String,
}

/// `POST path` with `Connection: close`, as `curl` and the repository's
/// own client send it, noting when the first response byte arrived.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Posted, String> {
    use std::io::{Read, Write};
    let io = |e: std::io::Error| e.to_string();
    let mut stream = std::net::TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(io)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 8192];
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut buf).map_err(io)?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&buf[..n]);
    }
    let end = Instant::now();
    let text = String::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a header terminator")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok(Posted {
        first_byte: first_byte.unwrap_or(end),
        status,
        body: body.to_string(),
    })
}

/// HTTP overhead at the workload's shape: an in-process server over the
/// workload's router, sequential `POST /v1/recover` on fresh
/// connections; client latency minus the server-reported latency.
pub fn http_overhead(t: &mut Tracer, s: &Shape<'_>, report: &mut Report) -> Result<(), String> {
    let server = HttpServer::start_router(
        Arc::clone(s.router),
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            ..HttpConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let mut overhead = Vec::new();
    let mut outcome = Ok(());
    for k in 0..HTTP_REQUESTS {
        let body = &s.bodies[k % s.bodies.len()];
        let started = Instant::now();
        let root = t.open("http.request", k as u64);
        let resp = post(addr, "/v1/recover", body);
        t.close(root);
        match resp.and_then(|r| match r.status {
            200 => RecoverResponse::from_json(&r.body).map_err(|e| format!("{e:?}")),
            code => Err(format!("status {code}: {}", r.body)),
        }) {
            Ok(r) => overhead.push(ms(started.elapsed()) - r.latency_ms),
            Err(e) => {
                outcome = Err(format!("HTTP probe failed: {e}"));
                break;
            }
        }
    }
    server.shutdown();
    outcome?;
    report.layer("http.overhead_p50_ms", median(&overhead));
    Ok(())
}

/// Per-request layer times of one in-process replay of a request.
pub struct Replayed {
    /// Position of the request in the replayed order.
    pub k: usize,
    pub layers: Vec<(&'static str, std::time::Duration)>,
    pub queue_wait_ms: f64,
    pub compute_ms: f64,
    pub batch_size: f64,
}

/// Replay `bodies` one at a time through the layers `/v1/recover` runs
/// (parse, route, extract, engine, serialize), timing each call.
/// Served paths are checked against `expected` (indexed like `order`).
pub fn replay(
    t: &mut Tracer,
    router: &ShardRouter,
    bodies: &[String],
    order: &[usize],
    expected: Option<&[Expected]>,
    report: &mut Report,
) -> Vec<Replayed> {
    let mut out = Vec::new();
    for (k, &i) in order.iter().enumerate() {
        let req_id = k as u64;
        let timed = |t: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
            let started = Instant::now();
            t.span(name, req_id, f);
            (name, started.elapsed())
        };
        let mut layers = Vec::new();
        let mut req = None;
        layers.push(timed(t, "wire.parse", &mut || {
            req = RecoverRequest::from_json(&bodies[i]).ok()
        }));
        let Some(req) = req else {
            report.fail(format!("replay {k}: body did not parse"));
            continue;
        };
        let mut shard = None;
        layers.push(timed(t, "shard.route", &mut || {
            shard = router.resolve(&req.points).ok()
        }));
        let Some(shard) = shard else {
            report.fail(format!("replay {k}: no shard"));
            continue;
        };
        let mut input = None;
        layers.push(timed(t, "features.extract", &mut || {
            input = shard.ctx().sample_input(&req).ok()
        }));
        let Some(input) = input else {
            report.fail(format!("replay {k}: extraction refused the body"));
            continue;
        };
        let r = match shard.engine().submit(input, SubmitOptions::new()) {
            Ok(h) => h.wait(),
            Err(e) => {
                report.fail(format!("replay {k}: rejected: {e}"));
                continue;
            }
        };
        if let Some(e) = &r.error {
            report.fail(format!("replay {k}: engine error: {e}"));
            continue;
        }
        if let Some(Err(why)) = expected.map(|x| x[i].check(&r.path)) {
            report.fail(format!("replay {k}: {why}"));
        }
        layers.push(("engine.queue_wait", r.queue_wait));
        layers.push(("engine.compute", r.compute));
        layers.push(timed(t, "wire.serialize", &mut || {
            let resp = RecoverResponse::from_path(r.id, &r.path, r.batch_size, 1.0);
            std::hint::black_box(serde_json::to_string(&resp).expect("response serializes"));
        }));
        out.push(Replayed {
            k,
            layers,
            queue_wait_ms: ms(r.queue_wait),
            compute_ms: ms(r.compute),
            batch_size: r.batch_size as f64,
        });
    }
    out
}

/// The `engine.*` metrics of a sequential replay (and the engine
/// counters it moved).
pub fn replay_engine_layers(rows: &[Replayed], stats: (u64, u64, u64, u64), report: &mut Report) {
    let qw: Vec<f64> = rows.iter().map(|r| r.queue_wait_ms).collect();
    let s = crate::stats::summarize(&qw);
    report.layer("engine.queue_wait_p50_ms", s.p50);
    report.layer("engine.queue_wait_p99_ms", s.p99.value);
    report.layer(
        "engine.compute_p50_ms",
        median(&rows.iter().map(|r| r.compute_ms).collect::<Vec<_>>()),
    );
    report.layer(
        "engine.batch_size_mean",
        mean(&rows.iter().map(|r| r.batch_size).collect::<Vec<_>>()),
    );
    let (requests, admitted, batches, by_deadline) = stats;
    report.layer(
        "engine.admitted_share",
        admitted as f64 / requests.max(1) as f64,
    );
    report.layer(
        "engine.flushed_deadline_share",
        by_deadline as f64 / batches.max(1) as f64,
    );
}
