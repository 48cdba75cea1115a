//! The traced run's per-layer probes: each times calls into one crate's
//! public functions from outside, with spans around them. Every traced run
//! measures every layer, whichever workload it belongs to.

use std::time::{Duration, Instant};

use wgft_abft::{AbftEvents, AbftPolicy, AbftScratch};
use wgft_core::{FaultToleranceCampaign, TradeoffScheme};
use wgft_fabric::wire::{decode, encode};
use wgft_faultsim::{Arithmetic, BitErrorRate, FaultConfig, FaultyArithmetic};
use wgft_nn::Layer;
use wgft_serve::{ProtectionTier, ServeDaemon, ServeEngine, ServeRequest, ServeResponse};
use wgft_sweep::{
    evaluate_unit, manifest_for, CellAbft, CellProtection, Journal, MergedReport, SweepKind,
    UnitResult,
};
use wgft_tensor::gemm_i32;
use wgft_winograd::{ConvAlgorithm, PreparedConvQuantizedFast, WinogradVariant, WinogradWeights};

use crate::load::run_phase;
use crate::stats::{median, quantile, SplitMix};
use crate::sweep::{journaled_run, CHUNK};
use crate::trace::Tracer;
use crate::{Metrics, RunContext};

/// The BER the instrumented and ABFT probes inject at (the paper's cliff).
const PROBE_BER: f64 = 3e-4;
/// Images the instrumented and ABFT probes classify per repetition.
const PROBE_IMAGES: usize = 6;
/// The probe daemon's open-loop session: this many requests/s over both
/// tenants, for this long.
const SESSION_RPS: f64 = 60.0;
const SESSION: Duration = Duration::from_secs(3);

pub struct LayerReport {
    /// The per-layer metrics of `BENCHMARK.json`.
    pub metrics: Metrics,
    /// Differences that can be zero or negative, printed by name only.
    pub notes: Metrics,
    pub problems: Vec<String>,
    /// Requests of the serve session, and those that failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Median duration of `reps` calls of `f`, in microseconds, each recorded
/// as a span named `name`.
fn time_us(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<usize>,
    reps: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        f(i);
        let end = Instant::now();
        tracer.record(name, t, end, parent, i as u64);
        samples.push((end - t).as_secs_f64() * 1e6);
    }
    median(&samples)
}

fn algo_label(algo: ConvAlgorithm) -> &'static str {
    match algo {
        ConvAlgorithm::Standard => "std",
        ConvAlgorithm::Winograd(_) => "wg",
    }
}

pub fn run(ctx: &RunContext, tracer: &Tracer) -> LayerReport {
    let mut report = LayerReport {
        metrics: Metrics::default(),
        notes: Metrics::default(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let config = ctx.config();
    let probes = tracer.open("probes", None, 0);

    // core: campaign preparation from a warm model cache.
    let mut prepares = Vec::new();
    let mut campaign = None;
    for rep in 0..3 {
        let t = Instant::now();
        let prepared = FaultToleranceCampaign::prepare(&config);
        let end = Instant::now();
        tracer.record("core.prepare", t, end, probes, rep);
        prepares.push((end - t).as_secs_f64());
        match prepared {
            Ok(c) => campaign = Some(c),
            Err(e) => {
                report.problems.push(format!("probe prepare: {e}"));
                return report;
            }
        }
    }
    let campaign = campaign.expect("three repetitions");
    report.metrics.set("core.prepare_s", median(&prepares), "s");

    nn_fast(&campaign, tracer, probes, &mut report);
    winograd_layers(&campaign, ctx.seed, tracer, probes, &mut report);
    instrumented(&campaign, tracer, probes, &mut report);
    abft(&campaign, tracer, probes, &mut report);
    sweep(ctx, &campaign, tracer, probes, &mut report);
    serve(ctx, &campaign, tracer, &mut report);
    tracer.close(probes);
    report
}

fn nn_fast(
    campaign: &FaultToleranceCampaign,
    tracer: &Tracer,
    parent: Option<usize>,
    report: &mut LayerReport,
) {
    let net = campaign.quantized();
    let algo = ConvAlgorithm::winograd_default();
    let images: Vec<_> = campaign
        .eval_set()
        .samples()
        .iter()
        .map(|s| &s.image)
        .collect();
    let mut fast = net.prepare_fast().expect("prepared network has fast plans");
    for image in &images {
        let _ = net.classify_fast(image, algo, &mut fast);
    }
    let m = &mut report.metrics;
    let fast_us = time_us(tracer, "nn.classify_fast", parent, 400, |i| {
        let _ = std::hint::black_box(net.classify_fast(images[i % images.len()], algo, &mut fast));
    });
    m.set("nn.fast_us", fast_us, "us");
    // The vendored rayon re-reads RAYON_NUM_THREADS on every parallel call,
    // so the same calls run single-threaded while it is set. No other
    // thread of this process runs during the probe.
    let before = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one = time_us(tracer, "nn.classify_fast_1t", parent, 400, |i| {
        let _ = std::hint::black_box(net.classify_fast(images[i % images.len()], algo, &mut fast));
    });
    match before {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    m.set("nn.fast_us_1t", one, "us");
    let batch = time_us(tracer, "nn.classify_fast_batch8", parent, 60, |i| {
        let start = (i * 8) % images.len();
        let chunk: Vec<_> = (0..8).map(|j| images[(start + j) % images.len()]).collect();
        let _ = std::hint::black_box(net.classify_fast_batch(&chunk, algo, &mut fast));
    });
    m.set("nn.fast_batch8_us", batch / 8.0, "us");
}

fn winograd_layers(
    campaign: &FaultToleranceCampaign,
    seed: u64,
    tracer: &Tracer,
    parent: Option<usize>,
    report: &mut LayerReport,
) {
    let variant = WinogradVariant::default();
    let t = variant.input_tile();
    let mut rng = SplitMix::new(seed ^ 0x5EED_C0DE);
    let (mut total, mut narrow, mut wide) = (0.0, 0.0, 0.0);
    let mut layer = 0;
    for node in campaign.trained().network.nodes() {
        let Layer::Conv(conv) = &node.layer else {
            continue;
        };
        let shape = *conv.conv_shape();
        if !shape.geometry.is_unit_stride_3x3() {
            continue;
        }
        let (o, c) = (shape.out_channels, shape.in_channels);
        // Timing does not depend on the values; they only need to stay
        // inside the exact fast-path input range.
        let weights: Vec<i32> = (0..o * c * t * t).map(|_| rng.symmetric(1 << 10)).collect();
        let input: Vec<i32> = (0..shape.input_len())
            .map(|_| rng.symmetric(1 << 10))
            .collect();
        let weights = WinogradWeights::new(variant, o, c, weights).expect("weight length matches");
        let mut conv_plan =
            PreparedConvQuantizedFast::new(&weights, &shape).expect("3x3 unit-stride plan");
        let tiles = conv_plan.plan().num_tiles();
        let mut output = vec![0i64; shape.output_len()];
        let _ = conv_plan.execute_into(&input, &mut output);
        let us = time_us(tracer, "winograd.execute_into", parent, 300, |_| {
            let _ = conv_plan.execute_into(std::hint::black_box(&input), &mut output);
        });
        report
            .metrics
            .set(format!("winograd.conv_us.L{layer}"), us, "us");
        report
            .metrics
            .set(format!("winograd.tiles.L{layer}"), tiles as f64, "count");
        total += us;

        // The layer's winograd-domain GEMMs: one (O×C)·(C×P) product per
        // winograd coordinate, over all P tiles of the image.
        let u: Vec<i32> = conv_plan.transformed_weights().to_vec();
        let v: Vec<i32> = (0..t * t * c * tiles)
            .map(|_| rng.symmetric(1 << 12))
            .collect();
        let mut prod = vec![0i64; t * t * o * tiles];
        let gemm = time_us(tracer, "tensor.gemm_i32", parent, 300, |_| {
            for k in 0..t * t {
                gemm_i32(
                    &u[k * o * c..(k + 1) * o * c],
                    std::hint::black_box(&v[k * c * tiles..(k + 1) * c * tiles]),
                    &mut prod[k * o * tiles..(k + 1) * o * tiles],
                    o,
                    c,
                    tiles,
                );
            }
        });
        if tiles < 8 {
            narrow += gemm;
        } else {
            wide += gemm;
        }
        layer += 1;
    }
    let m = &mut report.metrics;
    m.set("winograd.conv_us.total", total, "us");
    m.set("tensor.gemm_i32_us.narrow", narrow, "us");
    m.set("tensor.gemm_i32_us.wide", wide, "us");
    if let Some(fast) = m.get("nn.fast_us") {
        report.notes.set("nn.walk_self_us", fast - total, "us");
    }
}

fn fault_config(campaign: &FaultToleranceCampaign) -> FaultConfig {
    FaultConfig::new(BitErrorRate::new(PROBE_BER), campaign.config().width)
        .with_model(campaign.config().fault_model)
}

/// The instrumented per-op engine under `FaultyArithmetic`, standard and
/// winograd. Counts are taken twice and must repeat exactly.
fn instrumented(
    campaign: &FaultToleranceCampaign,
    tracer: &Tracer,
    parent: Option<usize>,
    report: &mut LayerReport,
) {
    let net = campaign.quantized();
    let samples = &campaign.eval_set().samples()[..PROBE_IMAGES.min(campaign.eval_set().len())];
    let base = campaign.config().base_seed;
    for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
        let label = algo_label(algo);
        let mut times = Vec::new();
        let mut counts: Vec<(u64, u64)> = Vec::new();
        for _ in 0..2 {
            let (mut ops, mut faults) = (0u64, 0u64);
            let mut scratch = wgft_winograd::WinogradScratch::new();
            for (i, sample) in samples.iter().enumerate() {
                let seed = FaultToleranceCampaign::op_level_fault_seed(base, i);
                let mut arith = FaultyArithmetic::new(fault_config(campaign), seed);
                let t = Instant::now();
                let _ = std::hint::black_box(net.classify_with_scratch(
                    &sample.image,
                    &mut arith,
                    algo,
                    &mut scratch,
                ));
                let end = Instant::now();
                tracer.record("nn.instrumented", t, end, parent, i as u64);
                times.push((end - t).as_secs_f64() * 1e6);
                ops += arith.counters().total().total();
                faults += arith.faults_injected();
            }
            counts.push((ops, faults));
        }
        if counts[0] != counts[1] {
            report.problems.push(format!(
                "instrumented {label}: op/fault counts differ between repetitions"
            ));
        }
        let n = samples.len().max(1) as f64;
        let us = median(&times);
        let ops = counts[0].0 as f64 / n;
        let m = &mut report.metrics;
        m.set(format!("nn.instrumented_us.{label}"), us, "us");
        m.set(format!("nn.ops_per_image.{label}"), ops, "count");
        m.set(
            format!("faultsim.faults_per_image.{label}"),
            counts[0].1 as f64 / n,
            "count",
        );
        m.set(format!("faultsim.ns_per_op.{label}"), us * 1e3 / ops, "ns");
    }
}

/// `classify_abft` under the checksum + range policy on the winograd path.
fn abft(
    campaign: &FaultToleranceCampaign,
    tracer: &Tracer,
    parent: Option<usize>,
    report: &mut LayerReport,
) {
    let net = campaign.quantized();
    let algo = ConvAlgorithm::winograd_default();
    let calibration = campaign.abft_calibration(algo);
    let policy = AbftPolicy::checksum_range();
    let samples = &campaign.eval_set().samples()[..PROBE_IMAGES.min(campaign.eval_set().len())];
    let base = campaign.config().base_seed;
    let mut times = Vec::new();
    let mut totals = Vec::new();
    for _ in 0..2 {
        let mut scratch = AbftScratch::new();
        let mut events = AbftEvents::new();
        for (i, sample) in samples.iter().enumerate() {
            let seed = FaultToleranceCampaign::op_level_fault_seed(base, i);
            let mut arith = FaultyArithmetic::new(fault_config(campaign), seed);
            let t = Instant::now();
            let _ = std::hint::black_box(net.classify_abft(
                &sample.image,
                &mut arith,
                algo,
                &policy,
                Some(calibration),
                &mut scratch,
                &mut events,
            ));
            let end = Instant::now();
            tracer.record("abft.classify_abft", t, end, parent, i as u64);
            times.push((end - t).as_secs_f64() * 1e6);
        }
        totals.push(events);
    }
    if totals[0] != totals[1] {
        report
            .problems
            .push("abft: event counts differ between repetitions".to_string());
    }
    let n = samples.len().max(1) as f64;
    let m = &mut report.metrics;
    m.set("abft.image_us.checksum_range.wg", median(&times), "us");
    m.set(
        "abft.detected_per_image",
        totals[0].detected as f64 / n,
        "count",
    );
    m.set(
        "abft.corrected_per_image",
        totals[0].corrected as f64 / n,
        "count",
    );
    m.set(
        "abft.recomputes_per_image",
        totals[0].recomputes as f64 / n,
        "count",
    );
}

fn scheme_label(protection: CellProtection, abft: CellAbft) -> &'static str {
    match (protection, abft) {
        (CellProtection::AllFaultFree, _) => "tmr",
        (_, CellAbft::RangeOnly) => "range",
        (_, CellAbft::Checksum) => "checksum",
        _ => "unprotected",
    }
}

/// One unit per cell timed through `evaluate_unit`, then the whole plan
/// journaled, merged and compared against those units.
fn sweep(
    ctx: &RunContext,
    campaign: &FaultToleranceCampaign,
    tracer: &Tracer,
    parent: Option<usize>,
    report: &mut LayerReport,
) {
    let config = campaign.config();
    let manifest = manifest_for(
        SweepKind::ProtectionTradeoff,
        config,
        &[PROBE_BER],
        CHUNK,
        campaign,
    );
    let plan = manifest.plan();
    let mut probed: Vec<UnitResult> = Vec::new();
    let mut probed_ids: Vec<u64> = Vec::new();
    let mut serial_ms = 0.0;
    for (cell_index, cell) in plan.cells().iter().enumerate() {
        let Some(unit) = plan.units_of_cell(cell_index).next() else {
            continue;
        };
        let t = Instant::now();
        let result = evaluate_unit(campaign, unit);
        let end = Instant::now();
        tracer.record("sweep.evaluate_unit", t, end, parent, unit.id);
        let ms = (end - t).as_secs_f64() * 1e3;
        serial_ms += ms * plan.units_of_cell(cell_index).count() as f64;
        report.metrics.set(
            format!(
                "sweep.unit_ms.{}.{}",
                scheme_label(cell.protection, cell.abft),
                algo_label(cell.algo)
            ),
            ms,
            "ms",
        );
        probed.push(result);
        probed_ids.push(unit.id);
    }

    let run = journaled_run(ctx, "probe-sweep", &manifest, campaign, tracer, 0);
    let m = &mut report.metrics;
    m.set("sweep.units", run.units as f64, "count");
    m.set("sweep.merge_ms", run.merge_ms, "ms");
    m.set(
        "rayon.unit_efficiency",
        serial_ms / 1e3 / (run.wall_s * rayon::current_num_threads() as f64),
        "ratio",
    );
    match &run.report {
        Ok(MergedReport::ProtectionTradeoff(merged)) => {
            let images = merged.images.max(1) as f64;
            let st = campaign
                .quantized()
                .total_op_count(ConvAlgorithm::Standard)
                .total() as f64;
            let wg = campaign
                .quantized()
                .total_op_count(ConvAlgorithm::winograd_default())
                .total() as f64;
            for row in &merged.rows {
                let scheme = match row.scheme {
                    TradeoffScheme::RangeOnly => "range",
                    TradeoffScheme::Abft => "checksum",
                    _ => continue,
                };
                m.set(
                    format!("abft.overhead_ops_ratio.{scheme}.std"),
                    row.standard_events.overhead.total() as f64 / images / st,
                    "ratio",
                );
                m.set(
                    format!("abft.overhead_ops_ratio.{scheme}.wg"),
                    row.winograd_events.overhead.total() as f64 / images / wg,
                    "ratio",
                );
            }
        }
        Ok(_) => report
            .problems
            .push("probe sweep merged into the wrong report kind".to_string()),
        Err(e) => report.problems.push(format!("probe sweep: {e}")),
    }

    // The journaled units must repeat the serially evaluated ones exactly.
    for (unit, result) in probed_ids.iter().zip(&probed) {
        if run.results.get(unit) != Some(result) {
            report.problems.push(format!(
                "probe sweep: unit {unit} journaled differently from its serial evaluation"
            ));
        }
    }

    // Append latency (one JSON line + fsync each) on a throwaway journal.
    let dir = ctx.scratch_dir("probe-appends");
    let appender = Journal::create(&dir, manifest.clone()).and_then(|j| j.appender(1, 0));
    let mut samples = Vec::new();
    match appender {
        Ok(mut appender) => {
            for i in 0..200u64 {
                let mut result = probed[(i as usize) % probed.len()];
                result.unit = i;
                let t = Instant::now();
                let appended = appender.append(&result);
                let end = Instant::now();
                tracer.record("sweep.append", t, end, parent, i);
                if let Err(e) = appended {
                    report.problems.push(format!("sweep append: {e}"));
                    break;
                }
                samples.push((end - t).as_secs_f64() * 1e3);
            }
        }
        Err(e) => report.problems.push(format!("sweep append journal: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let m = &mut report.metrics;
    m.set("sweep.append_ms.p50", median(&samples), "ms");
    m.set("sweep.append_ms.p99", quantile(&samples, 0.99), "ms");
}

/// Engine calls, wire encoding, and a short nominal-rate session against a
/// daemon whose `Status` counters are read before and after.
fn serve(
    ctx: &RunContext,
    campaign: &FaultToleranceCampaign,
    tracer: &Tracer,
    report: &mut LayerReport,
) {
    let parent = tracer.open("probes.serve", None, 0);
    let mut engine =
        match ServeEngine::prepare(campaign.config(), ConvAlgorithm::winograd_default(), None) {
            Ok(e) => e,
            Err(e) => {
                report.problems.push(format!("probe engine: {e}"));
                return;
            }
        };
    let samples = campaign.eval_set().samples();
    let images: Vec<_> = samples
        .iter()
        .map(|s| {
            engine
                .shape_image(s.image.data().to_vec())
                .expect("eval image has the served shape")
        })
        .collect();
    let m = &mut report.metrics;
    for image in &images {
        let _ = engine.classify_fast_batch(&[image]);
    }
    let b1 = time_us(tracer, "serve.engine_fast_b1", parent, 300, |i| {
        let _ = std::hint::black_box(engine.classify_fast_batch(&[&images[i % images.len()]]));
    });
    let b2 = time_us(tracer, "serve.engine_fast_b2", parent, 150, |i| {
        let pair = [
            &images[(2 * i) % images.len()],
            &images[(2 * i + 1) % images.len()],
        ];
        let _ = std::hint::black_box(engine.classify_fast_batch(&pair));
    });
    m.set("serve.engine_fast_us.b1", b1, "us");
    m.set("serve.engine_fast_us.b2", b2, "us");
    let policy = ProtectionTier::ChecksumRecompute
        .policy()
        .expect("a protected tier has a policy");
    let protected = time_us(tracer, "serve.engine_protected", parent, 12, |i| {
        let _ = std::hint::black_box(engine.classify_protected(
            i as u64,
            &images[i % images.len()],
            &policy,
        ));
    });
    m.set("serve.engine_protected_us", protected, "us");

    let request = ServeRequest::Classify {
        request_id: 7,
        tenant: "free".to_string(),
        image: samples[0].image.data().to_vec(),
    };
    let response = ServeResponse::Classified {
        request_id: 7,
        prediction: 3,
        tier: ProtectionTier::Fast,
        promoted: false,
    };
    let request_bytes = encode(&request).expect("request encodes");
    let response_bytes = encode(&response).expect("response encodes");
    let enc = time_us(tracer, "proto.encode", parent, 300, |_| {
        let _ = std::hint::black_box(encode(&request));
        let _ = std::hint::black_box(encode(&response));
    });
    let dec = time_us(tracer, "proto.decode", parent, 300, |_| {
        let _: Result<ServeRequest, _> = std::hint::black_box(decode(&request_bytes));
        let _: Result<ServeResponse, _> = std::hint::black_box(decode(&response_bytes));
    });
    m.set("proto.encode_us", enc, "us");
    m.set("proto.decode_us", dec, "us");
    m.set("proto.request_bytes", request_bytes.len() as f64, "count");

    let mut daemon = match ServeDaemon::spawn(
        engine,
        crate::load::serve_config(),
        std::sync::Arc::new(wgft_fabric::SystemClock::new()),
        "127.0.0.1:0",
    ) {
        Ok(d) => d,
        Err(e) => {
            report.problems.push(format!("probe daemon: {e}"));
            return;
        }
    };
    session(ctx, campaign, &daemon, tracer, parent, report);
    daemon.stop();
    tracer.close(parent);
}

fn session(
    ctx: &RunContext,
    campaign: &FaultToleranceCampaign,
    daemon: &ServeDaemon,
    tracer: &Tracer,
    parent: Option<usize>,
    report: &mut LayerReport,
) {
    let inputs = match crate::load::inputs(campaign) {
        Ok(i) => i,
        Err(e) => {
            report.problems.push(e);
            return;
        }
    };
    let mut clients = match crate::load::clients(daemon) {
        Ok(c) => c,
        Err(e) => {
            report.problems.push(e);
            return;
        }
    };
    let health = time_us(tracer, "serve.health", parent, 200, |_| {
        let _ = clients[0].health();
    });
    let before = daemon.snapshot();
    let stats = run_phase(
        &mut clients,
        &inputs,
        SESSION_RPS,
        SESSION,
        ctx.seed,
        99,
        tracer,
    );
    let after = daemon.snapshot();
    if stats.tenants.iter().any(|t| t.abandoned) {
        report
            .problems
            .push("probe session: the sender fell behind".to_string());
    }
    let (g0, g1) = (&before.global, &after.global);
    let tenant = |snap: &wgft_serve::CountersSnapshot, name: &str| {
        snap.tenants.get(name).cloned().unwrap_or_default()
    };
    let shed: u64 = crate::load::TENANTS
        .iter()
        .map(|(name, _)| tenant(&after, name).shed - tenant(&before, name).shed)
        .sum();
    let retries: u64 = stats.tenants.iter().map(|t| t.retries).sum();
    let overloaded = g1.overloaded - g0.overloaded;
    // At 60 req/s the daemon is far from its limit: a refusal, a shed
    // request or a client retry is a failure, not a reading.
    let failures = [
        ("failed requests", stats.failed()),
        ("overloaded refusals", overloaded),
        ("shed requests", shed),
        ("client retries", retries),
    ];
    for (what, count) in failures {
        if count > 0 {
            report
                .problems
                .push(format!("probe session: {count} {what}"));
        }
    }
    report.notes.set("serve.overloaded", overloaded as f64, "count");
    report.notes.set("serve.shed", shed as f64, "count");
    report.notes.set("client.retries", retries as f64, "count");
    report.attempted += stats.sent();
    report.failed += failures
        .iter()
        .map(|(_, count)| count)
        .sum::<u64>()
        .min(stats.sent());

    let m = &mut report.metrics;
    m.set("serve.health_rtt_us", health, "us");
    let batches = g1.batches - g0.batches;
    m.set("serve.batches", batches as f64, "count");
    m.set(
        "serve.batch_mean",
        (g1.batched_images - g0.batched_images) as f64 / batches.max(1) as f64,
        "count",
    );
    m.set("serve.max_queue_depth", g1.max_queue_depth as f64, "count");
    for (t, (name, _)) in crate::load::TENANTS.iter().enumerate() {
        let (a, b) = (tenant(&before, name), tenant(&after, name));
        let service_us =
            (b.service_us - a.service_us) as f64 / (b.requests - a.requests).max(1) as f64;
        let tier = if t == 0 { "fast" } else { "protected" };
        m.set(format!("serve.service_us.{tier}"), service_us, "us");
        let p50 = stats.tenants[t].p(0.5);
        m.set(format!("serve.{tier}_p50_ms"), p50, "ms");
        m.set(
            format!("serve.{tier}_p99_ms"),
            stats.tenants[t].p(0.99),
            "ms",
        );
        // What the client waits beyond compute, wire encode/decode and the
        // handler's round-trip floor.
        let explained_us = service_us
            + m.get("proto.encode_us").unwrap_or(0.0)
            + m.get("proto.decode_us").unwrap_or(0.0)
            + health;
        report.notes.set(
            format!("serve.gap_ms.{tier}"),
            p50 - explained_us / 1e3,
            "ms",
        );
    }
    m.set("gen.lag_p99_ms", stats.lag_p99_ms(), "ms");
    m.set("gen.sent", stats.sent() as f64, "count");
}
