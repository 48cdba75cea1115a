//! `infer_inproc`: one caller thread, closed loop, `classify_fast` at batch 1
//! over the seed's evaluation images, with the program's default threading.

use std::time::Instant;

use wgft_core::{CampaignConfig, FaultToleranceCampaign};
use wgft_faultsim::ExactArithmetic;
use wgft_nn::FastInference;
use wgft_winograd::ConvAlgorithm;

use crate::stats::{iqm, median, quantile};
use crate::trace::Tracer;
use crate::{Outcome, RunContext};

/// Images whose fast-path logits must equal the instrumented exact logits
/// bit for bit.
const LOGIT_GATE_IMAGES: usize = 4;

/// Window length: at 700–1 500 calls/s a 2-s window holds about
/// 1 400–3 000 calls, so its p99 has at least ten beyond it.
const WINDOW_S: f64 = 2.0;

/// One set-up as a user pays it from a warm model cache: the campaign
/// (dataset, cached model, quantization, calibration, baseline), then the
/// fast plans. Returns them with the set-up's duration in seconds.
fn set_up(
    config: &CampaignConfig,
    tracer: &Tracer,
    rep: u64,
) -> Result<(FaultToleranceCampaign, FastInference, f64), String> {
    let start = Instant::now();
    let parent = tracer.open("setup", None, rep);
    let campaign =
        FaultToleranceCampaign::prepare(config).map_err(|e| format!("campaign prepare: {e}"))?;
    tracer.record("core.prepare", start, Instant::now(), parent, rep);
    let t = Instant::now();
    let fast = campaign
        .quantized()
        .prepare_fast()
        .map_err(|e| format!("prepare_fast: {e}"))?;
    tracer.record("nn.prepare_fast", t, Instant::now(), parent, rep);
    tracer.close(parent);
    Ok((campaign, fast, start.elapsed().as_secs_f64()))
}

pub fn run(ctx: &RunContext, tracer: &Tracer, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let config = ctx.config();
    let algo = ConvAlgorithm::winograd_default();

    let (campaign, mut fast, first_setup) = match set_up(&config, tracer, 0) {
        Ok(prepared) => prepared,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let mut setups = vec![first_setup];
    let net = campaign.quantized();
    let images: Vec<_> = campaign
        .eval_set()
        .samples()
        .iter()
        .map(|s| &s.image)
        .collect();

    // Correctness reference: the instrumented walk under exact arithmetic.
    let mut reference = Vec::with_capacity(images.len());
    for (i, image) in images.iter().enumerate() {
        let exact = net.forward(image, &mut ExactArithmetic::new(), algo);
        let fast_logits = net.forward_fast(image, algo, &mut fast);
        out.attempted += 1;
        match (exact, fast_logits) {
            (Ok(exact), Ok(fast_logits)) => {
                if i < LOGIT_GATE_IMAGES {
                    let same = exact.len() == fast_logits.len()
                        && exact
                            .iter()
                            .zip(&fast_logits)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        out.failed += 1;
                        out.problem(format!(
                            "image {i}: forward_fast logits differ from forward"
                        ));
                    }
                }
                reference.push(wgft_data::argmax(&exact));
            }
            _ => {
                out.failed += 1;
                out.problem(format!("image {i}: reference forward failed"));
                return out;
            }
        }
    }

    // Untimed warm-up so caches and lazy state settle before timing.
    for image in &images {
        let _ = net.classify_fast(image, algo, &mut fast);
    }

    // The host's speed shifts between levels in phases lasting seconds or
    // more, so every figure is taken per window and the windows are combined
    // by their interquartile mean: smooth in the share of time each phase
    // held, and blind to the odd stalled window. One set-up follows each
    // window, so the set-ups sample the same phases as the calls do, and
    // they are combined the same way.
    let run_span = tracer.open("infer.run", None, 0);
    let started = Instant::now();
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut rates = Vec::new();
    let mut i = 0usize;
    while windows.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut window = Vec::new();
        let window_start = Instant::now();
        while window_start.elapsed().as_secs_f64() < WINDOW_S {
            let idx = i % images.len();
            let t = Instant::now();
            let result = net.classify_fast(images[idx], algo, &mut fast);
            let end = Instant::now();
            tracer.record("nn.classify_fast", t, end, run_span, i as u64);
            window.push((end - t).as_secs_f64() * 1e3);
            out.attempted += 1;
            if result.ok() != Some(reference[idx]) {
                out.failed += 1;
            }
            i += 1;
        }
        rates.push(window.len() as f64 / window_start.elapsed().as_secs_f64());
        windows.push(window);
        match set_up(&config, tracer, windows.len() as u64) {
            Ok((_, _, secs)) => setups.push(secs),
            Err(e) => {
                out.problem(e);
                return out;
            }
        }
    }
    tracer.close(run_span);

    let p50: Vec<f64> = windows.iter().map(|w| median(w)).collect();
    let p99: Vec<f64> = windows.iter().map(|w| quantile(w, 0.99)).collect();
    let all: Vec<f64> = windows.concat();

    out.reps.insert("setup", setups.len() as u64);
    out.reps.insert("calls", all.len() as u64);
    out.reps.insert("windows", windows.len() as u64);
    let m = &mut out.end_to_end;
    m.set("setup_s", iqm(&setups), "s");
    m.set("images_per_s", iqm(&rates), "img/s");
    m.set("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    let x = &mut out.extra;
    x.set("setup_median_s", median(&setups), "s");
    x.set("latency_p50_ms", iqm(&p50), "ms");
    x.set("latency_tail_ms", iqm(&p99), "ms");
    x.set("latency_p50_run_ms", median(&all), "ms");
    x.set("latency_p99_run_ms", quantile(&all, 0.99), "ms");
    out
}
