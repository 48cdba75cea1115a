//! End-to-end benchmark of the winograd-ft workspace.
//!
//! `wgft-perfbench warmup --state DIR` fills the trained-model cache (untimed).
//! `wgft-perfbench run --workload NAME --seed N --seconds S --trace 0|1 --state DIR`
//! measures one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.py` is the
//! entry point that builds this binary and calls it; `perfbench/README.md`
//! defines every metric.

mod infer;
mod load;
mod probes;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wgft_core::CampaignConfig;
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;

use crate::trace::Tracer;

/// Named metric values with their units, kept in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Non-finite values cannot appear in JSON; they only arise from a broken
/// measurement, which the caller flags as incorrect.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The end-to-end metrics of `BENCHMARK.json`.
    pub end_to_end: Metrics,
    /// Further readings printed by name but not part of the result object.
    pub extra: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate or determinism failures, by description.
    pub problems: Vec<String>,
    /// Repetition counts for the run record.
    pub reps: BTreeMap<&'static str, u64>,
}

impl Outcome {
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// Everything a workload needs to know about the run.
pub struct RunContext {
    pub seed: u64,
    pub state: PathBuf,
}

impl RunContext {
    /// The campaign every workload runs: `VggSmall` at W16, default scale and
    /// tile, with the workload seed as the campaign base seed (evaluation
    /// images and per-image fault streams) and the shared model cache.
    pub fn config(&self) -> CampaignConfig {
        model_config(&self.state).with_seed(self.seed)
    }

    /// A fresh scratch directory under the state directory.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        let dir = scratch_root(&self.state).join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// This process's scratch area; removed when the run ends.
fn scratch_root(state: &Path) -> PathBuf {
    state.join("scratch").join(std::process::id().to_string())
}

fn model_config(state: &Path) -> CampaignConfig {
    CampaignConfig::new(ModelKind::VggSmall, BitWidth::W16).with_cache_dir(state.join("models"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    state: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("usage: wgft-perfbench warmup|run [flags]")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        state: PathBuf::from("perfbench/.state"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--state" => args.state = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

type Workload = fn(&RunContext, &Tracer, f64) -> Outcome;

fn workload(name: &str) -> Option<Workload> {
    match name {
        "infer_inproc" => Some(infer::run),
        "sweep_tradeoff" => Some(sweep::run),
        _ => None,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wgft-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match args.command.as_str() {
        "warmup" => warmup(&args.state),
        "run" => run(&args),
        other => {
            eprintln!("wgft-perfbench: unknown command {other}");
            std::process::exit(2);
        }
    }
}

/// Train (or load) the one model every seed shares. The cache is keyed by
/// (model, spec) only, so training here with the default seed fixes the
/// model independently of which workload seed runs first.
fn warmup(state: &Path) {
    let started = Instant::now();
    match wgft_core::FaultToleranceCampaign::prepare(&model_config(state)) {
        Ok(campaign) => eprintln!(
            "warmup: {} ready in {:.1} s (clean accuracy {:.4})",
            campaign.quantized().name(),
            started.elapsed().as_secs_f64(),
            campaign.clean_accuracy()
        ),
        Err(e) => {
            eprintln!("warmup failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) {
    let Some(workload) = workload(&args.workload) else {
        eprintln!(
            "wgft-perfbench: unknown workload `{}` (infer_inproc, sweep_tradeoff)",
            args.workload
        );
        std::process::exit(2);
    };
    let models = args.state.join("models");
    if std::fs::read_dir(&models).map_or(true, |mut d| d.next().is_none()) {
        eprintln!(
            "wgft-perfbench: model cache {} is empty; run `warmup` first",
            models.display()
        );
        std::process::exit(1);
    }
    let ctx = RunContext {
        seed: args.seed,
        state: args.state.clone(),
    };
    let off = Tracer::disabled();
    let (outcome, per_layer, spans_file) = if args.trace {
        // Untraced and traced passes split the run's measuring time, so the
        // difference between them is the tracing overhead; the probe suite
        // then times each layer's public calls from outside.
        let plain = workload(&ctx, &off, args.seconds / 2.0);
        let tracer = Tracer::enabled();
        let traced = workload(&ctx, &tracer, args.seconds / 2.0);
        let mut per_layer = probes::run(&ctx, &tracer);
        let spans_file = ctx
            .state
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&spans_file) {
            eprintln!("wgft-perfbench: writing spans: {e}");
        }
        let mut outcome = plain;
        // Printed by name, not compared: the two halves run one after the
        // other, so besides the tracing cost they carry any change in the
        // host's speed between them, and the difference can take either sign.
        for (name, (value, unit)) in &outcome.end_to_end.0 {
            if let Some(t) = traced.end_to_end.get(name) {
                per_layer
                    .notes
                    .set(format!("trace.overhead.{name}"), t - value, unit);
                per_layer
                    .notes
                    .set(format!("trace.ratio.{name}"), t / value, "ratio");
            }
        }
        for (name, (value, unit)) in &per_layer.notes.0 {
            outcome.extra.set(name.clone(), *value, unit);
        }
        outcome.attempted += traced.attempted + per_layer.attempted;
        outcome.failed += traced.failed + per_layer.failed;
        outcome.problems.extend(traced.problems);
        outcome.problems.append(&mut per_layer.problems);
        (outcome, Some(per_layer.metrics), Some(spans_file))
    } else {
        (workload(&ctx, &off, args.seconds), None, None)
    };
    let _ = std::fs::remove_dir_all(scratch_root(&ctx.state));
    let mut outcome = outcome;
    if outcome.attempted == 0 {
        outcome.problem("the run attempted no operation");
    }

    // Human-readable lines first; the contract's JSON object comes last.
    let reps: Vec<String> = outcome
        .reps
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "reps {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \"RAYON_NUM_THREADS\": \"{}\", \"reps\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        reps.join(", ")
    );
    for (name, (value, unit)) in outcome.end_to_end.0.iter().chain(outcome.extra.0.iter()) {
        println!("metric {name} {value} {unit}");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("metric failed_frac {failed_frac} ratio");
    if let Some(per_layer) = &per_layer {
        for (name, (value, unit)) in &per_layer.0 {
            println!("layer {name} {value} {unit}");
        }
    }
    if let Some(file) = spans_file {
        println!("spans {}", file.display());
    }
    for problem in &outcome.problems {
        println!("problem {problem}");
    }
    let metrics = per_layer.as_ref().unwrap_or(&outcome.end_to_end);
    let finite = metrics.0.values().all(|(v, _)| v.is_finite());
    if !finite {
        println!("problem a metric is not a finite number");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.json()
    );
}
