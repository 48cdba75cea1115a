//! `sweep_tradeoff`: a fresh journal for a `ProtectionTradeoff` manifest runs
//! through `prepare_campaign` → `run_shard` (one shard) → `merge`, offline.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

use wgft_core::{FaultToleranceCampaign, ProtectionTradeoffReport};
use wgft_sweep::{
    manifest_for, merge, prepare_campaign, run_shard, Journal, Manifest, MergedReport,
    ProgressSink, ProgressSnapshot, ShardSpec, SweepKind, UnitResult, WorkUnit,
};

use crate::stats::{iqm, median, quantile};
use crate::trace::Tracer;
use crate::{Outcome, RunContext};

/// The workload's BER grid, evaluation chunk and (through the default
/// campaign) 32 images: 2 BERs × 8 cells × 4 chunks = 64 units.
pub const BERS: [f64; 2] = [1e-4, 3e-4];
pub const CHUNK: usize = 8;

/// Records each unit's completion time and thread, so a unit's latency can
/// be read from outside `run_shard`: the vendored rayon hands each worker a
/// contiguous run of units, so the gap between two completions on one
/// thread is the later unit's evaluate + journal append.
pub struct CompletionLog {
    started: Instant,
    done: Mutex<Vec<(ThreadId, Instant, u64, usize)>>,
}

impl CompletionLog {
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            done: Mutex::new(Vec::new()),
        }
    }

    /// `(unit id, cell index, start, end)` per unit, start being the
    /// previous completion on the same thread (or the shard's start).
    pub fn units(&self) -> Vec<(u64, usize, Instant, Instant)> {
        let done = self.done.lock().expect("completion log poisoned");
        let mut last: Vec<(ThreadId, Instant)> = Vec::new();
        let mut units = Vec::with_capacity(done.len());
        for &(thread, at, unit, cell) in done.iter() {
            let start = match last.iter_mut().find(|(t, _)| *t == thread) {
                Some((_, prev)) => std::mem::replace(prev, at),
                None => {
                    last.push((thread, at));
                    self.started
                }
            };
            units.push((unit, cell, start, at));
        }
        units
    }
}

impl ProgressSink for CompletionLog {
    fn unit_finished(&self, _snapshot: ProgressSnapshot, unit: &WorkUnit) {
        let now = Instant::now();
        self.done.lock().expect("completion log poisoned").push((
            std::thread::current().id(),
            now,
            unit.id,
            unit.cell_index,
        ));
    }
}

/// One journaled run of `manifest` in a fresh directory: the shard's wall
/// time, its per-unit log, the merge time and the merged report.
pub struct JournaledRun {
    pub units: u64,
    pub images: u64,
    pub wall_s: f64,
    pub log: CompletionLog,
    pub merge_ms: f64,
    pub report: Result<MergedReport, String>,
    /// The journaled unit results, by unit id.
    pub results: BTreeMap<u64, UnitResult>,
}

pub fn journaled_run(
    ctx: &RunContext,
    tag: &str,
    manifest: &Manifest,
    campaign: &FaultToleranceCampaign,
    tracer: &Tracer,
    request: u64,
) -> JournaledRun {
    let dir = ctx.scratch_dir(tag);
    let journal = Journal::create(&dir, manifest.clone());
    let log = CompletionLog::new();
    let journal = match journal {
        Ok(j) => j,
        Err(e) => {
            return JournaledRun {
                units: 0,
                images: 0,
                wall_s: f64::NAN,
                log,
                merge_ms: f64::NAN,
                report: Err(format!("journal create: {e}")),
                results: BTreeMap::new(),
            }
        }
    };
    let span = tracer.open("sweep.run_shard", None, request);
    let outcome = run_shard(&journal, campaign, ShardSpec::single(), &log);
    let wall_s = log.started.elapsed().as_secs_f64();
    tracer.close(span);
    for (unit, _, start, end) in log.units() {
        tracer.record("sweep.unit", start, end, span, unit);
    }
    let plan = manifest.plan();
    let images: u64 = plan.units().iter().map(|u| u.len as u64).sum();
    let mut results = BTreeMap::new();
    let t = Instant::now();
    let report = match outcome {
        Ok(o) if o.run_complete() && o.evaluated == plan.units().len() as u64 => {
            match journal.completed() {
                Ok(done) => {
                    let merged =
                        merge(journal.manifest(), &done).map_err(|e| format!("merge: {e}"));
                    results = done.results;
                    merged
                }
                Err(e) => Err(format!("journal read: {e}")),
            }
        }
        Ok(o) => Err(format!("shard incomplete: {o:?}")),
        Err(e) => Err(format!("run_shard: {e}")),
    };
    let merge_end = Instant::now();
    tracer.record("sweep.merge", t, merge_end, None, request);
    let _ = std::fs::remove_dir_all(&dir);
    JournaledRun {
        units: plan.units().len() as u64,
        images,
        wall_s,
        log,
        merge_ms: (merge_end - t).as_secs_f64() * 1e3,
        report,
        results,
    }
}

/// Set-ups after each journaled run.
const SETUPS_PER_RUN: usize = 4;

/// One set-up as `wgft-sweep` pays it on a warm model cache: the campaign
/// the manifest describes, and a fresh journal. Returns the campaign with
/// the set-up's duration in seconds.
fn set_up(
    ctx: &RunContext,
    manifest: &Manifest,
    tracer: &Tracer,
    rep: u64,
) -> Result<(FaultToleranceCampaign, f64), String> {
    let dir = ctx.scratch_dir(&format!("setup{rep}"));
    let start = Instant::now();
    let prepared = prepare_campaign(manifest);
    let journal = Journal::create(&dir, manifest.clone());
    let end = Instant::now();
    tracer.record("setup", start, end, None, rep);
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = prepared.map_err(|e| format!("prepare_campaign failed: {e}"))?;
    journal.map_err(|e| format!("journal create failed: {e}"))?;
    Ok((campaign, (end - start).as_secs_f64()))
}

pub fn run(ctx: &RunContext, tracer: &Tracer, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let config = ctx.config();
    // The manifest records the campaign's baseline, so building it needs one
    // untimed preparation; setup then times the path `wgft-sweep` resumes by.
    let manifest = match FaultToleranceCampaign::prepare(&config) {
        Ok(c) => manifest_for(SweepKind::ProtectionTradeoff, &config, &BERS, CHUNK, &c),
        Err(e) => {
            out.problem(format!("campaign prepare failed: {e}"));
            return out;
        }
    };

    let (campaign, first_setup) = match set_up(ctx, &manifest, tracer, 0) {
        Ok(prepared) => prepared,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let mut setups = vec![first_setup];

    let mut rates = Vec::new();
    let mut unit_ms = Vec::new();
    let mut reports = Vec::new();
    let started = Instant::now();
    let mut last_rep_s = 0.0;
    // Start another journaled run only if it should end inside the window;
    // the first always runs. Set-ups run between journaled runs, so they
    // sample the same phases of the host's speed as the runs do. A set-up
    // takes either about 0.12 s or about 0.2 s depending on the host's
    // phase, so their median jumps from one level to the other as the share
    // of slow phases crosses one half; their interquartile mean moves
    // smoothly with that share and still drops the odd stalled set-up.
    while reports.is_empty() || started.elapsed().as_secs_f64() + last_rep_s <= seconds {
        let rep = reports.len() as u64;
        let t = Instant::now();
        let run = journaled_run(ctx, &format!("rep{rep}"), &manifest, &campaign, tracer, rep);
        out.attempted += run.units;
        match run.report {
            Ok(report) => {
                rates.push(run.images as f64 / run.wall_s);
                unit_ms.extend(
                    run.log
                        .units()
                        .iter()
                        .map(|(_, cell, s, e)| (*cell, (*e - *s).as_secs_f64() * 1e3)),
                );
                reports.push(report);
            }
            Err(e) => {
                out.failed += run.units;
                out.problem(e);
                return out;
            }
        }
        for _ in 0..SETUPS_PER_RUN {
            match set_up(ctx, &manifest, tracer, setups.len() as u64) {
                Ok((_, secs)) => setups.push(secs),
                Err(e) => {
                    out.problem(e);
                    return out;
                }
            }
        }
        last_rep_s = t.elapsed().as_secs_f64();
    }

    // Gate, outside the timed region: every merged report equals the
    // monolithic campaign's frontier on the same grid (evaluated with the
    // chunk as batch size, which is bit-identical and keeps both CPUs busy).
    // The traced run calls this workload twice on one seed; the monolithic
    // frontier is computed once per process.
    static EXPECTED: OnceLock<ProtectionTradeoffReport> = OnceLock::new();
    let expected = EXPECTED.get_or_init(|| {
        campaign
            .clone()
            .with_batch_size(CHUNK)
            .protection_tradeoff(&BERS)
    });
    let units_per_rep = manifest.plan().units().len() as u64;
    for (rep, report) in reports.iter().enumerate() {
        let matches = matches!(report, MergedReport::ProtectionTradeoff(r) if r == expected);
        if !matches {
            out.failed += units_per_rep;
            out.problem(format!(
                "rep {rep}: merged report differs from protection_tradeoff"
            ));
        }
    }

    out.reps.insert("setup", setups.len() as u64);
    out.reps.insert("journaled_runs", reports.len() as u64);
    out.reps.insert("units_per_run", units_per_rep);
    let m = &mut out.end_to_end;
    m.set("setup_s", iqm(&setups), "s");
    m.set("images_per_s", median(&rates), "img/s");
    m.set("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    let all: Vec<f64> = unit_ms.iter().map(|(_, ms)| *ms).collect();
    let x = &mut out.extra;
    x.set("setup_median_s", median(&setups), "s");
    x.set("latency_p50_ms", cell_p50_geomean(&unit_ms), "ms");
    x.set("latency_tail_ms", quantile(&all, 0.9), "ms");
    out
}

/// Geometric mean over the cells of each cell's median unit time. The eight
/// cells cost from under 100 ms to over 500 ms a unit, so a median over all
/// units falls between two cells' cost levels and jumps from one to the
/// other; each cell's own median moves only with that cell's cost.
fn cell_p50_geomean(unit_ms: &[(usize, f64)]) -> f64 {
    let mut cells: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(cell, ms) in unit_ms {
        cells.entry(cell).or_default().push(ms);
    }
    let log_sum: f64 = cells.values().map(|v| median(v).ln()).sum();
    (log_sum / cells.len() as f64).exp()
}
