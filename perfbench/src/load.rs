//! Open-loop load against an in-process serving daemon, 4:1 between the
//! `free` (fast tier) and `gold` (checksum + recompute) tenants. Seeded
//! Poisson arrivals go out over one connection and one sending thread per
//! tenant; every latency is timed from the request's due time, so a stalled
//! sender charges its wait to the requests behind it, and how late the
//! sender ran is reported as generator lag.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wgft_core::FaultToleranceCampaign;
use wgft_serve::{ProtectionTier, ServeClient, ServeConfig, ServeDaemon};
use wgft_winograd::ConvAlgorithm;

use crate::stats::{quantile, SplitMix};
use crate::trace::Tracer;

pub const TENANTS: [(&str, f64); 2] = [("free", 0.8), ("gold", 0.2)];

/// The daemon's tenants: `free` on the fast tier, `gold` on checksum +
/// recompute.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        tenants: BTreeMap::from([
            ("free".to_string(), ProtectionTier::Fast),
            ("gold".to_string(), ProtectionTier::ChecksumRecompute),
        ]),
        ..ServeConfig::default()
    }
}

/// A sender that falls this far behind gives up on the phase: the rate is
/// beyond what the daemon sustains, and waiting out the backlog only burns
/// the run's time.
const ABANDON_LAG: Duration = Duration::from_millis(250);

/// What one tenant's sender saw in a phase.
#[derive(Debug, Default, Clone)]
pub struct TenantStats {
    pub latencies_ms: Vec<f64>,
    pub lags_ms: Vec<f64>,
    /// Requests that got an error (including refusals and timeouts once the
    /// client's retries ran out).
    pub errors: u64,
    /// Answers that differ from the in-process prediction.
    pub wrong: u64,
    pub sent: u64,
    pub abandoned: bool,
    pub retries: u64,
}

impl TenantStats {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms, q)
    }
}

/// Both tenants' results for one phase: index 0 is `free`, 1 is `gold`.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    pub tenants: [TenantStats; 2],
}

impl PhaseStats {
    pub fn lag_p99_ms(&self) -> f64 {
        let mut lags = self.tenants[0].lags_ms.clone();
        lags.extend_from_slice(&self.tenants[1].lags_ms);
        quantile(&lags, 0.99)
    }

    pub fn sent(&self) -> u64 {
        self.tenants.iter().map(|t| t.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tenants.iter().map(TenantStats::failed).sum()
    }
}

/// The images requests carry and the prediction each must come back with.
pub struct Inputs {
    pub images: Vec<Vec<f32>>,
    pub expected: Vec<usize>,
}

/// The campaign's evaluation images and their in-process fast-path
/// predictions.
pub fn inputs(campaign: &FaultToleranceCampaign) -> Result<Inputs, String> {
    let net = campaign.quantized();
    let mut fast = net
        .prepare_fast()
        .map_err(|e| format!("prepare_fast: {e}"))?;
    let algo = ConvAlgorithm::winograd_default();
    let mut images = Vec::new();
    let mut expected = Vec::new();
    for sample in campaign.eval_set().samples() {
        expected.push(
            net.classify_fast(&sample.image, algo, &mut fast)
                .map_err(|e| format!("classify_fast: {e}"))?,
        );
        images.push(sample.image.data().to_vec());
    }
    Ok(Inputs { images, expected })
}

/// Connected clients, one per tenant.
pub fn clients(daemon: &ServeDaemon) -> Result<[ServeClient; 2], String> {
    let addr = daemon.addr().to_string();
    let mut clients = [ServeClient::new(addr.clone()), ServeClient::new(addr)];
    for client in &mut clients {
        client.health().map_err(|e| format!("health: {e}"))?;
    }
    Ok(clients)
}

/// Drive `rate` requests/s (split 4:1) for `duration` through `clients`
/// (one per tenant, already connected). `phase` keeps request ids and the
/// arrival stream of every phase distinct.
pub fn run_phase(
    clients: &mut [ServeClient; 2],
    inputs: &Inputs,
    rate: f64,
    duration: Duration,
    seed: u64,
    phase: u64,
    tracer: &Tracer,
) -> PhaseStats {
    let span = tracer.open("serve.phase", None, phase);
    let start = Instant::now() + Duration::from_millis(5);
    let mut stats = PhaseStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(TENANTS)
            .enumerate()
            .map(|(t, (client, (tenant, share)))| {
                scope.spawn(move || {
                    let mut rng = SplitMix::new(
                        seed ^ (phase << 8 | t as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                    );
                    let retries_before = client.retries();
                    let mut s = TenantStats::default();
                    let mut due = Duration::ZERO;
                    let mut k = 0u64;
                    loop {
                        due += Duration::from_secs_f64(-(1.0 - rng.unit()).ln() / (rate * share));
                        if due >= duration {
                            break;
                        }
                        let due_at = start + due;
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        if sent.saturating_duration_since(due_at) > ABANDON_LAG {
                            s.abandoned = true;
                            break;
                        }
                        let idx = (rng.next_u64() % inputs.images.len() as u64) as usize;
                        let request_id = phase << 40 | (t as u64) << 32 | k;
                        let answer = client.classify(request_id, tenant, &inputs.images[idx]);
                        let done = Instant::now();
                        let parent = tracer.is_enabled().then(|| {
                            tracer.record("serve.request", due_at, done, span, request_id)
                        });
                        tracer.record("client.classify", sent, done, parent, request_id);
                        s.sent += 1;
                        s.lags_ms.push((sent - due_at).as_secs_f64() * 1e3);
                        s.latencies_ms.push((done - due_at).as_secs_f64() * 1e3);
                        match answer {
                            Ok(c) if c.prediction == inputs.expected[idx] => {}
                            Ok(_) => s.wrong += 1,
                            Err(_) => s.errors += 1,
                        }
                        k += 1;
                    }
                    s.retries = client.retries() - retries_before;
                    s
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            stats.tenants[t] = handle.join().expect("load sender panicked");
        }
    });
    tracer.close(span);
    stats
}
