//! Drives scenario runs through the public API and times each layer from
//! outside, by timing the calls the benchmark makes into it.
//!
//! A *repetition* is one scenario run: `dlb_workloads::run_driven` on an
//! engine built with `Engine::with_backend`, from the seeded initial loads
//! to the workload's stop condition. The workload is wrapped in a
//! [`Probe`] that delegates unchanged and timestamps each call; the
//! interval between two calls is one scenario round's wall time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::engine::StatsMode;
use dlb_core::{Backend, Engine};
use dlb_graphs::Graph;
use dlb_workloads::{run_driven, CommTotals, StopSpec, Workload, WorkloadCtx, WorkloadDelta};

use crate::checks::{self, Digest, Oracle};
use crate::spec::{Inputs, Spec};

pub type Eng<'g> = Engine<ContinuousDiffusion<'g>>;

/// Delegating workload: forwards every call unchanged, timestamps it, and
/// times the inner `apply`. With `touched` armed it also counts how many
/// nodes each call changed — that needs a copy of the loads per call, so
/// it is armed only on a separate pass that is not timed.
pub struct Probe<'w> {
    inner: Option<&'w mut dyn Workload<f64>>,
    stamps: Vec<Instant>,
    apply_ns: u64,
    touched: Option<Touched>,
}

#[derive(Default)]
struct Touched {
    before: Vec<f64>,
    changed: u64,
    seen: u64,
}

impl<'w> Probe<'w> {
    fn new(inner: Option<&'w mut dyn Workload<f64>>, count_touched: bool, rounds: usize) -> Self {
        Probe {
            inner,
            stamps: Vec::with_capacity(rounds.min(1 << 16)),
            apply_ns: 0,
            touched: count_touched.then(Touched::default),
        }
    }
}

impl Workload<f64> for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.as_ref().map_or("none", |w| w.name())
    }

    fn apply(&mut self, round: u64, loads: &mut [f64], ctx: &WorkloadCtx) -> WorkloadDelta {
        self.stamps.push(Instant::now());
        let Some(inner) = self.inner.as_deref_mut() else {
            return WorkloadDelta::default();
        };
        if let Some(t) = &mut self.touched {
            t.before.clear();
            t.before.extend_from_slice(loads);
        }
        let t0 = Instant::now();
        let delta = inner.apply(round, loads, ctx);
        self.apply_ns += t0.elapsed().as_nanos() as u64;
        if let Some(t) = &mut self.touched {
            t.changed += t
                .before
                .iter()
                .zip(loads.iter())
                .filter(|(a, b)| a != b)
                .count() as u64;
            t.seen += loads.len() as u64;
        }
        delta
    }
}

/// What one repetition measured and whether its outputs passed.
#[derive(Debug, Default)]
pub struct Rep {
    pub rounds: usize,
    pub wall: Duration,
    /// Wall time of each scenario round but the last (apply to apply).
    pub intervals: Vec<Duration>,
    pub eps_rounds: Option<usize>,
    pub eps_time: Option<Duration>,
    pub apply_ns: u64,
    pub touched: (u64, u64),
    pub comm: Option<CommTotals>,
    pub violations: u64,
    pub digest: Option<Digest>,
    pub failure: Option<String>,
    /// The engine panicked: it may be unusable, so no further
    /// repetition is attempted on it.
    pub panicked: bool,
}

/// Fixed context of every repetition of one invocation.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub stop: StopSpec,
    /// Φ must fall to ε·Φ₀ within the run (off only for runs stopped
    /// early on purpose).
    pub require_eps: bool,
    /// Serial replay to match bit for bit.
    pub reference: Option<Digest>,
    pub oracle: Option<Oracle>,
}

pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// One scenario run from the initial loads, with every output check.
pub fn run_rep(
    engine: &mut Eng<'_>,
    loads: &mut Vec<f64>,
    ctx: &Ctx<'_>,
    count_touched: bool,
) -> Rep {
    loads.clear();
    loads.extend_from_slice(&ctx.inputs.init);
    let mut workload = ctx.spec.workload(ctx.inputs);
    // A plain `as_deref_mut` would tie the probe to the box's `'static`
    // trait-object bound; matching lets the reference coerce.
    let inner: Option<&mut dyn Workload<f64>> = match workload.as_mut() {
        Some(w) => Some(w.as_mut()),
        None => None,
    };
    let mut probe = Probe::new(inner, count_touched, ctx.stop.max_rounds());
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_driven(engine, loads, Some(&mut probe), &ctx.stop, ctx.spec.name)
    }));
    let wall = t0.elapsed();
    let report = match result {
        Ok(report) => report,
        Err(payload) => {
            return Rep {
                failure: Some(format!("panicked: {}", panic_message(payload.as_ref()))),
                panicked: true,
                ..Rep::default()
            };
        }
    };

    let stamps = &probe.stamps;
    let eps_rounds = checks::rounds_to_eps(&report.phi_trace, ctx.spec.eps());
    // Round k ends when the probe is called for round k + 1, or when the
    // run returns after its last round.
    let eps_time = eps_rounds.map(|k| match stamps.get(k) {
        Some(&t) if k > 0 => t - t0,
        _ if k == 0 => Duration::ZERO,
        _ => wall,
    });
    let mut rep = Rep {
        rounds: report.rounds,
        wall,
        intervals: stamps.windows(2).map(|w| w[1] - w[0]).collect(),
        eps_rounds,
        eps_time,
        apply_ns: probe.apply_ns,
        touched: probe
            .touched
            .as_ref()
            .map_or((0, 0), |t| (t.changed, t.seen)),
        comm: report.comm,
        ..Rep::default()
    };

    let mut failures = Vec::new();
    if let Err(e) = checks::conservation(
        report.initial_total,
        report.injected_total,
        report.consumed_total,
        report.final_total,
    ) {
        failures.push(e);
    }
    let digest = Digest::of(report.phi_final(), report.final_total, loads);
    rep.digest = Some(digest);
    if let Some(reference) = ctx.reference {
        if let Err(e) = checks::replay_matches(digest, reference) {
            failures.push(e);
        }
    }
    if let Some(oracle) = ctx.oracle {
        rep.violations = oracle.violations(&report.phi_trace);
        if rep.violations > 0 {
            failures.push(format!(
                "oracle: {} Theorem 4 violations (rounds to ε {:?}, bound {:.1})",
                rep.violations, eps_rounds, oracle.rounds_bound
            ));
        }
    }
    if ctx.require_eps && eps_rounds.is_none() {
        failures.push(format!("Φ never reached ε·Φ₀ (ε = {})", ctx.spec.eps()));
    }
    if !failures.is_empty() {
        rep.failure = Some(failures.join("; "));
    }
    rep
}

/// Repetitions until the next one would overrun `budget` (at least one).
pub fn measure(
    engine: &mut Eng<'_>,
    loads: &mut Vec<f64>,
    ctx: &Ctx<'_>,
    budget: Duration,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep = run_rep(engine, loads, ctx, false);
        let stop = rep.panicked;
        if let Some(f) = &rep.failure {
            eprintln!(
                "[perfbench] {} repetition {} failed: {f}",
                ctx.spec.name,
                reps.len() + 1
            );
        }
        reps.push(rep);
        let elapsed = start.elapsed();
        if stop || elapsed + elapsed / reps.len() as u32 > budget {
            return reps;
        }
    }
}

/// Set-up cost of one engine, by layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub graph: Duration,
    pub protocol: Duration,
    pub engine: Duration,
    /// The first round: plan derivation, plan broadcast to workers and
    /// pool warm-up happen here, so it counts as set-up.
    pub warm: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.graph + self.protocol + self.engine + self.warm
    }
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Builds the workload's engine and runs its first round on a scratch
/// copy of the initial loads. Errors carry the panic message (a missing or
/// crashed worker process surfaces here).
pub fn build_engine<'g>(
    spec: &Spec,
    g: &'g Graph,
    init: &[f64],
    times: &mut SetupTimes,
) -> Result<Eng<'g>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (protocol, t) = timed(|| ContinuousDiffusion::new(g));
        times.protocol = t;
        let (mut engine, t) =
            timed(|| Engine::with_backend(protocol, spec.backend()).with_stats_mode(spec.stats()));
        times.engine = t;
        let mut warm = init.to_vec();
        times.warm = timed(|| engine.round(&mut warm)).1;
        engine
    }))
    .map_err(|payload| format!("set-up panicked: {}", panic_message(payload.as_ref())))
}

/// Serial replay of one repetition: the reference the distributed
/// executors must reproduce bit for bit. Not timed.
pub fn serial_reference(g: &Graph, ctx: &Ctx<'_>) -> Result<Digest, String> {
    let mut engine = Engine::with_backend(ContinuousDiffusion::new(g), Backend::Serial)
        .with_stats_mode(ctx.spec.stats());
    let mut loads = Vec::new();
    let replay_ctx = Ctx {
        stop: ctx.stop.clone(),
        reference: None,
        ..*ctx
    };
    let rep = run_rep(&mut engine, &mut loads, &replay_ctx, false);
    match (rep.failure, rep.digest) {
        (None, Some(digest)) => Ok(digest),
        (failure, _) => Err(format!(
            "serial replay failed: {}",
            failure.unwrap_or_default()
        )),
    }
}

/// Mean wall time of bare engine rounds (no workload, no runner) at the
/// given stats mode, driving rounds for about `budget` (at least three).
/// A resident message engine is driven through a resident session, the
/// way the scenario runner drives it.
pub fn bare_round_ms(engine: &mut Eng<'_>, init: &[f64], mode: StatsMode, budget: Duration) -> f64 {
    let saved = engine.stats_mode();
    engine.set_stats_mode(mode);
    let mut loads = init.to_vec();
    let resident = matches!(engine.backend(), Backend::Message { resident: true, .. });
    if resident {
        engine.resident_begin(&loads);
    }
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut rounds = 0u32;
    while rounds < 3 || start.elapsed() < budget {
        let t0 = Instant::now();
        if resident {
            std::hint::black_box(engine.round_resident());
        } else {
            std::hint::black_box(engine.round(&mut loads));
        }
        busy += t0.elapsed();
        rounds += 1;
    }
    if resident {
        engine.resident_end();
    }
    engine.set_stats_mode(saved);
    busy.as_secs_f64() * 1e3 / f64::from(rounds)
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak RSS summed over the engine's worker processes (0 when it has none).
pub fn workers_rss_mb(engine: &Eng<'_>) -> f64 {
    engine
        .process_worker_pids()
        .unwrap_or_default()
        .into_iter()
        .map(|pid| peak_rss_mb(Some(pid)))
        .fold(0.0, |a, b| a + b)
}

/// Linear-interpolated percentile of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}
