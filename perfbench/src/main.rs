//! `dlb-perfbench`: the scenario benchmark of record.
//!
//! ```text
//! dlb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this binary
//! and the `dlb-shard-worker` executable first. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is non-zero when any output check failed.

mod checks;
mod measure;
mod metrics;
mod spec;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dlb_core::bounds;
use dlb_core::engine::StatsMode;
use dlb_core::kernels::KernelKind;
use dlb_core::{Backend, Engine, Telemetry};
use dlb_graphs::partition::ShardPlan;
use dlb_telemetry::{Phase, SpanEvent};
use dlb_workloads::StopSpec;

use checks::Oracle;
use measure::{Ctx, Rep, SetupTimes};
use metrics::Values;
use spec::{Inputs, Size, Spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn usage(msg: &str) -> ! {
    eprintln!("dlb-perfbench: {msg}");
    eprintln!(
        "usage: dlb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]",
        spec::WORKLOADS.map(|(name, _)| name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::full(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    bad();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::full(),
                    "tiny" => Size::tiny(),
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

/// The host and run this result belongs to, as one JSON line. `run.py`
/// passes the facts only a shell sees (rustc version, commit).
fn stamp(args: &Args, spec: &Spec) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: &str| {
        (0..8)
            .filter_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                (lvl.trim() == level)
                    .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())?
            })
            .map(|s| s.trim().to_string())
            .next_back()
            .unwrap_or_else(|| "unknown".into())
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let n = spec.n();
    let slots = spec.csr_slots();
    format!(
        "{{\"stamp\": {{\"host\": {{\"nproc\": {threads}, \"cpu\": {cpu:?}, \"l2\": {:?}, \"l3\": {:?}, \
         \"rustc\": {:?}, \"DLB_KERNEL\": {:?}, \"kernel\": {:?}, \"simd_feature\": true, \"DLB_THREADS\": {:?}}}, \
         \"run\": {{\"commit\": {:?}, \"seed\": {}, \"workload\": {:?}, \"seconds\": {}, \"trace\": {}, \"n\": {n}}}, \
         \"working_set_mb\": {{\"load_vector\": {:.1}, \"csr\": {:.1}}}}}}}",
        cache("2"),
        cache("3"),
        env("PERFBENCH_RUSTC"),
        env("DLB_KERNEL"),
        KernelKind::from_env().name(),
        env("DLB_THREADS"),
        env("PERFBENCH_COMMIT"),
        args.seed,
        spec.name,
        args.seconds,
        u8::from(args.trace),
        (n * 8) as f64 / 1e6,
        (slots * 12) as f64 / 1e6,
    )
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn count(&mut self, reps: &[Rep]) {
        self.attempted += reps.len() as u64;
        self.failed += reps.iter().filter(|r| r.failure.is_some()).count() as u64;
    }
}

fn oracle_for(spec: &Spec, delta: u32) -> Oracle {
    Oracle {
        eps: spec.eps(),
        rounds_bound: bounds::theorem4_rounds(delta, spec.lambda2(), spec.eps()),
        drop_factor: bounds::theorem4_drop_factor(delta, spec.lambda2()),
    }
}

/// Median over repetitions of rounds per second, and the sorted per-round
/// wall times of all repetitions.
fn round_times(reps: &[Rep]) -> (f64, Vec<f64>) {
    let mut rates: Vec<f64> = reps
        .iter()
        .map(|r| r.rounds as f64 / secs(r.wall))
        .collect();
    let mut intervals: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.intervals.iter().map(|&d| ms(d)))
        .collect();
    intervals.sort_by(f64::total_cmp);
    (measure::median(&mut rates), intervals)
}

/// `--trace 0`: set-up several times, then scenario runs for `seconds`.
fn untraced(spec: &Spec, inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut times = SetupTimes::default();
    for _ in 1..spec.size.setups {
        let (g, t) = measure::timed(|| spec.build_graph());
        times.graph = t;
        let engine = measure::build_engine(spec, &g, &inputs.init, &mut times)?;
        setup.push(secs(times.total()));
        drop(engine);
    }
    let (g, t) = measure::timed(|| spec.build_graph());
    times.graph = t;
    let mut engine = measure::build_engine(spec, &g, &inputs.init, &mut times)?;
    setup.push(secs(times.total()));

    let phi0 = engine.potential(&inputs.init);
    let mut ctx = Ctx {
        spec,
        inputs,
        stop: spec.stop(phi0),
        require_eps: true,
        reference: None,
        oracle: spec.oracle().then(|| oracle_for(spec, g.max_degree())),
    };
    if spec.replays() {
        ctx.reference = Some(measure::serial_reference(&g, &ctx)?);
    }
    let mut loads = Vec::new();
    let reps = measure::measure(
        &mut engine,
        &mut loads,
        &ctx,
        Duration::from_secs_f64(seconds),
    );
    let rss = measure::peak_rss_mb(None) + measure::workers_rss_mb(&engine);
    drop(engine);

    let (rounds_per_s, intervals) = round_times(&reps);
    let mut eps_times: Vec<f64> = reps.iter().filter_map(|r| r.eps_time).map(secs).collect();
    let mut eps_rounds: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.eps_rounds)
        .map(|k| k as f64)
        .collect();
    eprintln!(
        "[perfbench] {}: {} repetitions, {} rounds, {} round-time samples, {} set-ups",
        spec.name,
        reps.len(),
        reps.iter().map(|r| r.rounds).sum::<usize>(),
        intervals.len(),
        setup.len()
    );

    let mut out = Outcome {
        values: Values::default(),
        attempted: 0,
        failed: 0,
    };
    out.count(&reps);
    let v = &mut out.values;
    v.set("setup_s", measure::median(&mut setup));
    v.set("rounds_per_s", rounds_per_s);
    // Each repetition's percentiles, then their median across
    // repetitions: a slow spell of a few seconds moves one repetition's
    // tail, not the reported value.
    let rep_percentile = |q: f64| {
        let mut per_rep: Vec<f64> = reps
            .iter()
            .map(|r| {
                let mut times: Vec<f64> = r.intervals.iter().map(|&d| ms(d)).collect();
                times.sort_by(f64::total_cmp);
                measure::percentile(&times, q)
            })
            .collect();
        measure::median(&mut per_rep)
    };
    v.set("round_ms_p50", rep_percentile(0.5));
    v.set("round_ms_p90", rep_percentile(0.9));
    v.set("time_to_eps_s", measure::median(&mut eps_times));
    v.set("rounds_to_eps", measure::median(&mut eps_rounds));
    v.set("peak_rss_mb", rss);
    Ok(out)
}

/// Lane-summed busy time per phase and the wall time covered by at least
/// one span, from a recorder snapshot.
fn span_totals(events: &[SpanEvent]) -> ([u64; Phase::ALL.len()], u64) {
    let mut per_phase = [0u64; Phase::ALL.len()];
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(events.len());
    for ev in events {
        per_phase[ev.phase as usize] += ev.dur_ns;
        spans.push((ev.start_ns, ev.start_ns + ev.dur_ns));
    }
    spans.sort_unstable();
    let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in spans {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (per_phase, covered)
}

/// `--trace 1`: the per-layer breakdown. Set-up is timed call by call;
/// then, on one engine, untraced and traced scenario runs, a pass counting
/// touched nodes, bare rounds at both stats modes, on-demand potentials
/// and finally bare rounds on a serial engine.
fn traced(spec: &Spec, inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut out = Outcome {
        values: Values::default(),
        attempted: 0,
        failed: 0,
    };
    let v = &mut out.values;

    let (g, graph_t) = measure::timed(|| spec.build_graph());
    let partition_t = spec.partition().map_or(Duration::ZERO, |p| {
        measure::timed(|| {
            let part = p.build(&g);
            ShardPlan::build(&g, &part)
        })
        .1
    });
    let mut times = SetupTimes {
        graph: graph_t,
        ..SetupTimes::default()
    };
    let mut engine = measure::build_engine(spec, &g, &inputs.init, &mut times)?;
    v.set("graphs.build_s", secs(graph_t));
    v.set("graphs.partition_s", secs(partition_t));
    v.set("continuous.new_s", secs(times.protocol));
    v.set("engine.new_s", secs(times.engine));

    let phi0 = engine.potential(&inputs.init);
    let oracle = oracle_for(spec, g.max_degree());
    let mut ctx = Ctx {
        spec,
        inputs,
        stop: spec.stop(phi0),
        require_eps: true,
        reference: None,
        oracle: spec.oracle().then_some(oracle),
    };
    if spec.replays() {
        ctx.reference = Some(measure::serial_reference(&g, &ctx)?);
    }
    let mut loads = Vec::new();

    // Untraced and traced scenario runs on the same engine.
    let plain = measure::measure(&mut engine, &mut loads, &ctx, budget(0.3));
    let telemetry = Telemetry::armed(spec.lanes(), 1 << 16);
    engine.set_telemetry(telemetry.clone());
    let recorder = telemetry.recorder().expect("armed").clone();
    let armed = measure::measure(&mut engine, &mut loads, &ctx, budget(0.3));
    engine.set_telemetry(Telemetry::Off);
    let events = recorder.events();
    out.count(&plain);
    out.count(&armed);
    if plain.iter().chain(armed.iter()).any(|r| r.panicked) {
        return Err("the engine panicked during a scenario run".into());
    }

    // Touched nodes per call, on a short run that is not timed.
    let touch_ctx = Ctx {
        stop: StopSpec::Rounds {
            rounds: spec.size.rounds.min(8),
        },
        require_eps: false,
        reference: None,
        oracle: None,
        ..ctx
    };
    let touch = if spec.workload(inputs).is_some() {
        let rep = measure::run_rep(&mut engine, &mut loads, &touch_ctx, true);
        out.attempted += 1;
        out.failed += u64::from(rep.failure.is_some());
        rep.touched
    } else {
        (0, 0)
    };

    let v = &mut out.values;
    let plain_rounds: usize = plain.iter().map(|r| r.rounds).sum();
    let per_round = |f: &dyn Fn(&dlb_workloads::CommTotals) -> u64| {
        plain
            .iter()
            .filter_map(|r| r.comm.as_ref())
            .map(f)
            .sum::<u64>() as f64
            / plain_rounds as f64
    };
    v.set("comm.messages_per_round", per_round(&|c| c.messages));
    v.set("comm.halo_values_per_round", per_round(&|c| c.values_sent));
    v.set("comm.owned_in_per_round", per_round(&|c| c.owned_values_in));
    v.set(
        "comm.owned_out_per_round",
        per_round(&|c| c.owned_values_out),
    );
    v.set(
        "comm.delta_values_per_round",
        per_round(&|c| c.delta_values),
    );
    v.set("comm.collects_per_round", per_round(&|c| c.collects));
    v.set("wire.bytes_out_per_round", per_round(&|c| c.wire_bytes_out));
    v.set("wire.bytes_in_per_round", per_round(&|c| c.wire_bytes_in));
    v.set("wire.worker_rss_mb", measure::workers_rss_mb(&engine));
    let shard = engine.shard_metrics().unwrap_or_default();
    v.set("graphs.edge_cut", shard.edge_cut as f64);
    v.set("graphs.halo", shard.halo as f64);
    let apply_ms = plain.iter().map(|r| r.apply_ns).sum::<u64>() as f64 / 1e6 / plain_rounds as f64;
    v.set("workload.apply_ms", apply_ms);
    v.set(
        "workload.touched_frac",
        if touch.1 == 0 {
            0.0
        } else {
            touch.0 as f64 / touch.1 as f64
        },
    );

    // Bare engine rounds, on-demand potential, then the serial engine.
    let full_ms = measure::bare_round_ms(&mut engine, &inputs.init, StatsMode::Full, budget(0.1));
    let off_ms = measure::bare_round_ms(&mut engine, &inputs.init, StatsMode::Off, budget(0.1));
    let round_ms = if spec.stats() == StatsMode::Full {
        full_ms
    } else {
        off_ms
    };
    let mut potential: Vec<f64> = (0..7)
        .map(|_| ms(measure::timed(|| std::hint::black_box(engine.potential(&inputs.init))).1))
        .collect();
    let potential_ms = measure::median(&mut potential);
    let protocol = engine.into_protocol();
    let mut serial = Engine::with_backend(protocol, Backend::Serial).with_stats_mode(spec.stats());
    let serial_ms = measure::bare_round_ms(&mut serial, &inputs.init, spec.stats(), budget(0.1));
    drop(serial);

    let v = &mut out.values;
    v.set("engine.round_ms", round_ms);
    v.set("engine.round_ms_serial", serial_ms);
    v.set("engine.pool_speedup", serial_ms / round_ms);
    v.set("engine.stats_ms", full_ms - off_ms);
    v.set("engine.potential_ms", potential_ms);
    let slots = g.degree_sum();
    v.set("kernels.edges_per_round", slots as f64);
    v.set(
        "kernels.bytes_per_round_computed",
        spec.gather_bytes() as f64,
    );
    v.set("kernels.ns_per_edge", off_ms * 1e6 / slots as f64);

    let (plain_rps, plain_intervals) = round_times(&plain);
    let mean_round = plain_intervals.iter().sum::<f64>() / plain_intervals.len() as f64;
    v.set(
        "runner.overhead_ms_per_round",
        mean_round - round_ms - apply_ms,
    );
    v.set("runner.scenario_over_round", mean_round / round_ms);

    let (armed_rps, _) = round_times(&armed);
    let armed_rounds: usize = armed.iter().map(|r| r.rounds).sum();
    let armed_wall: Duration = armed.iter().map(|r| r.wall).sum();
    let (per_phase, covered) = span_totals(&events);
    for phase in Phase::ALL {
        let total = per_phase[phase as usize] as f64 / 1e6 / armed_rounds as f64;
        v.set(metrics::phase_metric(phase), total);
    }
    v.set(
        "trace.unattributed_frac",
        1.0 - covered as f64 / armed_wall.as_nanos() as f64,
    );
    v.set("trace.overhead_frac", plain_rps / armed_rps - 1.0);
    v.set("trace.rounds", armed_rounds as f64);
    v.set("trace.dropped_spans", recorder.dropped() as f64);

    v.set("oracle.rounds_bound", oracle.rounds_bound);
    let violations: u64 = plain.iter().chain(armed.iter()).map(|r| r.violations).sum();
    v.set("oracle.violations", violations as f64);
    Ok(out)
}

/// The result line of a run that could not be measured to the end.
fn print_failed(attempted: u64, failed: u64) -> ! {
    println!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        attempted.max(1),
        failed.max(1)
    );
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let Some(spec) = Spec::by_name(&args.workload, args.size) else {
        usage(&format!("unknown workload {:?}", args.workload));
    };
    println!("{}", stamp(&args, &spec));
    let inputs = Inputs::generate(spec.n(), args.seed);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            traced(&spec, &inputs, args.seconds)
        } else {
            untraced(&spec, &inputs, args.seconds)
        }
    }))
    .unwrap_or_else(|payload| Err(measure::panic_message(payload.as_ref())));
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("[perfbench] {}: run failed: {e}", spec.name);
        print_failed(1, 1)
    });
    eprintln!(
        "[perfbench] {}: {:.1} s, {} attempted, {} failed",
        spec.name,
        started.elapsed().as_secs_f64(),
        outcome.attempted,
        outcome.failed
    );
    match metrics::result_line(
        &outcome.values,
        args.trace,
        outcome.attempted,
        outcome.failed,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("[perfbench] {}: {e}", spec.name);
            print_failed(outcome.attempted, outcome.failed)
        }
    }
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
