//! `hil-flash`: a wall-clock `Server` emulating the accelerator (shards
//! sleep for the modeled compute time) under repeated flash crowds on
//! SST-2, with preemption, elastic stealing and autoscaling, the
//! overload ladder, a fleet energy cap and telemetry all on.
//!
//! Outcomes are set by the control planes in modeled time while the
//! host CPU is mostly idle, so kernel speed-ups should not move it. The
//! loop is open: each request is timed from the instant it was due, so
//! a stalled generator shows in the latencies and in `load.late_p99_ms`.

use crate::common::{self, RunArgs};
use crate::metrics::{self, Report};
use crate::probe;
use crate::trace::{SpanId, Tracer};
use edgebert::engine::{DropTarget, EntropyThresholds};
use edgebert::serving::TaskRuntime;
use edgebert::{
    ElasticConfig, EnergyConfig, MultiTaskRuntime, OverloadConfig, PreemptionPolicy, Server,
    ServerConfig, ServerResponse, ServerStats, TelemetryConfig, TelemetrySnapshot,
};
use edgebert_bench::load::{generate_trace, LoadRequest, TraceSpec, TrafficClass};
use edgebert_tasks::Task;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const TASKS: [Task; 3] = [Task::Sst2, Task::Qnli, Task::Mnli];

/// Share of requests that opt into overload degradation.
const DEGRADABLE_SHARE: f64 = 0.5;

/// Shards per lane. Emulated shards sleep through their modeled compute,
/// so several per lane cost little host time and let the crowd be large
/// enough for a supported p99 within the run.
const SHARDS: usize = 3;

/// Fleet power cap, watts, with a floor of one twelfth per lane. It
/// binds: about a quarter of requests miss because their lane's
/// envelope forbids the operating point their deadline needs.
const FLEET_CAP_W: f64 = 0.13;

/// One crowd cycle in units of the hot lane's nominal service time:
/// calm, crowd, recovery. The run replays as many short cycles as fit
/// in its seconds, so the outcome averages over many crowds. Loads are
/// arrivals per nominal service time: the calm rate half fills the hot
/// lane's shards at nominal speed, the crowd two thirds of all nine.
const BASE_UNITS: f64 = 30.0;
const SPIKE_UNITS: f64 = 20.0;
const RECOVERY_UNITS: f64 = 50.0;
const BASE_LOAD: f64 = 1.5;
const SPIKE_LOAD: f64 = 6.0;

/// Hot lane: the 1 % tier's exit threshold is zeroed so undegraded
/// sentences run to their forecast depth on the optimized hardware
/// workload; a degraded notch falls to the calibrated 2 % tier.
fn hot_runtime(a: &edgebert::TaskArtifacts) -> TaskRuntime {
    if a.task != Task::Sst2 {
        return TaskRuntime::from_artifacts(a);
    }
    TaskRuntime::from_builder(
        a.task,
        a.engine_builder()
            .thresholds_for(DropTarget::OnePercent, EntropyThresholds::uniform(0.0))
            .workload(a.hardware_workload(true)),
    )
}

fn classes(floor_s: f64) -> Vec<TrafficClass> {
    [("tight", 2.5, 0.7), ("relaxed", 6.0, 0.3)]
        .into_iter()
        .map(|(name, units, weight)| TrafficClass {
            name,
            latency_target_s: units * floor_s,
            weight,
            task: Some(Task::Sst2),
        })
        .collect()
}

fn config(requests: usize) -> ServerConfig {
    ServerConfig {
        queue_capacity: requests,
        shards_per_task: SHARDS,
        emulate_service_time: true,
        preemption: PreemptionPolicy::DeadlineGap(0.0),
        elastic: ElasticConfig {
            enabled: true,
            ..ElasticConfig::default()
        },
        // The degrade rung only: a shed request fails, and the benchmark
        // keeps every operation successful.
        overload: OverloadConfig {
            enabled: true,
            shed_enter: 1e9,
            shed_exit: 1e9,
            ..OverloadConfig::default()
        },
        energy: Some(EnergyConfig {
            fleet_cap_w: FLEET_CAP_W,
            floor_w: FLEET_CAP_W / 12.0,
            ..EnergyConfig::default()
        }),
        telemetry: Some(TelemetryConfig::default()),
        ..ServerConfig::default()
    }
}

struct Setup {
    runtime: MultiTaskRuntime,
    load: Vec<LoadRequest>,
    labels: Vec<usize>,
}

fn setup(args: &RunArgs, tracer: &mut Tracer) -> Result<Setup, String> {
    let runtime = common::build_runtime(&TASKS, tracer, hot_runtime);
    let floor_s = runtime
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .nominal_service_estimate_s();
    let mut spec = TraceSpec::flash_crowd(
        classes(floor_s),
        args.seed,
        BASE_LOAD / floor_s,
        SPIKE_LOAD / floor_s,
        BASE_UNITS * floor_s,
        SPIKE_UNITS * floor_s,
        RECOVERY_UNITS * floor_s,
    );
    let cycle_s = (BASE_UNITS + SPIKE_UNITS + RECOVERY_UNITS) * floor_s;
    let cycles = ((args.seconds / cycle_s).floor() as usize).max(1);
    spec.segments = (0..cycles).flat_map(|_| spec.segments.clone()).collect();
    let mut load = generate_trace(&runtime, &spec);
    for (i, r) in load.iter_mut().enumerate() {
        if common::draw(args.seed, i as u64, DEGRADABLE_SHARE) {
            r.request = r.request.clone().with_max_degradation(2);
        }
    }
    let labels = common::trace_labels(&runtime, &spec, &load)?;
    Ok(Setup {
        runtime,
        load,
        labels,
    })
}

struct Replay {
    /// Per request: generator lateness and the response, if any.
    outcomes: Vec<(f64, Option<ServerResponse>)>,
    wall_s: f64,
    stats: ServerStats,
    telemetry: TelemetrySnapshot,
    snapshot_s: f64,
}

/// Each request's wall time from its due instant to its response, ms:
/// generator lateness plus the server's sojourn. A request without a
/// response never completed.
fn from_due_ms(r: &Replay) -> Vec<f64> {
    r.outcomes
        .iter()
        .map(|(late_s, o)| {
            o.as_ref()
                .map_or(f64::INFINITY, |o| (late_s + o.sojourn_s) * 1e3)
        })
        .collect()
}

/// Replays the trace open-loop from one thread, then waits for every
/// response.
fn replay(s: &Setup, tracer: &mut Tracer) -> Result<Replay, String> {
    let server = Server::start(&s.runtime, config(s.load.len()));
    let root = tracer.begin("load.open_loop", SpanId::NONE, None);
    let epoch = Instant::now();
    let mut pending = Vec::with_capacity(s.load.len());
    for (i, r) in s.load.iter().enumerate() {
        let due = epoch + Duration::from_secs_f64(r.arrival_s);
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(gap);
        }
        let request = r.request.clone();
        let late_s = Instant::now().saturating_duration_since(due).as_secs_f64();
        let handle = tracer
            .time("server.submit", root, Some(i as u64), || {
                server.submit(r.task, request)
            })
            .map_err(|e| format!("request {i} refused: {e}"))?;
        pending.push((late_s, handle));
    }
    let outcomes = pending
        .into_iter()
        .map(|(late_s, h)| (late_s, h.wait().ok()))
        .collect();
    let wall_s = epoch.elapsed().as_secs_f64();
    tracer.end(root);
    let started = Instant::now();
    let snapshot = tracer.time("telemetry.snapshot", SpanId::NONE, None, || {
        server.telemetry_snapshot()
    });
    let snapshot_s = started.elapsed().as_secs_f64();
    let stats = server.shutdown();
    Ok(Replay {
        outcomes,
        wall_s,
        stats,
        telemetry: snapshot.ok_or("telemetry is configured on")?,
        snapshot_s,
    })
}

pub fn run(args: &RunArgs) -> Result<(Report, BTreeMap<&'static str, f64>), String> {
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let mut m = BTreeMap::new();
    let (s, setup_times) = common::repeat_setup(args, &mut tracer, |t| setup(args, t));
    let s = s?;
    let n = s.load.len();

    let (r, untraced) = if args.trace {
        let untraced = replay(&s, &mut Tracer::new(false))?;
        (replay(&s, &mut tracer)?, Some(untraced))
    } else {
        (replay(&s, &mut tracer)?, None)
    };

    // Correctness: one outcome per submission, undegraded predictions
    // equal to a standalone serve, verdicts equal to `deadline_met`.
    report.attempted = n as u64;
    let served: Vec<&ServerResponse> = r.outcomes.iter().filter_map(|(_, o)| o.as_ref()).collect();
    report.failed = (n - served.len()) as u64;
    report.check(served.len() == n, || {
        format!("{} of {n} submissions got no response", n - served.len())
    });
    report.check(r.stats.submitted() == n as u64, || {
        format!(
            "server counted {} submissions, the benchmark made {n}",
            r.stats.submitted()
        )
    });
    let requests: Vec<_> = s.load.iter().map(|l| (l.task, &l.request)).collect();
    let (reference, _) = common::serve_one_by_one(&s.runtime, &requests, &mut tracer);
    let mut hits = 0usize;
    let (mut violations, mut tight, mut tight_violations, mut tight_failed) = (0, 0, 0, 0);
    for (i, (_, outcome)) in r.outcomes.iter().enumerate() {
        let is_tight = s.load[i].class == 0;
        tight += usize::from(is_tight);
        let Some(resp) = outcome else {
            tight_failed += usize::from(is_tight);
            continue;
        };
        common::check_prediction(
            &mut report,
            i,
            &resp.response,
            resp.degraded_notches,
            &reference[i],
        );
        common::check_server_verdict(&mut report, i, resp);
        hits += usize::from(resp.response.result.prediction == s.labels[i]);
        violations += usize::from(!resp.deadline_met);
        tight_violations += usize::from(is_tight && !resp.deadline_met);
    }

    if let Some(untraced) = untraced {
        let p50 = |r: &Replay| metrics::percentile(&from_due_ms(r), 0.5);
        m.insert("trace.overhead_frac", p50(&r)? / p50(&untraced)? - 1.0);
        let sum = tracer.summary();
        m.insert(
            "pipeline.build_s",
            sum["pipeline.build"].total_ns as f64 / 1e9,
        );
        m.insert("server.submit_us", sum["server.submit"].mean_us());
        let queue_ms: Vec<f64> = served.iter().map(|r| r.queue_delay_s * 1e3).collect();
        m.insert(
            "server.queue_delay_ms.p50",
            metrics::tail_percentile(&queue_ms, 0.5)?,
        );
        m.insert(
            "server.queue_delay_ms.p99",
            metrics::tail_percentile(&queue_ms, 0.99)?,
        );
        let st = &r.stats;
        m.insert("server.refused", st.rejected() as f64);
        m.insert("server.preempted", st.preempted() as f64);
        m.insert("server.resumed", st.resumed() as f64);
        m.insert("server.stolen", st.stolen() as f64);
        m.insert("server.pool_resizes", st.pool_resizes() as f64);
        m.insert("overload.degraded_frac", st.degraded() as f64 / n as f64);
        m.insert("overload.shed_frac", st.shed() as f64 / n as f64);
        m.insert("overload.ladder_steps", st.ladder_step_changes() as f64);
        m.insert("energy.attach_declined", st.attach_declined() as f64);
        m.insert(
            "energy.envelope_w_mean",
            metrics::mean(r.telemetry.samples.iter().filter_map(|x| x.envelope_w)),
        );
        m.insert("telemetry.events", r.telemetry.events.len() as f64);
        m.insert("telemetry.drops", r.telemetry.dropped_events as f64);
        m.insert("telemetry.snapshot_ms", r.snapshot_s * 1e3);
        let late_ms: Vec<f64> = r.outcomes.iter().map(|(late, _)| late * 1e3).collect();
        m.insert(
            "load.late_p99_ms",
            metrics::tail_percentile(&late_ms, 0.99)?,
        );
        common::insert_result_means(&mut m, served.iter().map(|r| &r.response.result));
        let sample: Vec<_> = s
            .load
            .iter()
            .take(probe::PROBE_REQUESTS)
            .map(|l| (l.task, l.request.clone()))
            .collect();
        probe::probe_layers(&s.runtime, &sample, &mut tracer, &mut m, &mut report);
        crate::write_trace(&tracer, "hil-flash", args.seed)?;
    } else {
        m.insert("setup_s", metrics::median(&setup_times));
        m.insert("accuracy", hits as f64 / n as f64);
        m.insert("served_frac", served.len() as f64 / n as f64);
        m.insert("req_per_s", served.len() as f64 / r.wall_s);
        let latency_ms = from_due_ms(&r);
        m.insert("p50_ms", metrics::tail_percentile(&latency_ms, 0.5)?);
        m.insert("p99_ms", metrics::tail_percentile(&latency_ms, 0.99)?);
        m.insert(
            "miss_frac",
            metrics::miss_frac(violations, n - served.len(), n),
        );
        m.insert(
            "tight_miss_frac",
            metrics::miss_frac(tight_violations, tight_failed, tight),
        );
        m.insert(
            "energy_uj_per_req",
            metrics::mean(served.iter().map(|r| r.energy_j * 1e6)),
        );
    }
    Ok((report, m))
}
