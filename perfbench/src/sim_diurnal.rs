//! `sim-diurnal`: `DeadlineScheduler` drains of diurnal traces across
//! the four GLUE tasks, on the deterministic virtual timeline.
//!
//! The modeled outcomes (misses, energy, accuracy) are a pure function
//! of the seed, so any change in them is a change in behaviour, not
//! noise. Host time is dominated by the scheduler's per-dispatch scans
//! over the pending queue; the model kernels are a minority share.
//!
//! A drain's scans grow with the square of its length, so the run
//! replays several independent days of a fixed length (each its own
//! drain, seeded from the run's seed) rather than one long day: the
//! pooled outcomes then vary little from seed to seed at a host cost
//! linear in the number of days.

use crate::common::{self, RunArgs};
use crate::metrics::{self, Report};
use crate::probe;
use crate::trace::{SpanId, Tracer};
use edgebert::scheduler::{DeadlineScheduler, ScheduledResponse, SchedulerConfig};
use edgebert::serving::TaskRuntime;
use edgebert::{deadline_met, EnergyConfig, MultiTaskRuntime, OverloadConfig};
use edgebert_bench::load::{generate_trace, LoadRequest, TraceSpec, TrafficClass};
use edgebert_tasks::Task;
use std::collections::BTreeMap;
use std::time::Instant;

const TASKS: [Task; 4] = [Task::Sst2, Task::Qnli, Task::Mnli, Task::Qqp];

/// Deadline classes, tightest first; requests of any task draw any
/// class.
fn classes() -> Vec<TrafficClass> {
    [
        ("tight", 8e-3, 0.3),
        ("medium", 20e-3, 0.4),
        ("relaxed", 60e-3, 0.3),
    ]
    .into_iter()
    .map(|(name, latency_target_s, weight)| TrafficClass {
        name,
        latency_target_s,
        weight,
        task: None,
    })
    .collect()
}

/// Days replayed per run, and requests kept of each.
const DAYS: u64 = 8;
const DAY_REQUESTS: usize = 2800;

/// One day: two diurnal cycles whose peak offers more than the two
/// virtual lanes serve at deadline-stretched service times, so queues
/// build and drain twice. A day offers 3200 requests on average (seven
/// standard deviations above `DAY_REQUESTS`, so no seed falls short);
/// the surplus at its end is cut so every drain has the same length.
const TROUGH_HZ: f64 = 100.0;
const PEAK_HZ: f64 = 300.0;
const PERIOD_S: f64 = 8.0;
const CYCLES: usize = 2;

/// Share of requests that opt into overload degradation.
const DEGRADABLE_SHARE: f64 = 0.3;

fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 2,
        queue_aware_slack: true,
        overload: OverloadConfig {
            enabled: true,
            ..OverloadConfig::default()
        },
        energy: Some(EnergyConfig::default()),
        ..SchedulerConfig::default()
    }
}

struct Day {
    load: Vec<LoadRequest>,
    labels: Vec<usize>,
}

struct Setup {
    runtime: MultiTaskRuntime,
    days: Vec<Day>,
}

fn day(runtime: &MultiTaskRuntime, seed: u64) -> Result<Day, String> {
    let spec = TraceSpec::diurnal(classes(), seed, TROUGH_HZ, PEAK_HZ, PERIOD_S, CYCLES);
    let mut load = generate_trace(runtime, &spec);
    if load.len() < DAY_REQUESTS {
        return Err(format!(
            "day {seed} offered {} requests, fewer than {DAY_REQUESTS}",
            load.len()
        ));
    }
    load.truncate(DAY_REQUESTS);
    for (i, r) in load.iter_mut().enumerate() {
        if common::draw(seed, i as u64, DEGRADABLE_SHARE) {
            r.request = r.request.clone().with_max_degradation(2);
        }
    }
    let labels = common::trace_labels(runtime, &spec, &load)?;
    Ok(Day { load, labels })
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let runtime = common::build_runtime(&TASKS, tracer, TaskRuntime::from_artifacts);
    let days = (0..DAYS)
        .map(|d| day(&runtime, common::mix(seed, d)))
        .collect::<Result<_, _>>()?;
    Ok(Setup { runtime, days })
}

type Drained = Vec<Vec<Option<ScheduledResponse>>>;

/// One round: every day through a fresh scheduler, submissions then
/// one drain.
fn replay(s: &Setup, tracer: &mut Tracer) -> (Drained, f64) {
    let started = Instant::now();
    let out = s
        .days
        .iter()
        .map(|day| {
            let root = tracer.begin("scheduler.replay", SpanId::NONE, None);
            let mut scheduler = DeadlineScheduler::new(&s.runtime, scheduler_config());
            for (i, r) in day.load.iter().enumerate() {
                let request = r.request.clone();
                tracer.time("scheduler.submit", root, Some(i as u64), || {
                    scheduler.submit(r.task, request, r.arrival_s)
                });
            }
            let out = tracer.time("scheduler.drain", root, None, || scheduler.drain());
            tracer.end(root);
            out
        })
        .collect();
    (out, started.elapsed().as_secs_f64())
}

/// Replays rounds until `share` of the run's seconds are spent (at
/// least two), checking every round is bit-identical to the first.
fn measure(
    s: &Setup,
    args: &RunArgs,
    share: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (Drained, Vec<f64>) {
    let budget = args.duration(share);
    let started = Instant::now();
    let (first, t) = replay(s, tracer);
    let mut times = vec![t];
    while times.len() < 2 || started.elapsed() < budget {
        let (again, t) = replay(s, tracer);
        times.push(t);
        report.check(again == first, || {
            format!("round {} of one seed differs from the first", times.len())
        });
    }
    (first, times)
}

pub fn run(args: &RunArgs) -> Result<(Report, BTreeMap<&'static str, f64>), String> {
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let mut m = BTreeMap::new();
    let (s, setup_times) = common::repeat_setup(args, &mut tracer, |t| setup(args.seed, t));
    let s = s?;

    // The traced run measures the same rounds twice, untraced first.
    let (out, times, untraced_times) = if args.trace {
        let (_, untraced) = measure(&s, args, 0.5, &mut Tracer::new(false), &mut report);
        let (out, traced) = measure(&s, args, 0.5, &mut tracer, &mut report);
        (out, traced, Some(untraced))
    } else {
        let (out, times) = measure(&s, args, 1.0, &mut tracer, &mut report);
        (out, times, None)
    };

    // Correctness: one outcome per submission, predictions equal to a
    // standalone serve, verdicts equal to `deadline_met`.
    let load: Vec<&LoadRequest> = s.days.iter().flat_map(|d| &d.load).collect();
    let labels: Vec<usize> = s
        .days
        .iter()
        .flat_map(|d| d.labels.iter().copied())
        .collect();
    for (d, (day, drained)) in s.days.iter().zip(&out).enumerate() {
        report.check(drained.len() == day.load.len(), || {
            format!(
                "day {d}: {} outcomes for {} submissions",
                drained.len(),
                day.load.len()
            )
        });
    }
    let out: Vec<&Option<ScheduledResponse>> = out.iter().flatten().collect();
    let n = load.len();
    let served: Vec<&ScheduledResponse> = out.iter().filter_map(|r| r.as_ref()).collect();
    report.attempted = n as u64;
    report.failed = (n - served.len()) as u64;
    let requests: Vec<_> = load.iter().map(|r| (r.task, &r.request)).collect();
    let (reference, one_by_one_s) = common::serve_one_by_one(&s.runtime, &requests, &mut tracer);
    let mut hits = 0usize;
    let (mut violations, mut tight, mut tight_violations, mut tight_failed) = (0, 0, 0, 0);
    let mut sojourn_ms = Vec::with_capacity(n);
    for (i, (r, l)) in out.iter().zip(&load).enumerate() {
        tight += usize::from(l.class == 0);
        let Some(r) = r else {
            tight_failed += usize::from(l.class == 0);
            sojourn_ms.push(f64::INFINITY);
            continue;
        };
        common::check_prediction(
            &mut report,
            i,
            &r.response,
            r.degraded_notches,
            &reference[i],
        );
        let met = deadline_met(r.sojourn_s, r.response.latency_target_s);
        report.check(met == r.deadline_met, || {
            format!(
                "request {i}: scheduler verdict {} != deadline_met {met}",
                r.deadline_met
            )
        });
        hits += usize::from(r.response.result.prediction == labels[i]);
        violations += usize::from(!r.deadline_met);
        tight_violations += usize::from(l.class == 0 && !r.deadline_met);
        sojourn_ms.push(r.sojourn_s * 1e3);
    }

    if let Some(untraced) = untraced_times {
        m.insert(
            "trace.overhead_frac",
            metrics::median(&times) / metrics::median(&untraced) - 1.0,
        );
        let sum = tracer.summary();
        let total_s = |name: &str| sum.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        m.insert("pipeline.build_s", total_s("pipeline.build"));
        m.insert("scheduler.submit_us", sum["scheduler.submit"].mean_us());
        // Per round, against the one-by-one serving of the same requests.
        let drain_s = total_s("scheduler.drain") / times.len() as f64;
        m.insert("scheduler.drain_s", drain_s);
        m.insert("scheduler.self_s", drain_s - one_by_one_s);
        let queue_ms: Vec<f64> = served.iter().map(|r| r.queue_delay_s * 1e3).collect();
        m.insert(
            "scheduler.queue_delay_ms.p50",
            metrics::tail_percentile(&queue_ms, 0.5)?,
        );
        m.insert(
            "scheduler.queue_delay_ms.p99",
            metrics::tail_percentile(&queue_ms, 0.99)?,
        );
        let degraded = served.iter().filter(|r| r.degraded_notches > 0).count();
        m.insert("scheduler.degraded_frac", degraded as f64 / n as f64);
        common::insert_result_means(&mut m, served.iter().map(|r| &r.response.result));
        let sample: Vec<_> = load
            .iter()
            .take(probe::PROBE_REQUESTS)
            .map(|l| (l.task, l.request.clone()))
            .collect();
        probe::probe_layers(&s.runtime, &sample, &mut tracer, &mut m, &mut report);
        crate::write_trace(&tracer, "sim-diurnal", args.seed)?;
    } else {
        let failed = report.failed as usize;
        m.insert("setup_s", metrics::median(&setup_times));
        m.insert("accuracy", hits as f64 / n as f64);
        m.insert("served_frac", served.len() as f64 / n as f64);
        m.insert("req_per_s", n as f64 / metrics::median(&times));
        m.insert("p50_ms", metrics::tail_percentile(&sojourn_ms, 0.5)?);
        m.insert("p99_ms", metrics::tail_percentile(&sojourn_ms, 0.99)?);
        m.insert("miss_frac", metrics::miss_frac(violations, failed, n));
        m.insert(
            "tight_miss_frac",
            metrics::miss_frac(tight_violations, tight_failed, tight),
        );
        m.insert(
            "energy_uj_per_req",
            metrics::mean(served.iter().map(|r| r.response.result.energy_j * 1e6)),
        );
    }
    Ok((report, m))
}
