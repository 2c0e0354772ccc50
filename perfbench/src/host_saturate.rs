//! `host-saturate`: a wall-clock `Server` whose shards only spend the
//! software model's compute time (`emulate_service_time` off), with
//! SST-2 and QNLI lanes of one shard each.
//!
//! Strict entropy thresholds force every sentence to full depth, so the
//! model kernels dominate host time. Phase 1 is one closed-loop client
//! (batch size 1: a batching change should leave it unchanged); phase 2
//! submits bursts from one thread as fast as admission accepts them.
//! It bypasses the scheduler and every control plane.
//!
//! Responses are checked and folded into running totals as they
//! arrive, so memory does not grow with the host's speed.

use crate::common::{self, RunArgs};
use crate::metrics::{self, Report};
use crate::probe;
use crate::trace::{SpanId, Tracer};
use edgebert::engine::{EntropyThresholds, InferenceMode, InferenceRequest, InferenceResponse};
use edgebert::serving::TaskRuntime;
use edgebert::{MultiTaskRuntime, Server, ServerConfig, ServerResponse, SubmitError};
use edgebert_tasks::Task;
use std::collections::BTreeMap;
use std::time::Instant;

const TASKS: [Task; 2] = [Task::Sst2, Task::Qnli];

/// Distinct inputs per task; requests draw from them by seed.
const POOL: usize = 2048;

/// Requests per phase-2 burst, split evenly over the two lanes: enough
/// for each burst's own p99 to have ten samples beyond it.
const BURST: usize = 1024;

/// Share of the run spent in phase 1; the rest is phase 2.
const CLOSED_LOOP_SHARE: f64 = 0.4;

/// Burst deadline classes. Full-depth nominal compute is modeled at
/// about 16 ms, so a tight request meets its target only if it waits
/// less than about 4 ms: how many do depends on how fast the host
/// drains the burst. Relaxed targets cover the whole burst.
const TIGHT_SHARE: f64 = 0.1;
const TIGHT_TARGET_S: f64 = 20e-3;
const RELAXED_TARGET_S: f64 = 1.0;

struct Setup {
    runtime: MultiTaskRuntime,
    /// Per task: (tokens, label).
    pools: Vec<Vec<(Vec<u32>, usize)>>,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Setup {
    let runtime = common::build_runtime(&TASKS, tracer, |a| {
        TaskRuntime::from_builder(
            a.task,
            a.engine_builder()
                .uniform_thresholds(EntropyThresholds::uniform(0.0)),
        )
    });
    let pools = TASKS
        .iter()
        .map(|&task| common::examples(&runtime, task, POOL, seed ^ task as u64))
        .collect();
    Setup { runtime, pools }
}

/// The `i`-th request of a run: lanes alternate, inputs and classes
/// are drawn by seed.
struct Pick {
    lane: usize,
    input: usize,
    tight: bool,
}

fn pick(seed: u64, i: u64) -> Pick {
    Pick {
        lane: (i % 2) as usize,
        input: (common::mix(seed, i) % POOL as u64) as usize,
        tight: common::draw(seed ^ 0x7167, i, TIGHT_SHARE),
    }
}

fn request(s: &Setup, p: &Pick, target_s: f64) -> InferenceRequest {
    InferenceRequest::new(s.pools[p.lane][p.input].0.clone())
        .with_mode(InferenceMode::ConventionalEe)
        .with_latency_target(target_s)
}

/// Running totals over the served responses of one measurement.
#[derive(Default)]
struct Tally {
    served: usize,
    lost: usize,
    hits: usize,
    energy_uj: f64,
    exit_layers: f64,
    modeled_ms: f64,
    voltage: f64,
    /// Queue delays, kept only in the traced run so that memory does not
    /// grow with the host's speed in the measured one.
    keep_queue_ms: bool,
    queue_ms: Vec<f64>,
    closed_ms: Vec<f64>,
    /// Each burst's sojourn p99; their median is robust to a burst
    /// slowed by other work on the machine.
    burst_p99_ms: Vec<f64>,
    burst_requests: usize,
    burst_misses: usize,
    burst_lost: usize,
    tight: usize,
    tight_lost: usize,
    tight_misses: usize,
    burst_rates: Vec<f64>,
    refused: u64,
}

impl Tally {
    /// Checks one response against the standalone reference of its
    /// input and folds it in.
    fn fold(
        &mut self,
        s: &Setup,
        reference: &[InferenceResponse],
        p: &Pick,
        r: &ServerResponse,
        report: &mut Report,
    ) {
        let i = self.served;
        common::check_prediction(
            report,
            i,
            &r.response,
            r.degraded_notches,
            &reference[p.lane * POOL + p.input],
        );
        common::check_server_verdict(report, i, r);
        let result = &r.response.result;
        self.served += 1;
        self.hits += usize::from(result.prediction == s.pools[p.lane][p.input].1);
        self.energy_uj += r.energy_j * 1e6;
        self.exit_layers += result.exit_layer as f64;
        self.modeled_ms += result.latency_s * 1e3;
        self.voltage += f64::from(result.voltage);
        if self.keep_queue_ms {
            self.queue_ms.push(r.queue_delay_s * 1e3);
        }
    }

    fn mean(&self, sum: f64) -> f64 {
        sum / self.served.max(1) as f64
    }
}

fn measure(
    s: &Setup,
    reference: &[InferenceResponse],
    args: &RunArgs,
    share: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Tally, String> {
    let server = Server::start(
        &s.runtime,
        ServerConfig {
            queue_capacity: BURST,
            ..ServerConfig::default()
        },
    );
    let mut t = Tally {
        keep_queue_ms: tracer.enabled(),
        ..Tally::default()
    };
    let mut i = 0u64;

    // Phase 1: one closed-loop client.
    let budget = args.duration(share * CLOSED_LOOP_SHARE);
    let started = Instant::now();
    let root = tracer.begin("load.closed_loop", SpanId::NONE, None);
    while t.closed_ms.len() < 1000 || started.elapsed() < budget {
        let p = pick(args.seed, i);
        let req = request(s, &p, RELAXED_TARGET_S);
        let sent = Instant::now();
        let handle = tracer
            .time("server.submit", root, Some(i), || {
                server.submit(TASKS[p.lane], req)
            })
            .map_err(|e| format!("closed-loop submit refused: {e}"))?;
        match tracer.time("server.wait", root, Some(i), || handle.wait()) {
            Ok(r) => {
                t.closed_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                t.fold(s, reference, &p, &r, report);
            }
            Err(_) => t.lost += 1,
        }
        i += 1;
    }
    tracer.end(root);

    // Phase 2: bursts submitted as fast as admission accepts them.
    let budget = args.duration(share * (1.0 - CLOSED_LOOP_SHARE));
    let started = Instant::now();
    while t.burst_rates.len() < 3 || started.elapsed() < budget {
        let root = tracer.begin("load.burst", SpanId::NONE, None);
        let sent = Instant::now();
        let mut handles = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            let p = pick(args.seed, i);
            let target = if p.tight {
                TIGHT_TARGET_S
            } else {
                RELAXED_TARGET_S
            };
            loop {
                let req = request(s, &p, target);
                match tracer.time("server.submit", root, Some(i), || {
                    server.submit(TASKS[p.lane], req)
                }) {
                    Ok(h) => {
                        handles.push((p, h));
                        break;
                    }
                    Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => return Err(format!("burst submit refused: {e}")),
                }
            }
            i += 1;
        }
        let responses: Vec<_> = handles.into_iter().map(|(p, h)| (p, h.wait())).collect();
        t.burst_rates
            .push(BURST as f64 / sent.elapsed().as_secs_f64());
        tracer.end(root);
        let mut sojourn_ms = Vec::with_capacity(BURST);
        for (p, outcome) in responses {
            t.tight += usize::from(p.tight);
            let Ok(r) = outcome else {
                t.lost += 1;
                t.burst_lost += 1;
                t.tight_lost += usize::from(p.tight);
                sojourn_ms.push(f64::INFINITY);
                continue;
            };
            t.fold(s, reference, &p, &r, report);
            sojourn_ms.push(r.sojourn_s * 1e3);
            t.burst_misses += usize::from(!r.deadline_met);
            t.tight_misses += usize::from(p.tight && !r.deadline_met);
        }
        t.burst_requests += BURST;
        t.burst_p99_ms
            .push(metrics::tail_percentile(&sojourn_ms, 0.99)?);
    }
    t.refused = server.shutdown().rejected();
    Ok(t)
}

pub fn run(args: &RunArgs) -> Result<(Report, BTreeMap<&'static str, f64>), String> {
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let mut m = BTreeMap::new();
    let (s, setup_times) = common::repeat_setup(args, &mut tracer, |t| setup(args.seed, t));

    // The reference every served prediction is checked against: a
    // standalone serve of each pool input.
    let inputs: Vec<(Task, InferenceRequest)> = s
        .pools
        .iter()
        .enumerate()
        .flat_map(|(lane, pool)| {
            pool.iter().map(move |(tokens, _)| {
                let req =
                    InferenceRequest::new(tokens.clone()).with_mode(InferenceMode::ConventionalEe);
                (TASKS[lane], req)
            })
        })
        .collect();
    let refs: Vec<_> = inputs.iter().map(|(t, r)| (*t, r)).collect();
    let (reference, _) = common::serve_one_by_one(&s.runtime, &refs, &mut tracer);

    let (t, untraced) = if args.trace {
        let untraced = measure(
            &s,
            &reference,
            args,
            0.5,
            &mut Tracer::new(false),
            &mut report,
        )?;
        (
            measure(&s, &reference, args, 0.5, &mut tracer, &mut report)?,
            Some(untraced),
        )
    } else {
        (
            measure(&s, &reference, args, 1.0, &mut tracer, &mut report)?,
            None,
        )
    };

    let n = t.served + t.lost;
    report.attempted = n as u64;
    report.failed = t.lost as u64;
    report.check(t.lost == 0, || {
        format!("{} submissions got no response", t.lost)
    });

    if let Some(untraced) = untraced {
        let untraced_rate = metrics::median(&untraced.burst_rates);
        m.insert(
            "trace.overhead_frac",
            1.0 - metrics::median(&t.burst_rates) / untraced_rate,
        );
        let sum = tracer.summary();
        m.insert(
            "pipeline.build_s",
            sum["pipeline.build"].total_ns as f64 / 1e9,
        );
        m.insert("server.submit_us", sum["server.submit"].mean_us());
        m.insert(
            "server.queue_delay_ms.p50",
            metrics::tail_percentile(&t.queue_ms, 0.5)?,
        );
        m.insert(
            "server.queue_delay_ms.p99",
            metrics::tail_percentile(&t.queue_ms, 0.99)?,
        );
        m.insert("server.refused", t.refused as f64);
        m.insert(
            "load.closed_loop_p99_ms",
            metrics::tail_percentile(&t.closed_ms, 0.99)?,
        );
        m.insert("model.layers_per_req", t.mean(t.exit_layers));
        m.insert("backend.modeled_ms_per_req", t.mean(t.modeled_ms));
        m.insert("backend.voltage_mean", t.mean(t.voltage));
        let sample: Vec<_> = (0..probe::PROBE_REQUESTS as u64)
            .map(|i| {
                let p = pick(args.seed, i);
                (TASKS[p.lane], request(&s, &p, RELAXED_TARGET_S))
            })
            .collect();
        probe::probe_layers(&s.runtime, &sample, &mut tracer, &mut m, &mut report);
        crate::write_trace(&tracer, "host-saturate", args.seed)?;
    } else {
        m.insert("setup_s", metrics::median(&setup_times));
        m.insert("accuracy", t.hits as f64 / n as f64);
        m.insert("served_frac", t.served as f64 / n as f64);
        m.insert("req_per_s", metrics::median(&t.burst_rates));
        m.insert("p50_ms", metrics::tail_percentile(&t.closed_ms, 0.5)?);
        m.insert("p99_ms", metrics::median(&t.burst_p99_ms));
        m.insert(
            "miss_frac",
            metrics::miss_frac(t.burst_misses, t.burst_lost, t.burst_requests),
        );
        m.insert(
            "tight_miss_frac",
            metrics::miss_frac(t.tight_misses, t.tight_lost, t.tight),
        );
        m.insert("energy_uj_per_req", t.mean(t.energy_uj));
    }
    Ok((report, m))
}
