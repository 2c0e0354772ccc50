//! Set-up, input bookkeeping and correctness checks shared by the
//! workloads.

use crate::metrics::{self, Report};
use crate::trace::{SpanId, Tracer};
use edgebert::engine::{deadline_met, InferenceRequest, InferenceResponse, SentenceResult};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::ServerResponse;
use edgebert_bench::load::{LoadRequest, TraceSpec};
use edgebert_tasks::{Task, TaskGenerator};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Training seed of the artifacts. Fixed, so the workload seed varies
/// only the traffic, never the models under test.
pub const ARTIFACT_SEED: u64 = 42;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What one run is asked to do.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    pub fn duration(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Trains fresh `Scale::Test` artifacts for each task (never the
/// on-disk cache: it is keyed on task, scale and seed, not on code, so
/// a stale hit would hide a change to training numerics) and wraps each
/// in a runtime built by `runtime_of`.
pub fn build_runtime(
    tasks: &[Task],
    tracer: &mut Tracer,
    mut runtime_of: impl FnMut(&TaskArtifacts) -> TaskRuntime,
) -> MultiTaskRuntime {
    let runtimes: Vec<TaskRuntime> = tasks
        .iter()
        .map(|&task| {
            let artifacts = tracer.time("pipeline.build", SpanId::NONE, None, || {
                TaskArtifacts::build(task, Scale::Test, ARTIFACT_SEED)
            });
            runtime_of(&artifacts)
        })
        .collect();
    MultiTaskRuntime::from_runtimes(runtimes)
}

/// Runs `setup` once in a traced run and [`SETUP_REPEATS`] times
/// otherwise, returning the last result and every wall time, seconds.
pub fn repeat_setup<T>(
    args: &RunArgs,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        last = Some(setup(tracer));
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// The task generator's examples for `seed`, the same stream the load
/// generators draw request tokens from.
pub fn examples(
    runtime: &MultiTaskRuntime,
    task: Task,
    n: usize,
    seed: u64,
) -> Vec<(Vec<u32>, usize)> {
    let rt = runtime.runtime(task).expect("served task");
    TaskGenerator::standard(task, rt.model().config.max_seq_len)
        .generate(n, seed)
        .examples()
        .iter()
        .map(|ex| (ex.tokens.clone(), ex.label))
        .collect()
}

/// Gold labels of a generated trace. `generate_trace` draws each task's
/// tokens from the generator stream `spec.seed ^ task` (at most the
/// trace's expected request count per task) and drops the labels;
/// replaying those streams recovers them.
pub fn trace_labels(
    runtime: &MultiTaskRuntime,
    spec: &TraceSpec,
    load: &[LoadRequest],
) -> Result<Vec<usize>, String> {
    let per_task = spec.expected_requests().ceil() as usize;
    let mut labels = HashMap::new();
    let tasks = runtime.tasks().into_iter();
    for task in tasks.filter(|&t| load.iter().any(|r| r.task == t)) {
        for (tokens, label) in examples(runtime, task, per_task, spec.seed ^ task as u64) {
            labels.insert((task, tokens), label);
        }
    }
    load.iter()
        .map(|r| labels.get(&(r.task, r.request.tokens.clone())).copied())
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "a trace request has no generated label".into())
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Serves each request on its own through `TaskRuntime::serve`, the
/// reference the served predictions are checked against. Returns the
/// responses and the wall time the one-by-one serving took, seconds.
pub fn serve_one_by_one(
    runtime: &MultiTaskRuntime,
    requests: &[(Task, &InferenceRequest)],
    tracer: &mut Tracer,
) -> (Vec<InferenceResponse>, f64) {
    let started = Instant::now();
    let span = tracer.begin("runtime.serve_one_by_one", SpanId::NONE, None);
    let out = requests
        .iter()
        .map(|(task, request)| runtime.runtime(*task).expect("served task").serve(request))
        .collect();
    tracer.end(span);
    (out, started.elapsed().as_secs_f64())
}

/// Checks one served, undegraded prediction against the standalone
/// reference.
pub fn check_prediction(
    report: &mut Report,
    index: usize,
    served: &InferenceResponse,
    degraded_notches: u8,
    reference: &InferenceResponse,
) {
    if degraded_notches == 0 {
        report.check(
            served.result.prediction == reference.result.prediction,
            || {
                format!(
                    "request {index}: served prediction {} != standalone serve {}",
                    served.result.prediction, reference.result.prediction
                )
            },
        );
    }
}

/// Recomputes a wall-clock server verdict with `deadline_met`: the
/// server charges the elapsed queueing it deducted from the DVFS
/// budget plus parked time plus modeled compute (queue-aware slack on).
pub fn check_server_verdict(report: &mut Report, index: usize, r: &ServerResponse) {
    let charged = r.slack_deducted_s + r.parked_s + r.response.result.latency_s;
    let expect = deadline_met(charged, r.response.latency_target_s);
    report.check(expect == r.deadline_met, || {
        format!(
            "request {index}: server verdict {} but deadline_met({charged}, {}) = {expect}",
            r.deadline_met, r.response.latency_target_s
        )
    });
}

/// Means over served results for the traced run: layers run, modeled
/// latency and post-decision supply voltage.
pub fn insert_result_means<'a>(
    m: &mut BTreeMap<&'static str, f64>,
    results: impl Iterator<Item = &'a SentenceResult> + Clone,
) {
    let layers = results.clone().map(|r| r.exit_layer as f64);
    m.insert("model.layers_per_req", metrics::mean(layers));
    let modeled_ms = results.clone().map(|r| r.latency_s * 1e3);
    m.insert("backend.modeled_ms_per_req", metrics::mean(modeled_ms));
    m.insert(
        "backend.voltage_mean",
        metrics::mean(results.map(|r| f64::from(r.voltage))),
    );
}

/// A deterministic 64-bit mix of `seed` and `i` (splitmix64), for
/// per-request draws that must not depend on generation order.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` for a `share` of `(seed, i)` pairs.
pub fn draw(seed: u64, i: u64, share: f64) -> bool {
    ((mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64) < share
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_near_their_share() {
        let hits = (0..10_000).filter(|&i| draw(7, i, 0.3)).count();
        assert!((2_800..3_200).contains(&hits), "{hits}");
        assert_eq!(
            (0..100).map(|i| draw(7, i, 0.5)).collect::<Vec<_>>(),
            (0..100).map(|i| draw(7, i, 0.5)).collect::<Vec<_>>()
        );
    }
}
