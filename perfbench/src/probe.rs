//! The traced run's layer probe: drives a sample of the workload's
//! requests through the session, model and backend APIs directly, with
//! a span around each call, so per-layer costs are measured where the
//! work happens rather than inferred from the serving totals.

use crate::metrics::Report;
use crate::trace::{SpanId, Tracer};
use edgebert::engine::InferenceRequest;
use edgebert::serving::MultiTaskRuntime;
use edgebert::StepOutcome;
use edgebert_tasks::Task;
use std::collections::BTreeMap;

/// Requests the probe drives: the first ones of the workload's input.
pub const PROBE_REQUESTS: usize = 256;

/// Probes `requests` and fills the `model.*`, `session.*`,
/// `engine.early_exit_frac` and `backend.decide_us` metrics. The
/// session, the model stepped by hand, and a
/// park → checkpoint → restore → resume session must predict alike;
/// a disagreement is a failed check in `report`.
pub fn probe_layers(
    runtime: &MultiTaskRuntime,
    requests: &[(Task, InferenceRequest)],
    tracer: &mut Tracer,
    out: &mut BTreeMap<&'static str, f64>,
    report: &mut Report,
) {
    assert!(!requests.is_empty(), "layer probe got no requests");
    let mut exited = 0usize;
    let mut macs = 0.0;
    let mut bytes = 0.0;
    for (i, (task, request)) in requests.iter().enumerate() {
        let id = Some(i as u64);
        let engine = runtime.runtime(*task).expect("served task").engine();
        let root = tracer.begin("probe.request", SpanId::NONE, id);

        let mut session = tracer.time("session.begin", root, id, || engine.begin(request));
        let mut layers = 0usize;
        loop {
            let outcome = tracer.time("session.step", root, id, || session.step());
            layers += 1;
            if outcome != StepOutcome::Continue {
                exited += usize::from(outcome == StepOutcome::Exited);
                break;
            }
        }
        let response = tracer.time("session.finish", root, id, || session.finish());

        // The same input through the model alone, layer by layer.
        let model = engine.model();
        let mut fwd = tracer.time("model.embed", root, id, || {
            model.begin_forward(&request.tokens)
        });
        for _ in 0..layers {
            tracer.time("model.layer", root, id, || {
                model.forward_next_layer(&mut fwd)
            });
        }
        let by_hand = edgebert_tensor::stats::argmax(fwd.logits_at(layers));

        // Checkpoint migration: park after the first layer, serialize,
        // restore onto the engine and finish.
        let mut parked = engine.begin(request);
        let migrated = if parked.step() == StepOutcome::Continue && parked.park() {
            let checkpoint = tracer.time("session.checkpoint", root, id, || parked.checkpoint());
            checkpoint.map(|checkpoint| {
                let mut restored = engine.restore_session(checkpoint);
                restored.resume(0.0);
                restored.finish()
            })
        } else {
            None
        };

        let backend = engine.backend();
        let cycles = engine.layer_cycles() * engine.model().num_layers() as u64;
        let target = request
            .latency_target_s
            .unwrap_or(engine.default_latency_target_s());
        tracer.time("backend.decide", root, id, || {
            backend.decide(cycles, target, 0.0)
        });
        tracer.end(root);

        let predicted = response.result.prediction;
        report.check(by_hand == predicted, || {
            format!(
                "probe request {i}: model stepped by hand predicts {by_hand}, session {predicted}"
            )
        });
        report.check(
            migrated.as_ref().is_none_or(|m| m.result.prediction == predicted),
            || format!("probe request {i}: a restored session predicts otherwise than an uninterrupted one"),
        );
        let (m, b) = layer_shape_cost(&engine.model().config);
        macs += m;
        bytes += b;
    }
    let n = requests.len();
    let s = tracer.summary();
    let mean = |name: &str| s.get(name).map_or(0.0, |t| t.mean_us());
    let total_us = |name: &str| s.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let steps = s.get("session.step").map_or(0, |t| t.count).max(1) as f64;
    let macs_per_layer = macs / n as f64;
    out.insert("model.embed_us", mean("model.embed"));
    out.insert("model.layer_us", mean("model.layer"));
    out.insert("model.macs_per_layer", macs_per_layer);
    out.insert("model.bytes_per_layer", bytes / n as f64);
    out.insert(
        "model.gmac_per_s",
        macs_per_layer / mean("model.layer") / 1e3,
    );
    out.insert("session.begin_us", mean("session.begin"));
    out.insert("session.step_us", mean("session.step"));
    out.insert(
        "session.step_self_us",
        (total_us("session.step") - total_us("model.layer")) / steps,
    );
    out.insert("session.finish_us", mean("session.finish"));
    out.insert("session.checkpoint_us", mean("session.checkpoint"));
    out.insert("engine.early_exit_frac", exited as f64 / n as f64);
    out.insert("backend.decide_us", mean("backend.decide"));
}

/// Multiply-accumulates and bytes of one encoder layer plus its
/// off-ramp, computed from the tensor shapes: the QKV, output and FFN
/// projections, the attention score and context products, and the
/// classifier; bytes count f32 weights read once and the hidden state
/// read and written once.
fn layer_shape_cost(cfg: &edgebert_model::AlbertConfig) -> (f64, f64) {
    let (s, h, i, c) = (
        cfg.max_seq_len as f64,
        cfg.hidden_size as f64,
        cfg.intermediate_size as f64,
        cfg.num_classes as f64,
    );
    let encoder_macs = cfg.encoder_flops() as f64 / 2.0 / cfg.num_layers as f64;
    let macs = encoder_macs + h * c;
    let weights = 4.0 * h * h + 2.0 * h * i + h * c;
    let bytes = 4.0 * (weights + 2.0 * s * h);
    (macs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_cost_follows_the_shapes() {
        let cfg = edgebert_model::AlbertConfig::tiny(100, 2);
        let (s, h, i) = (16.0, 16.0, 32.0);
        let (macs, bytes) = layer_shape_cost(&cfg);
        assert_eq!(
            macs,
            4.0 * s * h * h + 2.0 * s * s * h + 2.0 * s * h * i + h * 2.0
        );
        assert_eq!(
            bytes,
            4.0 * (4.0 * h * h + 2.0 * h * i + h * 2.0 + 2.0 * s * h)
        );
    }
}
