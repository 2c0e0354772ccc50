//! Benchmark for the EdgeBERT serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-diurnal|host-saturate|hil-flash|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run builds its own inputs from the seed, measures for the given
//! seconds, checks the program's outputs and prints one JSON line per
//! workload: `{"correct", "attempted", "failed", "metrics"}`. The untraced run
//! (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer ones, measures the workload
//! untraced and traced to give the tracing overhead, and writes its
//! spans to `target/perfbench-traces/<workload>-seed<n>.jsonl`. The
//! exit code is non-zero when a correctness check fails.

mod common;
mod hil_flash;
mod host_saturate;
mod metrics;
mod probe;
mod sim_diurnal;
mod trace;

use common::RunArgs;
use metrics::Report;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <sim-diurnal|host-saturate|hil-flash|all> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// End-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("accuracy", "ratio"),
    ("served_frac", "ratio"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("miss_frac", "ratio"),
    ("tight_miss_frac", "ratio"),
    ("energy_uj_per_req", "uJ"),
];

/// Per-layer metrics every traced run reports, with units. A layer the
/// workload does not call reports zero.
const PER_LAYER: [(&str, &str); 41] = [
    ("pipeline.build_s", "s"),
    ("model.embed_us", "us"),
    ("model.layer_us", "us"),
    ("model.layers_per_req", "count"),
    ("model.macs_per_layer", "count"),
    ("model.bytes_per_layer", "B"),
    ("model.gmac_per_s", "GMAC/s"),
    ("session.begin_us", "us"),
    ("session.step_us", "us"),
    ("session.step_self_us", "us"),
    ("session.finish_us", "us"),
    ("session.checkpoint_us", "us"),
    ("engine.early_exit_frac", "ratio"),
    ("backend.decide_us", "us"),
    ("backend.modeled_ms_per_req", "ms"),
    ("backend.voltage_mean", "V"),
    ("scheduler.submit_us", "us"),
    ("scheduler.drain_s", "s"),
    ("scheduler.self_s", "s"),
    ("scheduler.queue_delay_ms.p50", "ms"),
    ("scheduler.queue_delay_ms.p99", "ms"),
    ("scheduler.degraded_frac", "ratio"),
    ("server.submit_us", "us"),
    ("server.queue_delay_ms.p50", "ms"),
    ("server.queue_delay_ms.p99", "ms"),
    ("server.refused", "count"),
    ("server.preempted", "count"),
    ("server.resumed", "count"),
    ("server.stolen", "count"),
    ("server.pool_resizes", "count"),
    ("overload.degraded_frac", "ratio"),
    ("overload.shed_frac", "ratio"),
    ("overload.ladder_steps", "count"),
    ("energy.attach_declined", "count"),
    ("energy.envelope_w_mean", "W"),
    ("telemetry.events", "count"),
    ("telemetry.drops", "count"),
    ("telemetry.snapshot_ms", "ms"),
    ("load.late_p99_ms", "ms"),
    ("load.closed_loop_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

type Workload = fn(&RunArgs) -> Result<(Report, BTreeMap<&'static str, f64>), String>;

/// A workload with the name `--workload` selects it by.
type Named = (&'static str, Workload);

const WORKLOADS: [Named; 3] = [
    ("sim-diurnal", sim_diurnal::run),
    ("host-saturate", host_saturate::run),
    ("hil-flash", hil_flash::run),
];

/// The workloads to run, in order (`all` runs every one), and the run
/// arguments.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(Vec<Named>, RunArgs), String> {
    let mut selected = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let chosen: Vec<_> = WORKLOADS
                    .into_iter()
                    .filter(|(name, _)| value == "all" || *name == value)
                    .collect();
                if chosen.is_empty() {
                    return Err(bad("unknown workload"));
                }
                selected = Some(chosen);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((selected.ok_or("--workload is required")?, args))
}

/// Writes a traced run's spans under `target/perfbench-traces/` and
/// prints each span name's count, total and self time.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        "target/perfbench-traces/{workload}-seed{seed}.jsonl"
    ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    eprintln!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in tracer.summary() {
        eprintln!(
            "{name:<28} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(())
}

fn run(workload: Workload, args: &RunArgs) -> Result<Report, String> {
    let (mut report, mut values) = workload(args)?;
    let table: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        values.insert("rss_peak_mb", common::rss_peak_mb()?);
        &END_TO_END
    };
    for &(name, unit) in table {
        let value = match values.remove(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        report.push(name, value, unit);
    }
    if let Some(extra) = values.keys().next() {
        return Err(format!("workload measured unlisted metric {extra}"));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let (workloads, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for (name, workload) in workloads {
        eprintln!("perfbench: running {name}");
        let report = match run(workload, &args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                code = ExitCode::FAILURE;
                continue;
            }
        };
        for failure in &report.check_failures {
            eprintln!("perfbench: {name}: correctness check failed: {failure}");
        }
        match report.to_json() {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                code = ExitCode::FAILURE;
                continue;
            }
        }
        if !report.correct() {
            code = ExitCode::FAILURE;
        }
    }
    code
}
