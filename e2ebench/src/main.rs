//! End-to-end benchmark: full FKN trials and an open-loop job service,
//! split by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload mc_mid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a headline line (workload-specific metric names such as
//! `trial_ms_p95` or `slo_miss_frac`) and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. A traced run also writes its spans as a Chrome trace to
//! `.bench_work/trace-<workload>-<seed>.json`. Exits non-zero when any
//! check fails.
//!
//! The metric names, units and order come from the committed
//! `BENCHMARK.json`, compiled in. `--calibrate` steps the `svc_open`
//! arrival rate and reports the service's capacity.

mod config;
mod mc;
mod report;
mod spans;
mod stats;
mod svc;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Scratch space for queues and trace files, relative to the working
/// directory (the repository root).
const WORK_DIR: &str = ".bench_work";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: config::DEFAULT_SEED,
        seconds: config::declared().run_seconds,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    let design = config::design()?;
    let work = PathBuf::from(WORK_DIR);
    let mut report = Report::default();
    let expected = |w: &str| {
        (args.seed == config::DEFAULT_SEED)
            .then(|| design.digest(w))
            .flatten()
    };
    match args.workload.as_str() {
        "mc_mid" => mc::run(
            &mc::MC_MID,
            args.seed,
            args.seconds,
            args.trace,
            expected("mc_mid"),
            &mut report,
        )?,
        "mc_giant" => mc::run(
            &mc::MC_GIANT,
            args.seed,
            args.seconds,
            args.trace,
            expected("mc_giant"),
            &mut report,
        )?,
        "svc_open" => svc::run(
            &work,
            args.seed,
            args.seconds,
            args.trace,
            design.svc_rate_per_s,
            design.svc_latency_limit_ms,
            &mut report,
        )?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    report.e2e("peak_rss_mib", stats::proc_status_mib("VmHWM"));
    if args.trace {
        let path = work.join(format!("trace-{}-{}.json", args.workload, args.seed));
        spans::write_trace(&path, &report.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note("trace_file", path.display());
    }
    Ok(report)
}

fn calibrate(args: &Args) -> Result<(), String> {
    let design = config::design()?;
    let limit = design.svc_latency_limit_ms;
    let rates: Vec<f64> = (1..=40).map(|k| 10.0 * f64::from(k)).collect();
    let steps = svc::calibrate(
        &PathBuf::from(WORK_DIR),
        args.seed,
        args.seconds,
        limit,
        &rates,
    )?;
    let capacity = steps
        .iter()
        .filter(|s| svc::step_ok(s, limit))
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    println!(
        "{{\"calibration\":\"svc_open\",\"latency_limit_ms\":{limit},\"capacity_per_s\":{capacity},\"rate_per_s\":{},\"fraction\":{:.3}}}",
        design.svc_rate_per_s,
        design.svc_rate_per_s / capacity.max(1e-9)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        return match calibrate(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.headline(&args.workload));
    match report.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2ebench: {} of {} operations failed their checks",
            report.outcome.failed, report.outcome.attempted
        );
        ExitCode::FAILURE
    }
}
