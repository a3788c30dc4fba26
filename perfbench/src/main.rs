//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics traced. The line
//! before it is a diagnostics object (host fingerprint, host-speed probe,
//! exact counts, checks). Exits 1 when a correctness check fails and 2 on
//! bad arguments or a forbidden environment.

use std::process::ExitCode;

use perfbench::host;
use perfbench::report::LAYER_METRICS;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(0),
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let forbidden = host::forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: they change what the program executes",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let probe_before = host::probe_ms();
    let Some(mut outcome) = perfbench::run_workload(&args.workload, args.seed, args.trace) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            perfbench::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let probe_after = host::probe_ms();
    outcome.e2e.peak_rss_mb = host::peak_rss_mb();

    let exact: Vec<String> = outcome
        .exact
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(what, ok)| format!("{}:{ok}", json_str(what)))
        .collect();
    let exact_layers: Vec<String> = LAYER_METRICS
        .iter()
        .filter(|m| m.2)
        .map(|m| json_str(m.0))
        .collect();
    println!(
        "{{\"diagnostics\":{{\"workload\":{},\"seed\":{},\"seconds_requested\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\"sha_backend\":{},\"commit\":{},\"inert_env\":{},\"host_probe_ms_before\":{probe_before},\"host_probe_ms_after\":{probe_after},\"final_root\":{},\"exact\":{{{}}},\"exact_layer_metrics\":[{}],\"checks\":{{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(fi_crypto::sha256::active_backend().name()),
        json_str(&host::commit()),
        json_str(&host::inert_env().join(" ")),
        json_str(&outcome.final_root.map(|r| r.to_string()).unwrap_or_default()),
        exact.join(","),
        exact_layers.join(","),
        checks.join(","),
    );

    let metrics: Vec<String> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| {
                let value = if name == "host.probe_ms" {
                    (probe_before + probe_after) / 2.0
                } else {
                    outcome.layer(name)
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect()
    } else {
        outcome
            .e2e
            .rows()
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect()
    };
    let correct = outcome.correct();
    for (what, ok) in &outcome.checks {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
