//! perfbench: the end-to-end and per-layer benchmark of the colper
//! workspace. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <attack_4096|colperd_mix|stream_world> --seed N --seconds N --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the gated end-to-end metrics
//! with `--trace 0`, every per-layer metric with `--trace 1`. A report
//! with the run header is also written to `.bench_out/`, and traced runs
//! write their spans there as JSONL.

mod attack;
mod checks;
mod mix;
mod report;
mod stats;
mod stream;
mod trace;

use colper_repro::runtime::Runtime;
use report::{metric_line, metrics_json, Metric, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["attack_4096", "colperd_mix", "stream_world"];

/// Variables that switch the program onto another execution path.
const GUARDED_ENV: [&str; 5] =
    ["COLPER_SIMD", "COLPER_GEMM", "COLPER_SCHEDULE", "COLPER_TRACE", "COLPER_THREADS"];

/// Where reports, spans and the sharded world go, relative to the
/// checkout.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects an integer, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
        }
        let seconds = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be positive".to_string());
        }
        let trace = match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace expects 0 or 1, got {t}")),
        };
        Ok(Options { workload, seed: seed.unwrap_or(1), seconds, trace })
    }

    pub fn seconds_f64(&self) -> f64 {
        self.seconds as f64
    }
}

fn guard_env() -> Result<(), String> {
    match GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => {
            Err(format!("{v} is set; unset it, since it switches the program onto another path"))
        }
        None => Ok(()),
    }
}

fn threads_json(workload: &str) -> String {
    match workload {
        "attack_4096" => format!("{{\"runtime\":{}}}", attack::THREADS),
        "colperd_mix" => {
            let d = colper_repro::serve::ServeConfig::default();
            format!(
                "{{\"server_workers\":{},\"server_threads\":{},\"client_connections\":2}}",
                d.workers, d.threads
            )
        }
        _ => format!("{{\"runtime\":{}}}", stream::THREADS),
    }
}

/// Runs the workload; a traced run then adds every per-layer metric,
/// reusing the workload's own set-up and traced results where it has
/// them and probing the other workloads' layers otherwise.
fn run_workload(opts: &Options, tracer: &mut Tracer, dir: &Path) -> Result<Outcome, String> {
    let world_dir = dir.join(format!("world-{}", std::process::id()));
    let (mut out, victims, stream_state) = match opts.workload.as_str() {
        "attack_4096" => {
            let (out, victims) = attack::run(opts, tracer)?;
            (out, Some(victims), None)
        }
        "colperd_mix" => (mix::run(opts, tracer)?, None, None),
        _ => {
            let (out, state, first) = stream::run(opts, tracer, &world_dir)?;
            (out, None, Some((state, first)))
        }
    };
    if !opts.trace {
        return Ok(out);
    }
    let victims = victims.unwrap_or_else(|| attack::Victims::train(&Runtime::new(attack::THREADS)));
    attack_layers(&mut out, &victims, opts.seed);
    drop(victims);
    let (state, first) = match stream_state {
        Some(s) => s,
        None => (stream::set_up(&world_dir, &Runtime::new(stream::THREADS))?, None),
    };
    out.layers.extend(stream::layer_probe(&state, opts.seed, first, &world_dir)?);
    drop(state);
    if opts.workload != "colperd_mix" {
        out.layers.extend(mix::layer_probe(opts.seed)?);
    }
    Ok(out)
}

/// Adds the attack-side layer metrics and sets each victim's decomposed
/// pieces against its measured `attack_s`, when the run measured one.
fn attack_layers(out: &mut Outcome, victims: &attack::Victims, seed: u64) {
    let (metrics, decomposition) = attack::layer_probe(victims, seed);
    out.layers.extend(metrics);
    for ((sum_ms, line), name) in decomposition.into_iter().zip(attack::VICTIMS) {
        let measured = out.workload.iter().find(|m| m.name == format!("attack_s.{name}"));
        match measured {
            Some(m) if m.value.is_finite() => out.notes.push(format!(
                "{line} vs measured attack_s.{name} {:.1} ms: {:+.1}%",
                m.value * 1e3,
                100.0 * (sum_ms / (m.value * 1e3) - 1.0)
            )),
            _ => out.notes.push(line),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    let opts = Options::parse(args)?;
    guard_env()?;
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let header = report::header(
        &opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        &threads_json(&opts.workload),
    );
    println!("# perfbench header {header}");

    let mut tracer = Tracer::new(opts.trace);
    let out = run_workload(&opts, &mut tracer, &dir)?;

    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.workload {
        println!("{}", metric_line("e2e", m));
    }
    if opts.trace {
        for (name, (self_ns, count)) in tracer.self_times() {
            println!("# span {name:<24} self {:>12.3} ms over {count} spans", self_ns as f64 / 1e6);
        }
        for m in &out.layers {
            println!("{}", metric_line("layer", m));
        }
    }
    println!("# wall {:.2}s", started.elapsed().as_secs_f64());

    let stem = format!("{}-seed{}-trace{}", opts.workload, opts.seed, u8::from(opts.trace));
    let full = format!(
        "{{\"header\": {header}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"gated\": {}, \
         \"per_layer\": {}, \"notes\": [{}]}}\n",
        out.attempted,
        out.failed,
        metrics_json(&out.workload, true),
        metrics_json(&out.gated, true),
        metrics_json(&out.layers, true),
        out.notes.iter().map(|n| format!("\"{}\"", colper_repro::serve::json::escape(n))).collect::<Vec<_>>().join(", "),
    );
    let _ = std::fs::write(dir.join(format!("{stem}.json")), full);
    if opts.trace {
        let _ = std::fs::write(dir.join(format!("{stem}.spans.jsonl")), tracer.to_jsonl());
    }

    let metrics: &[Metric] = if opts.trace { &out.layers } else { &out.gated };
    let correct = out.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(metrics, false)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve") {
        return mix::serve_forever();
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = Options::parse(&args("--workload stream_world --seed 7 --seconds 12 --trace 1"))
            .unwrap();
        assert_eq!(
            o,
            Options { workload: "stream_world".into(), seed: 7, seconds: 12, trace: true }
        );
        assert!(Options::parse(&args("--workload nope --seed 1")).is_err());
        assert!(Options::parse(&args("--workload attack_4096 --trace 2")).is_err());
        assert!(Options::parse(&args("--workload attack_4096 --seed")).is_err());
        assert!(Options::parse(&args("--seed 1")).is_err());
    }
}
