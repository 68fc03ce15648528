//! `harp-perfbench gen --workload W --seed N --dir D` writes a workload's
//! inputs; `harp-perfbench run --workload W --seed N --seconds S --trace
//! 0|1 --dir D [--trace-out FILE]` measures it and prints the result line
//! last. `perfbench/run.py` builds this binary and runs both steps. `run`
//! starts each training, scoring and set-up pass as `harp-perfbench pass
//! --pass train|predict|setup ...` in a fresh process, then serves the
//! trained model itself.

use harp_perfbench::pipeline;
use harp_perfbench::report::{result_line, Metrics, Outcomes};
use harp_perfbench::workloads::{self, Files, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    trace_out: Option<PathBuf>,
    pass: Option<String>,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().ok_or("usage: harp-perfbench gen|run --workload W ...")?;
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = get("--workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed").ok_or("--seed is required")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    let seconds = get("--seconds").unwrap_or("10");
    let seconds: f64 = seconds.parse().map_err(|_| format!("bad --seconds {seconds:?}"))?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let dir = PathBuf::from(get("--dir").ok_or("--dir is required")?);
    let trace_out = get("--trace-out").map(PathBuf::from);
    let pass = get("--pass").map(str::to_string);
    Ok(Args { command, workload, seed, seconds, trace, dir, trace_out, pass })
}

fn measure(a: &Args) -> (Metrics, Outcomes) {
    let files = Files::new(&a.workload, &a.dir);
    let threads = workloads::nproc();
    println!(
        "workload {} seed {} ({} s, trace {}, {threads} threads)",
        a.workload.name, a.seed, a.seconds, a.trace as u8
    );
    if !a.trace {
        let (m, o) = pipeline::run(&a.workload, &files, a.seed, a.seconds);
        println!("end-to-end metrics:\n{}", m.table());
        return (m, o);
    }
    let (m, o, table, rec) = pipeline::run_traced(&a.workload, &files, a.seed, a.seconds, threads);
    println!("{table}");
    println!("per-layer metrics:\n{}", m.table());
    if let Some(path) = &a.trace_out {
        match std::fs::write(path, rec.to_chrome_trace()) {
            Ok(()) => println!("trace: {} spans written to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("failed to write trace {}: {e}", path.display()),
        }
    }
    (m, o)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "gen" => match workloads::generate(&args.workload, args.seed, &args.dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gen failed: {e}");
                ExitCode::from(1)
            }
        },
        "pass" => {
            let files = Files::new(&args.workload, &args.dir);
            let pass = args.pass.as_deref().unwrap_or("");
            match pipeline::run_pass(pass, &args.workload, &files, workloads::nproc()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{pass} pass failed: {e}");
                    ExitCode::from(1)
                }
            }
        }
        "run" => {
            let (metrics, outcomes) = measure(&args);
            println!(
                "attempted {} failed {} error_share {:.6}",
                outcomes.attempted,
                outcomes.failed,
                outcomes.error_share()
            );
            println!("{}", result_line(&outcomes, &metrics));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?} (gen|run|pass)");
            ExitCode::from(2)
        }
    }
}
