//! End-to-end and per-layer benchmark of the FT-Hess reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload dense-1024 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), a line
//! with the machine class, and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See `README.md`.

#![forbid(unsafe_code)]

mod drivers;
mod plan;
mod probes;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod workload;

use report::json_str;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == value.as_str())
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(*w);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every `FT_*` knob that is set. The benchmark pins its configuration
/// through the public API, so a knob in the environment would make its
/// figures mean something else.
fn set_knobs() -> Vec<&'static str> {
    ft_trace::env_knob::KNOBS
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| ft_trace::env_knob::raw(name).is_some())
        .collect()
}

/// The CPU's brand string, from `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
        .flat_map(|leaf| {
            let r = __cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
        })
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// The commit the benchmark was built from, when the sources sit in a git
/// checkout; `none` otherwise.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(git.join(r)).map_or_else(|| "none".to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ft-ledger: {e}");
            eprintln!(
                "usage: ft-ledger --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let knobs = set_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "ft-ledger: refusing to run with {} set; unset every FT_* knob",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }

    let w = args.workload;
    let rep = workload::run(&w, args.seed, args.seconds, args.trace);

    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", rep.table());
    for e in &rep.errors {
        println!("check failed: {e}");
    }
    println!(
        "{{\"machine\": {{\"nproc\": {}, \"cpu\": {}, \"simd\": {}, \"git_rev\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"trace\": {}}}",
        ft_blas::backend::available_parallelism(),
        json_str(&cpu_model()),
        json_str(ft_blas::active_simd_path()),
        json_str(&git_rev()),
        json_str(w.name),
        args.seed,
        u8::from(args.trace)
    );
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
