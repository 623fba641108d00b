//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine_uniform|mine_zipf_levelwise|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! seconds, checks every answer against an oracle computed outside the
//! timed window, and prints one JSON object as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Exits 1 on any wrong answer and 2 on a
//! usage error. `README.md` next to this file documents the workloads
//! and every metric.

mod metrics;
mod mining;
mod roof;
mod serve;
mod stats;
mod trace;

use batmap::{EngineOptions, KernelBackend, Parallelism};
use metrics::{Outcome, END_TO_END, PER_LAYER};

/// Worker threads for mining (the reference machine has two cores).
pub const THREADS: usize = 2;
/// Where runs leave snapshots and span files (relative to the
/// repository root, which is the working directory).
pub const OUT_DIR: &str = "perfbench/out";

pub const WORKLOADS: &[&str] = &["mine_uniform", "mine_zipf_levelwise", "serve_mixed"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// SplitMix64: the benchmark's own deterministic generator for request
/// mixes and write plans.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Write the traced run's spans next to the other run outputs.
pub fn write_trace(tr: &trace::Tracer, args: &Args) {
    let path = std::path::Path::new(OUT_DIR)
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| tr.write_jsonl(&path));
    match written {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}

fn main() {
    let args = parse_args();
    // Every engine knob is pinned below; dropping `BATMAP_*` overrides
    // (kernel, threads, repr, load, tuning profile, faultpoints) keeps
    // `Auto` resolution on the hardware, not on the caller's shell.
    for (key, _) in std::env::vars() {
        if key.starts_with("BATMAP_") {
            std::env::remove_var(&key);
        }
    }
    let options = EngineOptions::auto()
        .kernel(KernelBackend::Auto)
        .threads(Parallelism::threads(THREADS));
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | kernel {} | threads {THREADS} | \
         available parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        KernelBackend::Auto.resolve().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let measure_roof = || {
        let roof = roof::measure();
        println!(
            "roof: {:.2} GB/s (1 thread), {:.2} GB/s (2 threads) over {} MiB",
            roof.gbps_1t,
            roof.gbps_2t,
            roof::ROOF_ARRAY_BYTES >> 20
        );
        roof
    };
    // The probe allocates, sweeps and frees 448 MiB. A traced run needs
    // it for `sweep.roof_frac` and takes it first; an untraced run takes
    // it last, so it cannot disturb the set-up or the timed work.
    let roof = args.trace.then(measure_roof);
    let mut out = Outcome::default();
    if let Some(roof) = &roof {
        out.set("roof.read_gbps_1t", roof.gbps_1t);
        out.set("roof.read_gbps_2t", roof.gbps_2t);
    }
    match args.workload.as_str() {
        "mine_uniform" => mining::run(
            mining::Kind::Uniform,
            &args,
            options,
            roof.as_ref(),
            &mut out,
        ),
        "mine_zipf_levelwise" => mining::run(
            mining::Kind::ZipfLevelwise,
            &args,
            options,
            roof.as_ref(),
            &mut out,
        ),
        "serve_mixed" => serve::run(&args, options, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    if roof.is_none() {
        measure_roof();
    }

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = out.missing(list);
    if args.trace {
        // A layer the workload never calls spent no time and did no
        // work: its metrics read 0.
        println!("not on this workload's path (reported as 0): {missing:?}");
    } else {
        out.check(
            missing.is_empty(),
            format!("metrics never measured: {missing:?}"),
        );
    }
    println!(
        "attempted {}, failed {}, error_rate {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", out.json(list));
    if !out.correct() {
        std::process::exit(1);
    }
}
