//! Command-line entry point:
//! `snipe-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a readable summary and, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits nonzero
//! when any output check failed.

use snipe_perfbench::{run, Config, Scale, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: snipe-perfbench --workload <resolve|fetch|spray|spawn> --seed <n> \
         --seconds <s> --trace <0|1> [--threads <n>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut threads = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(&val()).unwrap_or_else(|| usage())),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = val() == "1",
            "--threads" => threads = Some(val().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        setups: workload.setups(),
        scale: Scale::Full,
        threads,
    };
    let report = run(&cfg);
    for line in report.summary() {
        println!("{line}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
