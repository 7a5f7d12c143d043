//! Command line of the benchmark; see the library docs for the output.
//!
//! ```text
//! perfbench --workload <sim_sweep|reorder_host|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--write-golden]
//! ```
//!
//! `--write-golden` records the sim_sweep golden for the given seed
//! instead of checking against it (see `RATIONALE.md`).

use std::process::ExitCode;

use perfbench::{render, run, Params, Workload, DEFAULT_SEED};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <sim_sweep|reorder_host|serve_mix> --seed <n> \
         --seconds <s> --trace <0|1> [--write-golden]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut p = Params::new(Workload::SimSweep, DEFAULT_SEED, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let ok = if flag == "--write-golden" {
            p.write_golden = true;
            true
        } else {
            let Some(value) = args.next() else {
                return usage();
            };
            match flag.as_str() {
                "--workload" => Workload::parse(&value)
                    .map(|w| workload = Some(w))
                    .is_some(),
                "--seed" => value.parse().map(|s| p.seed = s).is_ok(),
                "--seconds" => value
                    .parse::<f64>()
                    .map(|s| p.seconds = s)
                    .is_ok_and(|()| p.seconds >= 0.0),
                "--trace" => match value.as_str() {
                    "0" | "1" => {
                        p.trace = value == "1";
                        true
                    }
                    _ => false,
                },
                _ => false,
            }
        };
        if !ok {
            eprintln!("perfbench: bad argument `{flag}`");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    p.workload = workload;
    // Failed checks are reported in the result line, not the exit code.
    print!("{}", render(&p, &run(&p)));
    ExitCode::SUCCESS
}
