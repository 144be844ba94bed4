//! Runs experiments from EXPERIMENTS.md at their default sizes: prints each
//! table as markdown and writes it to `results/<id>.json`.
//!
//! `wcc_exp <E-id|name>…` runs the named tables in the order given,
//! `wcc_exp all` the whole registry, `wcc_exp --list` prints the ids.

use std::process::ExitCode;

use wcc_bench::{Experiment, EXPERIMENTS};

fn usage() -> String {
    let mut out = String::from("usage: wcc_exp <E-id|name>... | all | --list\n\nexperiments:\n");
    for e in &EXPERIMENTS {
        out.push_str(&format!("  {:<4} {}\n", e.id, e.name));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for e in &EXPERIMENTS {
            println!("{}", e.id);
        }
        return ExitCode::SUCCESS;
    }
    // Resolve every argument before running anything: a typo in the last
    // name must not cost the minutes the first tables take.
    let mut selected: Vec<&Experiment> = Vec::new();
    for arg in &args {
        if arg == "all" {
            selected.extend(&EXPERIMENTS);
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.id == arg || e.name == arg) {
            selected.push(e);
        } else {
            eprint!("unknown experiment {arg:?}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    if selected.is_empty() {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    let mut write_failed = false;
    for e in selected {
        let table = (e.run)();
        match table.write_json() {
            Ok(path) => eprintln!("[{}] wrote {path}", table.id),
            Err(err) => {
                eprintln!("[{}] could not write results: {err}", table.id);
                write_failed = true;
            }
        }
        println!("{}", table.to_markdown());
    }
    if write_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
