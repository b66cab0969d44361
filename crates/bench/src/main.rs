//! `phoenix-bench <scenario> [--quick]` / `phoenix-bench list`.

use std::process::ExitCode;

use phoenix_bench::{Report, SCENARIOS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (name, quick) = match args[..] {
        ["list"] => {
            for s in SCENARIOS {
                println!("{:<20}  {}", s.name, s.blurb);
            }
            return ExitCode::SUCCESS;
        }
        [name] => (name, false),
        [name, "--quick"] => (name, true),
        _ => return usage(),
    };
    let Some(scenario) = SCENARIOS.iter().find(|s| s.name == name) else {
        return usage();
    };
    let mut report = Report::new(scenario.name, quick);
    (scenario.run)(&mut report);
    report.finish()
}

fn usage() -> ExitCode {
    eprintln!("usage: phoenix-bench <scenario> [--quick]");
    eprintln!("       phoenix-bench list");
    ExitCode::from(2)
}
