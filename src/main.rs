//! The workspace's one binary: every command of the reproduction.
//!
//! ```text
//! cargo run --release -- report --quick      # every table and figure (fast pass)
//! cargo run --release -- perf --quick        # perf grid → BENCH_quick.json
//! cargo run --release -- robustness --quick  # fault grid → ROBUSTNESS_quick.json
//! cargo run --release -- trace --quick       # traced run → TRACE_quick.jsonl
//! cargo run --release -- trace-diff A B      # first diverging tick/phase
//! cargo run --release -- corridor --quick    # corridor grid → CORRIDOR_quick.json
//! cargo run --release -- regimes --quick     # regime grid → REGIME_quick.json
//! cargo run --release -- serve               # persistent job server w/ result cache
//! cargo run --release -- submit --experiment smoke --quick  # batch via the server
//! cargo run --release -- campaign --quick    # stealth-vs-damage search → CAMPAIGN_quick.json
//! cargo run --release -- dataset --quick     # labeled shards + learned baseline → DATASET_quick.json
//! cargo run --release -- perf --help         # all perf options
//! ```

/// A command's entry point: takes the arguments after the command name and
/// returns the process exit code.
type Entry = fn(&[String]) -> i32;

/// Every command: its name, one-line summary and entry point. The
/// top-level usage is generated from this table.
const COMMANDS: &[(&str, &str, Entry)] = &[
    (
        "report",
        "every table and figure of the reproduction, printed to stdout",
        platoon_core::report::cli_main,
    ),
    (
        "perf",
        "perf grid → BENCH_<label>.json",
        platoon_core::perf::cli_main,
    ),
    (
        "robustness",
        "detection quality under benign faults → ROBUSTNESS_<label>.json",
        platoon_core::experiments::robustness::cli_main,
    ),
    (
        "trace",
        "deterministic per-tick trace of one scenario → TRACE_<label>.json/.jsonl",
        platoon_core::experiments::trace::cli_main,
    ),
    (
        "trace-diff",
        "first diverging tick/phase between two traces",
        platoon_core::experiments::trace::diff_cli_main,
    ),
    (
        "corridor",
        "highway-scale multi-platoon corridor → CORRIDOR_<label>.json + BENCH_corridor_<label>.json",
        platoon_core::experiments::corridor::cli_main,
    ),
    (
        "regimes",
        "detection quality across driving regimes → REGIME_<label>.json",
        platoon_core::experiments::regimes::cli_main,
    ),
    (
        "serve",
        "persistent job server with a content-addressed result cache",
        platoon_server::cli::serve_cli_main,
    ),
    (
        "submit",
        "submit an experiment grid to the server (or --in-process) → SERVICE_*.json",
        platoon_server::cli::submit_cli_main,
    ),
    (
        "campaign",
        "adversarial stealth-vs-damage parameter search → CAMPAIGN_<label>.json",
        platoon_campaign::cli::cli_main,
    ),
    (
        "dataset",
        "labeled train/test shards + the learned detector baseline → DATASET_<label>.json",
        platoon_dataset::cli::cli_main,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            eprintln!(
                "usage: platoon-security <command> [options]   (<command> --help for its options)"
            );
            for (name, summary, _) in COMMANDS {
                eprintln!("  {name:<11} {summary}");
            }
            if args.is_empty() {
                2
            } else {
                0
            }
        }
        Some(command) => match COMMANDS.iter().find(|(name, ..)| *name == command) {
            Some((_, _, entry)) => entry(&args[1..]),
            None => {
                eprintln!("error: unknown command `{command}` (try --help)");
                2
            }
        },
    };
    std::process::exit(code);
}
