//! The command-line contract through the real binary: every command the
//! top-level usage lists answers `--help` with exit 0, and usage errors
//! exit 2 with a one-line `error: ...` message.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_platoon-security"))
        .args(args)
        .output()
        .expect("run platoon-security")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The command names the top-level usage lists, in order.
fn listed_commands() -> Vec<String> {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0), "{}", stderr(&help));
    stderr(&help)
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next().map(str::to_string))
        .collect()
}

#[test]
fn every_listed_command_answers_help_with_exit_0() {
    let commands = listed_commands();
    assert_eq!(
        commands,
        [
            "report",
            "perf",
            "robustness",
            "trace",
            "trace-diff",
            "corridor",
            "regimes",
            "serve",
            "submit",
            "campaign",
            "dataset"
        ]
    );
    for command in &commands {
        for flag in ["--help", "-h"] {
            let output = run(&[command, flag]);
            let text = stderr(&output);
            assert_eq!(output.status.code(), Some(0), "{command} {flag}: {text}");
            assert!(
                text.starts_with(&format!("usage: {command}")),
                "{command} {flag}: {text}"
            );
        }
    }
}

#[test]
fn no_arguments_prints_the_usage_and_exits_2() {
    let output = run(&[]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).starts_with("usage: platoon-security"));
}

#[test]
fn usage_errors_exit_2_with_the_message() {
    for (args, message) in [
        (
            &["frobnicate"][..],
            "error: unknown command `frobnicate` (try --help)",
        ),
        (
            &["perf", "--bogus"],
            "error: unknown argument `--bogus` (try --help)",
        ),
        (
            &["report", "--workers", "2"],
            "error: unknown argument `--workers` (try --help)",
        ),
        (&["perf", "--workers"], "error: --workers needs a value"),
        (
            &["corridor", "--threads", "x"],
            "error: --threads: invalid digit found in string",
        ),
        (
            &["serve", "--job-budget-secs", "soon"],
            "error: --job-budget-secs: invalid float literal",
        ),
        (
            &["serve", "--job-budget-secs", "-1"],
            "error: --job-budget-secs: cannot convert float seconds to Duration: value is negative",
        ),
        (
            &["submit", "--experiment", "smoke", "--retry-secs", "inf"],
            "error: --retry-secs: cannot convert float seconds to Duration: value is either too big or NaN",
        ),
        (
            &["submit", "--quick"],
            "error: --experiment is required (try --help)",
        ),
        (
            &["trace-diff", "only-one.jsonl"],
            "error: trace-diff takes exactly two trace files (try --help)",
        ),
    ] {
        let output = run(args);
        let text = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {text}");
        assert_eq!(text.trim_end(), message, "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
