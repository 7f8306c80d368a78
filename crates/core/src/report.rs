//! The full report: every table and figure of the reproduction, rendered
//! as text from the living code (the EXPERIMENTS.md source of truth).
//!
//! ```text
//! cargo run --release -- report            # full effort (~minutes)
//! cargo run --release -- report --quick    # fast pass
//! ```

use crate::experiments::{ablations, figures, table2, table3, table4};
use crate::{risk, surveys};
use platoon_sim::harness::cli;

/// Generates the full textual report (all tables + figures).
pub fn full_report(quick: bool) -> String {
    let mut out = String::new();
    out.push_str(&surveys::render_table1().render());
    out.push('\n');
    out.push_str(&surveys::render_coverage_matrix().render());
    out.push('\n');
    out.push_str(&table2::render(&table2::run(quick)).render());
    out.push('\n');
    out.push_str(&table3::render(&table3::run(quick)).render());
    out.push('\n');
    out.push_str(&table4::render(&table4::run(quick)).render());
    out.push('\n');
    out.push_str(&risk::render_risk_table().render());
    out.push('\n');
    for fig in figures::all_figures(quick) {
        out.push_str(&fig.render());
        out.push('\n');
    }
    for table in ablations::all_ablations(quick) {
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Entry point for the `report` subcommand: prints [`full_report`] to
/// stdout. Returns the process exit code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut quick = false;
    let usage = "usage: report [--quick]\n\
                 \x20 --quick      shorter runs and fewer sweep points";
    let parsed = cli::parse_flags(args, usage, |flag| {
        match flag.name() {
            "--quick" => quick = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }
    let effort = if quick { "quick" } else { "full" };
    eprintln!("regenerating all tables and figures ({effort} effort)...");
    print!("{}", full_report(quick));
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_all_sections() {
        // The taxonomy/risk parts render instantly; the sim-backed parts are
        // exercised by the per-experiment tests.
        let t1 = crate::surveys::render_table1().render();
        let risk = crate::risk::render_risk_table().render();
        assert!(t1.contains("Table I"));
        assert!(risk.contains("Risk assessment"));
    }
}
