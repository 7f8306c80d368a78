//! The `campaign` subcommand of the root binary.

use crate::search::{self, CampaignConfig, Evaluator};
use platoon_core::experiments::common::EXPERIMENT_BASE_SEED;
use platoon_sim::harness::cli;
use platoon_sim::harness::golden::Tolerance;
use std::path::PathBuf;

/// Entry point for the `campaign` subcommand. Returns the process exit
/// code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut quick = false;
    let mut seed = EXPERIMENT_BASE_SEED;
    let mut workers = platoon_sim::harness::default_workers();
    let mut out_dir = PathBuf::from(".");
    let mut check_golden: Option<PathBuf> = None;
    let mut server: Option<String> = None;
    let mut attacks: Option<Vec<String>> = None;
    let usage = format!(
        "usage: campaign [--quick] [--seed N] [--workers N] [--out DIR]\n\
         \x20               [--check-golden PATH] [--server ADDR] [--attacks a,b]\n\
         \x20 --quick          small search over three attacks (the CI smoke grid)\n\
         \x20 --seed N         campaign seed (default: {EXPERIMENT_BASE_SEED}); same seed,\n\
         \x20                  byte-identical CAMPAIGN_<label>.json\n\
         \x20 --workers N      in-process worker threads (default: available parallelism)\n\
         \x20 --out DIR        where CAMPAIGN_<label>.json is written (default: .)\n\
         \x20 --check-golden P snapshot-match the document against P\n\
         \x20 --server ADDR    evaluate cells on a running platoon-server (its\n\
         \x20                  content-addressed cache dedupes repeated cells)\n\
         \x20 --attacks LIST   comma-separated attack names to search instead of\n\
         \x20                  the effort default"
    );
    let parsed = cli::parse_flags(args, &usage, |flag| {
        match flag.name() {
            "--quick" => quick = true,
            "--seed" => seed = flag.parse()?,
            "--workers" => workers = flag.parse()?,
            "--out" => out_dir = flag.value()?.into(),
            "--check-golden" => check_golden = Some(flag.value()?.into()),
            "--server" => server = Some(flag.value()?),
            "--attacks" => {
                attacks = Some(
                    flag.value()?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }

    let mut config = CampaignConfig::new(quick, seed);
    if let Some(list) = attacks {
        for a in &list {
            if platoon_attacks::params::param_space(a).is_none() {
                eprintln!("error: no parameter space for attack {a:?}");
                return 2;
            }
        }
        config.attacks = list;
    }

    let label = if quick { "quick" } else { "full" };
    let mut evaluator = match &server {
        Some(addr) => match Evaluator::connect(addr) {
            Ok(e) => {
                eprintln!("evaluating on platoon-server at {addr}");
                e
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        },
        None => Evaluator::local(workers),
    };
    eprintln!(
        "running {label} campaign (seed {seed}, {} attack(s))...",
        config.attacks.len()
    );
    let report = match search::run_campaign(&config, &mut evaluator) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!("{}", search::render(&report).render());
    eprintln!("{} unique cells evaluated", report.total_cells);

    let document = search::to_canonical_json(&report);
    match cli::write_document(&out_dir, &format!("CAMPAIGN_{label}.json"), &document) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: writing report: {e}");
            return 1;
        }
    }

    if let Some(path) = check_golden {
        if !cli::check_golden(&path, &document, Tolerance::snapshot(), "campaign") {
            return 1;
        }
    }
    0
}
