//! Regenerates the paper's tables and figures and the serving studies,
//! and checks them.
//!
//! `repro [id…]` runs the named entries of
//! [`lightmamba::experiments::EXPERIMENTS`] (all of them when none is
//! named: the twelve paper results, then the nine `serve-*` studies),
//! prints each outcome, and exits non-zero when a check fails. There are
//! no flags: every experiment runs at one fixed size and seed.

use std::process::ExitCode;

use lightmamba::experiments::{Experiment, Outcome, EXPERIMENTS};

/// The experiments `ids` name, in the order given; all of them for no ids.
fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS.iter().find(|e| e.id == id).ok_or_else(|| {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                format!(
                    "unknown experiment `{id}`\nusage: repro [id…]   (no ids = all)\nids: {}",
                    known.join(" ")
                )
            })
        })
        .collect()
}

/// The process exit status for a run: 0 only when every check passed.
fn exit_status(outcomes: &[Outcome]) -> u8 {
    u8::from(!outcomes.iter().all(Outcome::passed))
}

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&ids) {
        Ok(selected) => selected,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let rule = "=".repeat(74);
    let outcomes: Vec<Outcome> = selected
        .into_iter()
        .map(|e| {
            println!("{rule}\nLightMamba reproduction — {}: {}", e.id, e.title);
            if !e.note.is_empty() {
                println!("note: {}", e.note);
            }
            println!("{rule}");
            let outcome = (e.run)();
            println!("{outcome}");
            outcome
        })
        .collect();
    ExitCode::from(exit_status(&outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba::experiments::Check;

    #[test]
    fn a_failed_check_fails_the_run() {
        let check = |pass| Check {
            claim: "rotation beats RTN".into(),
            pass,
            detail: "163.5 vs 865.7".into(),
        };
        let outcome = |passes: &[bool]| Outcome {
            text: String::new(),
            checks: passes.iter().map(|&p| check(p)).collect(),
        };
        assert_eq!(exit_status(&[]), 0);
        assert_eq!(exit_status(&[outcome(&[]), outcome(&[true, true])]), 0);
        assert_eq!(exit_status(&[outcome(&[true]), outcome(&[true, false])]), 1);
    }

    #[test]
    fn an_unknown_id_is_a_usage_error_listing_the_ids() {
        let picked = select(&["fig9a".into(), "serve-chaos".into(), "table2".into()]).unwrap();
        assert_eq!(
            picked.iter().map(|e| e.id).collect::<Vec<_>>(),
            ["fig9a", "serve-chaos", "table2"]
        );
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());

        let err = select(&["table2".into(), "--smoke".into()]).unwrap_err();
        assert!(err.starts_with("unknown experiment `--smoke`"), "{err}");
        assert!(
            err.ends_with(
                "ids: table1 table2 table3 table4 fig2 fig3 fig4b fig6 fig7 fig9a fig9b fig10 \
                 serve-policy serve-preempt serve-sessions serve-chaos serve-prefix \
                 serve-scenarios serve-slots serve-backends serve-multiplex"
            ),
            "{err}"
        );
    }
}
