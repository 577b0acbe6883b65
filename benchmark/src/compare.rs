//! `compare A.jsonl B.jsonl`: one row per workload × metric with both sets'
//! medians and quartiles and the relative change. End-to-end metrics (from
//! the sets' untraced runs) also get a verdict:
//!
//! * `unresolved` — either set's quartile spread is wider than the bound,
//!   so a difference of that size cannot be told from noise;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `ok` — otherwise.
//!
//! Per-layer metrics (from the sets' traced runs, where both have some)
//! carry no bound and so no verdict; their rows are there to be read beside
//! the spreads. A/A checks (two sweeps of one commit) and every later
//! parent-vs-change review read this table. Exit status is non-zero unless
//! every end-to-end row is `ok`.

use crate::spec::{group, read_set, Spec};
use crate::stats;
use std::process::ExitCode;

/// `(b − a) / a`, signed so that positive always means "B is worse".
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// The verdict of one row.
pub fn verdict(spread_a: f64, spread_b: f64, worse_by: f64, bound: f64) -> &'static str {
    if spread_a > bound || spread_b > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.jsonl B.jsonl".into());
    };
    let spec = Spec::load()?;
    let (set_a, set_b) = (read_set(a_path)?, read_set(b_path)?);
    println!(
        "{:<26} {:<36} {:>13} {:>13} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "A spread",
        "B spread",
        "worse by",
        "bound"
    );
    let mut all_ok = true;
    let tables = [false, true].map(|traced| {
        let table = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        (traced, table, group(&set_a, traced), group(&set_b, traced))
    });
    for workload in &spec.workloads {
        for (traced, m, a, b) in tables
            .iter()
            .flat_map(|(traced, table, a, b)| table.iter().map(move |m| (*traced, m, a, b)))
        {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                // Sets without traced runs simply have no per-layer rows.
                if !traced {
                    println!("{workload:<26} {:<22} missing from one set", m.name);
                    all_ok = false;
                }
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!(
                    "{workload}.{}: a set needs at least two runs",
                    m.name
                ));
            }
            let (qa, qb) = (stats::quartiles(va), stats::quartiles(vb));
            let (sa, sb) = (stats::spread(va), stats::spread(vb));
            let worse_by = worsening(qa.1, qb.1, m.higher_is_better);
            // Set-up time is exempt from the spread rule, not from the
            // median rule.
            let v = match m.bound {
                None => "",
                Some(bound) if m.name == "setup_s" => verdict(0.0, 0.0, worse_by, bound),
                Some(bound) => verdict(sa, sb, worse_by, bound),
            };
            all_ok &= m.bound.is_none() || v == "ok";
            let bound = m.bound.map_or_else(String::new, |b| b.to_string());
            println!(
                "{workload:<26} {:<36} {:>13.5} {:>13} {:>13.5} {:>13} {sa:>8.4} {sb:>8.4} {worse_by:>+8.4} {bound:>6}  {v}",
                m.name,
                qa.1,
                format!("{:.4}..{:.4}", qa.0, qa.2),
                qb.1,
                format!("{:.4}..{:.4}", qb.0, qb.2),
            );
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.03, 0.05, 0.1), "ok");
        assert_eq!(verdict(0.02, 0.03, 0.15, 0.1), "worse");
        assert_eq!(verdict(0.02, 0.30, 0.15, 0.1), "unresolved");
        assert_eq!(verdict(0.02, 0.03, -0.5, 0.1), "ok");
    }
}
