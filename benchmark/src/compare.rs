//! `benchmark compare <parent-dir> <change-dir>`: judges a change
//! against its parent from run records, by the bounds in
//! `BENCHMARK.json` (read from the working directory).
//!
//! Each directory is searched recursively for run records
//! (`<workload>.json`, `<workload>.traced.json`). For every (workload,
//! metric) pair the table shows each side's median and quartiles, the
//! ratio of the change's median to the parent's, and for end-to-end
//! metrics a verdict:
//!
//! * `unresolved` — the run-to-run spread (quartile distance over
//!   median, on either side) exceeds the bound, unless every change run
//!   reads better than every parent run (`better`);
//! * `worse` — the change's median is worse by more than the bound;
//! * `better` — it is better by more than the parent's own quartile
//!   distance, and wins at least nine tenths of the runs paired by seed;
//!   `unresolved` if no two runs share a seed;
//! * `same` — otherwise.

use crate::stats::{median, quartiles};
use oblivion_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, metric)` → `(seed, value)` of every run found.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn collect(dir: &Path, runs: &mut Runs) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            collect(&path, runs)?;
        } else if name.ends_with(".json") && !name.ends_with(".trace.json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let rec = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let (Some(w), Some(Json::Obj(metrics))) = (
                rec.get("workload").and_then(Json::as_str),
                rec.get("metrics"),
            ) else {
                continue;
            };
            if rec.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{}: an incorrect run cannot be compared",
                    path.display()
                ));
            }
            let seed = rec.get("seed").and_then(Json::as_u64).unwrap_or(0);
            for (metric, v) in metrics {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    runs.entry((w.to_string(), metric.clone()))
                        .or_default()
                        .push((seed, x));
                }
            }
        }
    }
    Ok(())
}

/// Direction and bound of each metric named in `BENCHMARK.json`.
fn rules(doc: &Json) -> BTreeMap<String, (bool, Option<f64>)> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(name) = m.get("name").and_then(Json::as_str) {
                let lower = m.get("better").and_then(Json::as_str) != Some("higher");
                let bound = m.get("bound").and_then(Json::as_f64);
                out.insert(name.to_string(), (lower, bound));
            }
        }
    }
    out
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let decimals = (4.0 - x.abs().log10().floor()).clamp(0.0, 12.0) as usize;
    format!("{x:.decimals$}")
}

/// The verdict for one end-to-end metric.
pub fn verdict(
    parent: &[(u64, f64)],
    change: &[(u64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> &'static str {
    let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<f64>>();
    let (p, c) = (values(parent), values(change));
    let (pm, cm) = (median(&p), median(&c));
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / m.abs()
    };
    // Positive: the change is better by this share of the parent.
    let gain = |a: f64, b: f64| {
        if lower_is_better {
            (b - a) / b
        } else {
            (a - b) / b
        }
    };
    let all_better = c.iter().all(|&x| {
        p.iter()
            .all(|&y| if lower_is_better { x < y } else { x > y })
    });
    if spread(&p, pm).max(spread(&c, cm)) > bound {
        return if all_better { "better" } else { "unresolved" };
    }
    let g = gain(cm, pm);
    if g < -bound {
        return "worse";
    }
    let (q1, q3) = quartiles(&p);
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|&(seed, y)| change.iter().find(|r| r.0 == seed).map(|r| (r.1, y)))
        .collect();
    let wins = pairs.iter().filter(|(x, y)| gain(*x, *y) > 0.0).count();
    if g <= 0.0 || (cm - pm).abs() <= q3 - q1 {
        "same"
    } else if pairs.is_empty() {
        // Without runs of both sides on one seed, a gain cannot be told
        // from drift in the host between the two sets.
        "unresolved"
    } else if wins * 10 >= pairs.len() * 9 {
        "better"
    } else {
        "same"
    }
}

pub fn run(parent: &Path, change: &Path) -> i32 {
    let doc = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| Json::parse(&t))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let rules = rules(&doc);
    let (mut p, mut c) = (Runs::new(), Runs::new());
    if let Err(e) = collect(parent, &mut p).and_then(|()| collect(change, &mut c)) {
        eprintln!("{e}");
        return 2;
    }
    println!(
        "{:<16} {:<36} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "ratio"
    );
    let side = |runs: &[(u64, f64)]| {
        let v: Vec<f64> = runs.iter().map(|r| r.1).collect();
        let (q1, q3) = quartiles(&v);
        format!("{} [{}, {}] {}", sig(median(&v)), sig(q1), sig(q3), v.len())
    };
    let mut any_worse = false;
    for ((w, m), before) in &p {
        let Some(after) = c.get(&(w.clone(), m.clone())) else {
            println!("{w:<16} {m:<36} {:>34} {:>34}", side(before), "missing");
            continue;
        };
        let vals = |r: &[(u64, f64)]| median(&r.iter().map(|x| x.1).collect::<Vec<_>>());
        let ratio = vals(after) / vals(before);
        let v = match rules.get(m) {
            Some(&(lower, Some(bound))) => verdict(before, after, lower, bound),
            _ => "-",
        };
        any_worse |= v == "worse";
        println!(
            "{w:<16} {m:<36} {:>34} {:>34} {ratio:>7.3}  {v}",
            side(before),
            side(after)
        );
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(v: &[f64]) -> Vec<(u64, f64)> {
        v.iter().enumerate().map(|(i, &x)| (i as u64, x)).collect()
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let parent = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]);
        let same = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01]);
        let slower = runs(&[
            12.0, 12.1, 11.9, 12.0, 12.05, 11.95, 12.0, 12.02, 11.98, 12.0,
        ]);
        let faster = runs(&[9.0, 9.1, 8.9, 9.0, 9.05, 8.95, 9.0, 9.02, 8.98, 9.0]);
        let noisy = runs(&[5.0, 15.0, 9.0, 11.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0]);
        assert_eq!(verdict(&parent, &same, true, 0.1), "same");
        assert_eq!(verdict(&parent, &slower, true, 0.1), "worse");
        assert_eq!(verdict(&parent, &faster, true, 0.1), "better");
        assert_eq!(verdict(&parent, &faster, false, 0.2), "same");
        assert_eq!(verdict(&parent, &faster, false, 0.05), "worse");
        assert_eq!(verdict(&parent, &noisy, true, 0.1), "unresolved");
        // A gain on seeds the parent never ran has no pairs to win.
        let disjoint: Vec<(u64, f64)> = faster.iter().map(|&(s, x)| (s + 100, x)).collect();
        assert_eq!(verdict(&parent, &disjoint, true, 0.1), "unresolved");
        assert_eq!(verdict(&parent, &disjoint, false, 0.05), "worse");
        // Paired by seed, a gain the change loses on two of ten seeds
        // is not claimed.
        let mixed: Vec<(u64, f64)> = faster
            .iter()
            .map(|&(s, x)| (s, if s < 2 { 10.5 } else { x }))
            .collect();
        assert_eq!(verdict(&parent, &mixed, true, 0.1), "same");
    }
}
