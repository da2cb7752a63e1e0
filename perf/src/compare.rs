//! `ssr-perf compare`: alternating runs of a parent build and a change
//! build, judged metric by metric.
//!
//! Pair `i` runs both builds on seed `seed + i`, the parent first on even
//! pairs and the change first on odd ones. Per workload and end-to-end
//! metric:
//!
//! * **better** — the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ by more than the
//!   parent's interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **unresolved** — either side's interquartile range exceeds the bound
//!   and not every change run beats every parent run;
//! * **unchanged** — none of the above.
//!
//! Comparing a build with itself gives two alternating sets of runs of the
//! same code; every row should then read unchanged.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ssr_ctl::Json;

use crate::{child, Flags};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json`.
pub fn load_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("end_to_end entry without {k}"));
            Ok(MetricSpec {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Quartiles by the exclusive method (Python's `statistics.quantiles`
/// default), so spreads read the same here and in any script. Needs two or
/// more values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The verdict of one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Unchanged,
}

/// Judge paired runs (`parent[i]` and `change[i]` share a seed).
pub fn verdict(parent: &[f64], change: &[f64], spec: &MetricSpec) -> Verdict {
    // Orient so that larger is better.
    let sign = if spec.lower_is_better { -1.0 } else { 1.0 };
    let p: Vec<f64> = parent.iter().map(|v| v * sign).collect();
    let c: Vec<f64> = change.iter().map(|v| v * sign).collect();
    let (p1, pm, p3) = quartiles(&p);
    let (c1, cm, c3) = quartiles(&c);
    let wins = p.iter().zip(&c).filter(|(p, c)| c > p).count();
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let spread = ((p3 - p1) / scale).max((c3 - c1) / scale);
    let all_better = c.iter().fold(f64::INFINITY, |a, &b| a.min(b))
        > p.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if wins * 10 >= p.len() * 9 && cm - pm > p3 - p1 {
        Verdict::Better
    } else if spread > spec.bound && !all_better {
        Verdict::Unresolved
    } else if pm - cm > spec.bound * scale {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// `ssr-perf compare`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["parent", "change", "pairs", "seed", "seconds", "workloads", "spec", "json"],
        &[],
    )?;
    let parent = PathBuf::from(flags.str("parent").ok_or("--parent BIN is required")?);
    let change = PathBuf::from(flags.str("change").ok_or("--change BIN is required")?);
    let pairs: usize = flags.get("pairs", 10)?;
    if pairs < 2 {
        return Err("--pairs must be at least 2".into());
    }
    let seed: u64 = flags.get("seed", 1)?;
    let seconds = flags.seconds()?;
    let spec_path = flags.str("spec").unwrap_or("BENCHMARK.json");
    let specs =
        load_spec(&std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?)?;
    let workloads = flags.workloads()?;

    // values[workload][metric] = (parent runs, change runs), pair order.
    let mut values: BTreeMap<(usize, String), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for pair in 0..pairs {
        let pair_seed = seed.wrapping_add(pair as u64);
        for (w, &workload) in workloads.iter().enumerate() {
            let order = if pair % 2 == 0 { [false, true] } else { [true, false] };
            for is_change in order {
                let exe = if is_change { &change } else { &parent };
                let run = child(exe, workload, pair_seed, seconds, false, "target/perf", false)?;
                ok &= run.ok && run.correct;
                eprintln!(
                    "pair {pair} {} {}: {}",
                    workload.name(),
                    if is_change { "change" } else { "parent" },
                    if run.ok && run.correct { "ok" } else { "FAILED" }
                );
                for spec in &specs {
                    let value = run.metrics.get(&spec.name).copied().unwrap_or(f64::NAN);
                    let entry = values.entry((w, spec.name.clone())).or_default();
                    if is_change { &mut entry.1 } else { &mut entry.0 }.push(value);
                }
            }
        }
    }

    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>8} {:>12} {:>8} {:>5}  verdict",
        "workload", "metric", "parent", "change", "delta", "parent IQR", "bound", "wins"
    );
    let mut rows = Vec::new();
    for ((w, name), (p, c)) in &values {
        let spec = specs.iter().find(|s| &s.name == name).expect("values follow specs");
        let (p1, pm, p3) = quartiles(p);
        let (c1, cm, c3) = quartiles(c);
        let sign = if spec.lower_is_better { -1.0 } else { 1.0 };
        let wins = p.iter().zip(c).filter(|(p, c)| (*c - *p) * sign > 0.0).count();
        let v = verdict(p, c, spec);
        println!(
            "{:<13} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>11.1}% {:>7.0}% {:>2}/{:<2}  {v:?}",
            workloads[*w].name(),
            name,
            pm,
            cm,
            crate::stats::ratio(cm - pm, pm) * 100.0,
            crate::stats::ratio(p3 - p1, pm) * 100.0,
            spec.bound * 100.0,
            wins,
            p.len(),
        );
        let side = |runs: &[f64], q: (f64, f64, f64)| {
            Json::obj(vec![
                ("runs", Json::Arr(runs.iter().map(|&v| Json::Num(v)).collect())),
                ("q1", Json::Num(q.0)),
                ("median", Json::Num(q.1)),
                ("q3", Json::Num(q.2)),
            ])
        };
        rows.push(Json::obj(vec![
            ("workload", Json::str(workloads[*w].name())),
            ("metric", Json::str(name.as_str())),
            ("parent", side(p, (p1, pm, p3))),
            ("change", side(c, (c1, cm, c3))),
            ("verdict", Json::str(format!("{v:?}").to_lowercase())),
        ]));
    }
    if let Some(path) = flags.str("json") {
        let doc = Json::obj(vec![
            ("parent", Json::str(parent.display().to_string())),
            ("change", Json::str(change.display().to_string())),
            ("pairs", Json::Num(pairs as f64)),
            ("first_seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds.as_secs_f64())),
            ("rows", Json::Arr(rows)),
        ]);
        let text = doc.render().replace("},{\"workload\"", "},\n{\"workload\"");
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec { name: "m".into(), lower_is_better: lower, bound }
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), (1.0, 4.0, 5.0));
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&parent, &faster, &spec(true, 0.1)), Verdict::Better);
        let smaller: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&parent, &smaller, &spec(false, 0.1)), Verdict::Worse);
        assert_eq!(verdict(&parent, &slower, &spec(true, 0.1)), Verdict::Worse);
        assert_eq!(verdict(&parent, &parent, &spec(true, 0.1)), Verdict::Unchanged);
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, &spec(true, 0.1)), Verdict::Unresolved);
    }

    #[test]
    fn spec_reads_the_end_to_end_list() {
        let text = r#"{"end_to_end": [
            {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]}"#;
        let specs = load_spec(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs[0].lower_is_better && !specs[1].lower_is_better);
        assert_eq!(specs[1].bound, 0.05);
        assert!(load_spec("{}").is_err());
    }
}
