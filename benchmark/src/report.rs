//! Result files: merging the per-run documents into `results.json`, and
//! `compare`, which applies each metric's direction and bound.

use std::path::Path;

use cx_server::Json;

use crate::stats;
use crate::workload::Workload;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// The end-to-end metrics with their direction and the share of the
/// baseline by which each may worsen before it counts as a regression.
/// `BENCHMARK.json` states the same rows (a unit test keeps them equal)
/// except `lat_p95_ms`, which `compare` judges but the driver does not
/// gate on.
pub const BOUNDS: [(&str, Better, f64); 5] = [
    ("setup_s", Better::Lower, 0.25),
    ("lat_p50_ms", Better::Lower, 0.25),
    ("lat_p95_ms", Better::Lower, 0.25),
    ("throughput_rps", Better::Higher, 0.25),
    ("peak_rss_mb", Better::Lower, 0.25),
];

/// What `compare` says about one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound.
    Worse,
    /// Within the bound either way.
    Unchanged,
    /// The passes of one of the runs spread wider than the bound, so
    /// the run cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares baseline value `a` with candidate value `b`. `spread` is the
/// wider of the two runs' relative spread across passes.
pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the baseline.
    let worsening = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn pass_spread(run: &Json, name: &str) -> f64 {
    let values: Vec<f64> = run
        .get("per_pass")
        .and_then(|p| p.get(name))
        .and_then(Json::as_array)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    stats::relative_spread(&values)
}

/// `cxb compare A.json B.json` over two `results.json` files. Prints one
/// line per (workload, end-to-end metric) and per exact-count field;
/// returns how many pairs are `worse` or differ where they must not.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = 0;
    for w in Workload::ALL {
        let run = |doc: &Json, kind: &str| doc.get("workloads")?.get(w.name())?.get(kind).cloned();
        let (Some(ea), Some(eb)) = (run(&a, "e2e"), run(&b, "e2e")) else {
            continue;
        };
        for (name, better, bound) in BOUNDS {
            let (Some(va), Some(vb)) = (metric(&ea, name), metric(&eb, name)) else {
                return Err(format!("{} {name}: missing from one side", w.name()));
            };
            let spread = pass_spread(&ea, name).max(pass_spread(&eb, name));
            let v = verdict(better, bound, va, vb, spread);
            bad += (v == Verdict::Worse) as usize;
            println!(
                "{} {name} {} a={va} b={vb} change={:+.2}% bound={:.0}% pass_spread={:.1}%",
                w.name(),
                v.name(),
                (vb - va) / va * 100.0,
                bound * 100.0,
                spread * 100.0
            );
        }
        // error_rate is absolute: any failure is a regression.
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let v = if failed(&eb) > 0.0 { Verdict::Worse } else { Verdict::Unchanged };
        bad += (v == Verdict::Worse) as usize;
        println!(
            "{} error_rate {} a_failed={} b_failed={}",
            w.name(),
            v.name(),
            failed(&ea),
            failed(&eb)
        );

        // Fields that must repeat exactly between runs of equal inputs.
        let fp = |r: &Json| r.get("answers_fingerprint").and_then(Json::as_str).map(str::to_owned);
        let mut exact = vec![("answers_fingerprint", fp(&ea) == fp(&eb))];
        if let (Some(ta), Some(tb)) = (run(&a, "trace"), run(&b, "trace")) {
            for name in [
                "server.json.resp_bytes",
                "store.wal_bytes_per_edit",
                "acq.candidates_verified_per_query",
            ] {
                exact.push((name, metric(&ta, name) == metric(&tb, name)));
            }
        }
        for (name, same) in exact {
            bad += !same as usize;
            println!("{} {name} {}", w.name(), if same { "identical" } else { "DIFFERS" });
        }
    }
    Ok(bad)
}

/// Merges `out/<workload>.json` and `out/<workload>.trace.json` into
/// `out/results.json`. Returns the number of runs that reported
/// failures.
pub fn merge(out: &Path) -> Result<usize, String> {
    let mut workloads = std::collections::BTreeMap::new();
    let mut failing = 0;
    for w in Workload::ALL {
        let mut runs = std::collections::BTreeMap::new();
        for (kind, file) in
            [("e2e", format!("{}.json", w.name())), ("trace", format!("{}.trace.json", w.name()))]
        {
            let path = out.join(file);
            if !path.exists() {
                continue;
            }
            let run = load(&path)?;
            if run.get("correct").and_then(Json::as_bool) != Some(true) {
                eprintln!("{} {kind}: error_rate > 0", w.name());
                failing += 1;
            }
            runs.insert(kind.to_owned(), run);
        }
        if !runs.is_empty() {
            workloads.insert(w.name().to_owned(), Json::Object(runs));
        }
    }
    let doc =
        Json::obj([("schema", Json::str("cxb-results-1")), ("workloads", Json::Object(workloads))]);
    std::fs::write(out.join("results.json"), doc.to_string()).map_err(|e| e.to_string())?;
    Ok(failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::*;
        // Lower is better, bound 10%.
        assert_eq!(verdict(Lower, 0.10, 100.0, 105.0, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(Lower, 0.10, 100.0, 95.0, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(Lower, 0.10, 100.0, 111.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.10, 100.0, 80.0, 0.02), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(Higher, 0.10, 100.0, 111.0, 0.02), Verdict::Better);
        assert_eq!(verdict(Higher, 0.10, 100.0, 80.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.10, 100.0, 95.0, 0.02), Verdict::Unchanged);
        // A run whose own passes disagree by more than the bound cannot
        // call anything, however large the difference.
        assert_eq!(verdict(Lower, 0.10, 100.0, 300.0, 0.11), Verdict::Unresolved);
        assert_eq!(verdict(Lower, 0.10, 100.0, 100.0, 0.11), Verdict::Unresolved);
    }

    /// `/BENCHMARK.json` states what this package implements: same
    /// workloads, same end-to-end metrics with the same directions and
    /// bounds, same per-layer names.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = load(&path).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name()));
        assert_eq!(names("end_to_end"), crate::run::END_TO_END);
        assert_eq!(names("per_layer"), crate::layers::PER_LAYER);
        for entry in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let name = entry.get("name").and_then(Json::as_str).unwrap();
            let (_, better, bound) =
                BOUNDS.into_iter().find(|b| b.0 == name).expect("a bound for every gated metric");
            let stated = entry.get("better").and_then(Json::as_str).unwrap();
            assert_eq!(stated == "lower", better == Better::Lower, "{name}");
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
        }
        assert_eq!(doc.get("paths").unwrap().to_string(), r#"["benchmark"]"#);
    }

    fn results(p50: f64, passes: [f64; 3], failed: u32, fp: &str) -> String {
        let rest: String = ["setup_s", "lat_p95_ms", "throughput_rps", "peak_rss_mb"]
            .iter()
            .map(|n| format!(",\"{n}\":{{\"value\":10,\"unit\":\"x\"}}"))
            .collect();
        format!(
            "{{\"workloads\":{{\"acq_miss_100k\":{{\"e2e\":{{\"failed\":{failed},\"answers_fingerprint\":\"{fp}\",\
             \"metrics\":{{\"lat_p50_ms\":{{\"value\":{p50},\"unit\":\"ms\"}}{rest}}},\
             \"per_pass\":{{\"lat_p50_ms\":[{},{},{}]}}}}}}}}}}",
            passes[0], passes[1], passes[2]
        )
    }

    #[test]
    fn compare_counts_regressions_failures_and_fingerprint_drift() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/work/compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: String| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p
        };
        let base = write("a.json", results(2.0, [1.98, 2.0, 2.02], 0, "aa"));
        let same = write("b.json", results(2.1, [2.08, 2.1, 2.12], 0, "aa"));
        let slow = write("c.json", results(2.6, [2.58, 2.6, 2.62], 0, "aa"));
        let noisy = write("d.json", results(2.6, [2.0, 2.6, 3.2], 0, "aa"));
        let broken = write("e.json", results(2.0, [1.98, 2.0, 2.02], 3, "bb"));
        assert_eq!(compare(&base, &same), Ok(0));
        assert_eq!(compare(&base, &slow), Ok(1));
        assert_eq!(compare(&base, &noisy), Ok(0)); // unresolved is not a regression claim
        assert_eq!(compare(&base, &broken), Ok(2)); // failures + fingerprint
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
