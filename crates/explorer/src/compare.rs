//! Comparison analysis — the module behind Figure 6.
//!
//! Runs one query through several registered algorithms, collects the
//! Figure 6(a) statistics table (method / communities / vertices / edges /
//! degree), the CPJ/CMF quality bars, and the pairwise similarity between
//! the methods' result sets.

use std::time::Instant;

use cx_graph::Community;

use crate::engine::Engine;
use crate::error::ExplorerError;
use crate::query::QuerySpec;

/// One row of the comparison table (one algorithm).
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Algorithm name.
    pub method: String,
    /// Number of communities returned.
    pub communities: usize,
    /// Average member count.
    pub avg_vertices: f64,
    /// Average internal-edge count.
    pub avg_edges: f64,
    /// Average internal degree.
    pub avg_degree: f64,
    /// CPJ quality.
    pub cpj: f64,
    /// CMF quality (w.r.t. the first query vertex).
    pub cmf: f64,
    /// Wall-clock time of the whole row in milliseconds: the search plus
    /// its statistics, CPJ and CMF.
    pub millis: f64,
    /// The raw result set (for the "view" links / similarity analysis).
    pub results: Vec<Community>,
}

/// The full comparison: one row per method plus a best-match F1 similarity
/// matrix between the methods' result sets.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Rows in the order the methods were requested.
    pub rows: Vec<ComparisonRow>,
    /// `similarity[i][j]` = best-match F1 of method i's results against
    /// method j's.
    pub similarity: Vec<Vec<f64>>,
}

impl Engine {
    /// Runs `spec` through each named algorithm on the (default or named)
    /// graph and assembles the comparison report. Unknown algorithm names
    /// error; algorithms that return nothing produce a zero row, exactly
    /// like an empty result in the UI.
    pub fn compare(
        &self,
        graph: Option<&str>,
        algos: &[&str],
        spec: &QuerySpec,
    ) -> Result<ComparisonReport, ExplorerError> {
        // Pin one snapshot for the whole comparison: every method runs
        // against the same graph version even if an edit lands mid-way.
        let snap = self.snapshot(graph)?;
        let g = &*snap.graph;
        let q = spec.resolve(g)?[0];

        let mut rows = Vec::with_capacity(algos.len());
        for &name in algos {
            let start = Instant::now();
            let results = self.search_snapshot(&snap, name, spec)?;
            let stats = cx_metrics::CommunityStats::compute(g, &results);
            let cpj = cx_metrics::cpj(g, &results);
            let cmf = cx_metrics::cmf(g, &results, q);
            rows.push(ComparisonRow {
                method: name.to_owned(),
                communities: stats.communities,
                avg_vertices: stats.avg_vertices,
                avg_edges: stats.avg_edges,
                avg_degree: stats.avg_degree,
                cpj,
                cmf,
                millis: start.elapsed().as_secs_f64() * 1e3,
                results,
            });
        }

        let n = rows.len();
        let mut similarity = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                similarity[i][j] = if i == j {
                    1.0
                } else {
                    cx_metrics::f1_score(&rows[i].results, &rows[j].results)
                };
            }
        }
        Ok(ComparisonReport { rows, similarity })
    }
}

impl ComparisonReport {
    /// Renders the Figure 6(a) statistics table as text.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>11} {:>9} {:>8} {:>7} {:>6} {:>6} {:>9}\n",
            "Method", "Communities", "Vertices", "Edges", "Degree", "CPJ", "CMF", "Time(ms)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>11} {:>9.1} {:>8.1} {:>7.1} {:>6.3} {:>6.3} {:>9.2}\n",
                r.method,
                r.communities,
                r.avg_vertices,
                r.avg_edges,
                r.avg_degree,
                r.cpj,
                r.cmf,
                r.millis
            ));
        }
        out
    }

    /// Renders the CPJ and CMF charts as one SVG document (the Analysis
    /// tab's exportable bar graphs).
    pub fn quality_charts_svg(&self) -> String {
        let cpj: Vec<(&str, f64)> =
            self.rows.iter().map(|r| (r.method.as_str(), r.cpj)).collect();
        let cmf: Vec<(&str, f64)> =
            self.rows.iter().map(|r| (r.method.as_str(), r.cmf)).collect();
        format!(
            "{}\n{}",
            cx_metrics::bar_chart_svg("CPJ (pairwise keyword similarity)", &cpj, 260.0),
            cx_metrics::bar_chart_svg("CMF (query-keyword coverage)", &cmf, 260.0)
        )
    }

    /// Renders the CPJ and CMF bar charts (the Analysis tab's bar graphs).
    pub fn quality_charts(&self) -> String {
        let cpj: Vec<(&str, f64)> =
            self.rows.iter().map(|r| (r.method.as_str(), r.cpj)).collect();
        let cmf: Vec<(&str, f64)> =
            self.rows.iter().map(|r| (r.method.as_str(), r.cmf)).collect();
        format!(
            "CPJ (pairwise keyword similarity)\n{}\n\nCMF (query-keyword coverage)\n{}",
            cx_metrics::bar_chart(&cpj, 40),
            cx_metrics::bar_chart(&cmf, 40)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::small_collab_graph;

    #[test]
    fn compare_four_methods_on_collab_graph() {
        let e = Engine::with_graph("collab", small_collab_graph());
        let spec = QuerySpec::by_label("db-author-0").k(3);
        let report = e
            .compare(None, &["global", "local", "codicil", "acq"], &spec)
            .unwrap();
        assert_eq!(report.rows.len(), 4);
        let by_name = |n: &str| report.rows.iter().find(|r| r.method == n).unwrap();

        // Everyone found something.
        for r in &report.rows {
            assert!(r.communities >= 1, "{} returned nothing", r.method);
            assert!(r.avg_degree > 0.0);
        }
        // The qualitative Figure 6(a) shape: Global's community is the
        // biggest (whole connected k-core spans both cliques via the
        // bridge); ACQ's keyword constraint keeps it within the db group.
        assert!(
            by_name("global").avg_vertices >= by_name("acq").avg_vertices,
            "global {} < acq {}",
            by_name("global").avg_vertices,
            by_name("acq").avg_vertices
        );
        // ACQ has the best keyword cohesion.
        assert!(by_name("acq").cpj >= by_name("global").cpj);
        assert!(by_name("acq").cmf >= by_name("global").cmf);

        // Similarity matrix is square with a unit diagonal.
        assert_eq!(report.similarity.len(), 4);
        for i in 0..4 {
            assert_eq!(report.similarity[i][i], 1.0);
        }
    }

    #[test]
    fn table_and_charts_render() {
        let e = Engine::with_graph("collab", small_collab_graph());
        let spec = QuerySpec::by_label("ml-author-1").k(3);
        let report = e.compare(None, &["global", "acq"], &spec).unwrap();
        let table = report.table();
        assert!(table.contains("Method"));
        assert!(table.contains("global"));
        assert!(table.contains("acq"));
        let charts = report.quality_charts();
        assert!(charts.contains("CPJ"));
        assert!(charts.contains("CMF"));
        let svg = report.quality_charts_svg();
        assert_eq!(svg.matches("<svg").count(), 2);
        assert!(svg.contains("global"));
    }

    #[test]
    fn unknown_method_propagates_error() {
        let e = Engine::with_graph("collab", small_collab_graph());
        let spec = QuerySpec::by_label("db-author-0");
        assert!(e.compare(None, &["acq", "ghost"], &spec).is_err());
    }
}
