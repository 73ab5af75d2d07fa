//! Result reports — what the engine hands the browser for one community
//! or one analysis request.

use cx_graph::{AttributedGraph, Community, VertexId};

/// One community, dressed for display: labels, theme, statistics.
#[derive(Debug, Clone)]
pub struct CommunityReport {
    /// The underlying community.
    pub community: Community,
    /// Member display labels, in member order.
    pub labels: Vec<String>,
    /// Theme keywords (shared by every member).
    pub theme: Vec<String>,
    /// Member count.
    pub vertices: usize,
    /// Internal edge count.
    pub edges: usize,
    /// Average internal degree.
    pub avg_degree: f64,
    /// Minimum internal degree.
    pub min_degree: usize,
    /// Edge density `2m / (n(n-1))` (1.0 for a clique; 0 for < 2 members).
    pub density: f64,
    /// Hop diameter of the induced subgraph (`None` if disconnected —
    /// cannot happen for communities produced by the built-in algorithms).
    pub diameter: Option<usize>,
    /// Conductance (fraction of incident edges leaving the community;
    /// lower = better separated from the rest of the graph).
    pub conductance: f64,
}

impl CommunityReport {
    /// Builds the report for one community of `g`.
    pub fn new(g: &AttributedGraph, community: Community) -> Self {
        let labels = community.labels(g).into_iter().map(str::to_owned).collect();
        let theme = community.theme(g);
        let vertices = community.len();
        let edges = community.internal_edge_count(g);
        let avg_degree = community.average_internal_degree(g);
        let min_degree = community.min_internal_degree(g);
        let density = if vertices < 2 {
            0.0
        } else {
            2.0 * edges as f64 / (vertices * (vertices - 1)) as f64
        };
        let diameter = cx_graph::traversal::induced_diameter(g, community.vertices());
        let conductance = cx_metrics::conductance(g, &community);
        Self {
            community,
            labels,
            theme,
            vertices,
            edges,
            avg_degree,
            min_degree,
            density,
            diameter,
            conductance,
        }
    }
}

/// Quality analysis of one result set (the `analyze` API): CPJ and CMF.
/// Per-community statistics are [`CommunityReport::new`]'s, on request.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisReport {
    /// Community pairwise Jaccard (keyword similarity), averaged.
    pub cpj: f64,
    /// Community member frequency w.r.t. the query vertex.
    pub cmf: f64,
}

impl AnalysisReport {
    /// Analyses a result set for query vertex `q`.
    pub fn new(g: &AttributedGraph, communities: &[Community], q: VertexId) -> Self {
        Self { cpj: cx_metrics::cpj(g, communities), cmf: cx_metrics::cmf(g, communities, q) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;

    #[test]
    fn report_fields_match_community() {
        let g = figure5_graph();
        let members: Vec<VertexId> =
            ["A", "C", "D"].iter().map(|l| g.vertex_by_label(l).unwrap()).collect();
        let x = g.interner().get("x").unwrap();
        let y = g.interner().get("y").unwrap();
        let c = Community::new(members, vec![x, y]);
        let r = CommunityReport::new(&g, c);
        assert_eq!(r.vertices, 3);
        assert_eq!(r.edges, 3); // triangle A-C, A-D, C-D
        assert_eq!(r.min_degree, 2);
        assert!((r.avg_degree - 2.0).abs() < 1e-12);
        assert_eq!(r.labels, vec!["A", "C", "D"]);
        assert!((r.density - 1.0).abs() < 1e-12, "triangle is a clique");
        assert_eq!(r.diameter, Some(1));
        assert!(r.conductance > 0.0, "triangle touches the rest of Figure 5");
        let mut theme = r.theme.clone();
        theme.sort();
        assert_eq!(theme, vec!["x", "y"]);
    }

    #[test]
    fn analysis_report_bundles_metrics() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let c = Community::structural(vec![
            a,
            g.vertex_by_label("C").unwrap(),
            g.vertex_by_label("D").unwrap(),
        ]);
        let r = AnalysisReport::new(&g, &[c], a);
        assert!(r.cpj > 0.0);
        assert!(r.cmf > 0.0);
    }

    #[test]
    fn empty_analysis() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let r = AnalysisReport::new(&g, &[], a);
        assert_eq!(r.cpj, 0.0);
        assert_eq!(r.cmf, 0.0);
    }
}
