//! Scenes: fitted positions plus edges and labels, ready to render.

use cx_graph::{AttributedGraph, Community, Subgraph, VertexId};

use crate::force::LayoutAlgorithm;

/// A 2-D position in viewport coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X in pixels.
    pub x: f64,
    /// Y in pixels.
    pub y: f64,
}

/// A laid-out community, ready for the SVG renderer or the server's
/// scene JSON.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Viewport width in pixels.
    pub width: f64,
    /// Viewport height in pixels.
    pub height: f64,
    /// Member vertices with their positions, in member order.
    pub vertices: Vec<(VertexId, Point)>,
    /// Display label per vertex, parallel to `vertices`.
    pub labels: Vec<String>,
    /// Edges as indices into `vertices`.
    pub edges: Vec<(usize, usize)>,
    /// Index of the highlighted (query) vertex, if any.
    pub highlight: Option<usize>,
    /// Scene title (e.g. "Method: ACQ — Communities: 1").
    pub title: String,
    /// Theme keywords shown under the title.
    pub theme: Vec<String>,
    /// Per-vertex dot radius in pixels, parallel to `vertices`. Empty for
    /// classic community scenes (renderers fall back to a uniform dot);
    /// summary scenes size bubbles by supernode weight.
    pub radii: Vec<f64>,
    /// Per-edge weights parallel to `edges`; empty means unweighted.
    /// Summary scenes carry the number of underlying graph edges a link
    /// aggregates, and renderers thicken strokes accordingly.
    pub weights: Vec<f64>,
    /// Which vertices are supernodes (parallel to `vertices`); empty for
    /// classic scenes where everything is a plain vertex.
    pub supers: Vec<bool>,
}

/// Lays out the members of `community` within `g`.
///
/// `highlight` (typically the query vertex) is centred first in member
/// order so ring layouts put it in the middle; the scene marks it for the
/// renderers. Positions are fitted to `width`×`height` with a margin.
pub fn layout_community(
    g: &AttributedGraph,
    community: &Community,
    algo: LayoutAlgorithm,
    highlight: Option<VertexId>,
    width: f64,
    height: f64,
    seed: u64,
) -> Scene {
    // Put the highlighted vertex first so Shell centres it.
    let mut members: Vec<VertexId> = community.vertices().to_vec();
    if let Some(h) = highlight {
        if let Some(pos) = members.iter().position(|&v| v == h) {
            members.swap(0, pos);
        }
    }
    let sub = Subgraph::induced(g, &members);
    // Subgraph sorts members; map "first" through its local ids.
    let raw = run_with_centered_first(&sub, &members, algo, seed);

    // Fit to viewport with a 8% margin.
    let margin = 0.08;
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &raw {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let span_x = (max_x - min_x).max(1e-9);
    let span_y = (max_y - min_y).max(1e-9);
    let fit = |x: f64, y: f64| Point {
        x: width * (margin + (1.0 - 2.0 * margin) * (x - min_x) / span_x),
        y: height * (margin + (1.0 - 2.0 * margin) * (y - min_y) / span_y),
    };

    let vertices: Vec<(VertexId, Point)> = sub
        .members()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, fit(raw[i].0, raw[i].1)))
        .collect();
    let labels: Vec<String> = sub.members().iter().map(|&v| g.label(v).to_owned()).collect();
    let mut edges = Vec::new();
    for i in 0..sub.vertex_count() as u32 {
        for &j in sub.neighbors(i) {
            if i < j {
                edges.push((i as usize, j as usize));
            }
        }
    }
    let highlight_idx = highlight.and_then(|h| sub.local(h).map(|l| l as usize));
    Scene {
        width,
        height,
        vertices,
        labels,
        edges,
        highlight: highlight_idx,
        title: String::new(),
        theme: community.theme(g),
        radii: Vec::new(),
        weights: Vec::new(),
        supers: Vec::new(),
    }
}

/// One item of a summary scene: a supernode bubble (standing for a whole
/// subtree of the hierarchy) or a plain resident vertex.
#[derive(Debug, Clone)]
pub struct SummaryItem {
    /// Opaque id carried into the scene: a supernode id for bubbles, a
    /// vertex id for residents — the endpoint that built the scene says
    /// which (via the `supers` column).
    pub id: u32,
    /// Display label.
    pub label: String,
    /// Visual weight, e.g. subtree vertex count; bubbles are scaled by
    /// `sqrt(size)` so area tracks population.
    pub size: f64,
    /// True for supernodes.
    pub is_super: bool,
}

/// Lays out summary items deterministically on a sunflower spiral —
/// size-descending with the largest bubble at the centre — and threads
/// the given weighted links between them. No force iterations, no seed:
/// the multi-resolution views at paper scale must render identically
/// across runs and thread counts, and spiral packing behaves well for
/// the "few hundred disjoint bubbles" shape a level view has.
pub fn layout_summary(
    items: &[SummaryItem],
    links: &[(usize, usize, f64)],
    width: f64,
    height: f64,
) -> Scene {
    let n = items.len();
    // Rank by size descending (stable by index) to place big bubbles first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        items[b].size.partial_cmp(&items[a].size).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }

    let margin = 0.08;
    let cx = width / 2.0;
    let cy = height / 2.0;
    let rmax = (width.min(height) / 2.0) * (1.0 - 2.0 * margin);
    const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;
    let pos = |r: usize| -> Point {
        if n == 1 {
            return Point { x: cx, y: cy };
        }
        let t = (r as f64 + 0.5) / n as f64;
        let radius = rmax * t.sqrt();
        let angle = r as f64 * GOLDEN_ANGLE;
        Point { x: cx + radius * angle.cos(), y: cy + radius * angle.sin() }
    };

    let max_size = items.iter().map(|i| i.size).fold(1.0_f64, f64::max);
    let radii: Vec<f64> = items
        .iter()
        .map(|i| {
            let scaled = (i.size.max(1.0) / max_size).sqrt();
            if i.is_super { 6.0 + 22.0 * scaled } else { 4.0 }
        })
        .collect();

    Scene {
        width,
        height,
        vertices: items
            .iter()
            .enumerate()
            .map(|(i, it)| (VertexId(it.id), pos(rank[i])))
            .collect(),
        labels: items.iter().map(|i| i.label.clone()).collect(),
        edges: links.iter().map(|&(a, b, _)| (a, b)).collect(),
        highlight: None,
        title: String::new(),
        theme: Vec::new(),
        radii,
        weights: links.iter().map(|&(_, _, w)| w).collect(),
        supers: items.iter().map(|i| i.is_super).collect(),
    }
}

/// Runs `algo` with the *requested* first member mapped to local slot 0 so
/// Shell centres the query vertex (Subgraph reorders members by id).
fn run_with_centered_first(
    sub: &Subgraph,
    requested: &[VertexId],
    algo: LayoutAlgorithm,
    seed: u64,
) -> Vec<(f64, f64)> {
    let raw = algo.run(sub, seed);
    if let (LayoutAlgorithm::Shell, Some(&first)) = (algo, requested.first()) {
        if let Some(local) = sub.local(first) {
            if local != 0 && !raw.is_empty() {
                let mut raw = raw;
                raw.swap(0, local as usize);
                return raw;
            }
        }
    }
    raw
}

impl Scene {
    /// Sets the scene title (builder style).
    pub fn titled(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Number of placed vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// All positions are inside the viewport.
    pub fn in_bounds(&self) -> bool {
        self.vertices.iter().all(|&(_, p)| {
            p.x >= 0.0 && p.x <= self.width && p.y >= 0.0 && p.y <= self.height
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;

    fn scene_for_k4() -> Scene {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let members: Vec<VertexId> =
            ["A", "B", "C", "D"].iter().map(|l| g.vertex_by_label(l).unwrap()).collect();
        let x = g.interner().get("x").unwrap();
        let c = Community::new(members, vec![x]);
        layout_community(&g, &c, LayoutAlgorithm::default_force(), Some(a), 640.0, 480.0, 1)
    }

    #[test]
    fn scene_structure() {
        let s = scene_for_k4();
        assert_eq!(s.vertex_count(), 4);
        assert_eq!(s.edges.len(), 6); // K4
        assert_eq!(s.labels.len(), 4);
        assert_eq!(s.theme, vec!["x"]);
        assert!(s.in_bounds());
        assert!(s.highlight.is_some());
    }

    #[test]
    fn highlight_points_at_query_vertex() {
        let g = figure5_graph();
        let s = scene_for_k4();
        let hi = s.highlight.unwrap();
        assert_eq!(s.labels[hi], "A");
        let a = g.vertex_by_label("A").unwrap();
        assert_eq!(s.vertices[hi].0, a);
    }

    #[test]
    fn shell_layout_centers_query() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let members: Vec<VertexId> =
            ["A", "B", "C", "D", "E"].iter().map(|l| g.vertex_by_label(l).unwrap()).collect();
        let c = Community::structural(members);
        let s = layout_community(&g, &c, LayoutAlgorithm::Shell, Some(a), 100.0, 100.0, 0);
        let hi = s.highlight.unwrap();
        // The query vertex is the ring centre, so it must have the smallest
        // mean distance to all other vertices (fitting may shift the
        // absolute coordinates, but not this ordering).
        let mean_dist = |i: usize| -> f64 {
            let p = s.vertices[i].1;
            s.vertices
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &(_, q))| ((p.x - q.x).powi(2) + (p.y - q.y).powi(2)).sqrt())
                .sum::<f64>()
        };
        let best = (0..s.vertex_count()).min_by(|&a, &b| {
            mean_dist(a).partial_cmp(&mean_dist(b)).unwrap()
        });
        assert_eq!(best, Some(hi), "query vertex is not the most central");
    }

    /// Every algorithm places every member of any community (disconnected
    /// members, edges to non-members) finitely inside the viewport, draws
    /// only graph edges, and draws the same scene twice for one seed.
    #[test]
    fn every_algorithm_fits_any_community_deterministically() {
        for seed in 0..200u64 {
            let mut rng = cx_par::rng::Rng64::seed_from_u64(seed);
            let n = rng.gen_range(2..25u32);
            let mut b = cx_graph::GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(&format!("v{i}"), &[]);
            }
            for _ in 0..rng.gen_range(0..3 * n) {
                b.add_edge(VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
            }
            let g = b.build();
            let mut members: Vec<VertexId> = g.vertices().filter(|_| rng.gen_bool(0.5)).collect();
            if members.is_empty() {
                members.push(VertexId(0));
            }
            let c = Community::structural(members);
            let q = c.vertices().first().copied();
            for algo in [
                LayoutAlgorithm::default_force(),
                LayoutAlgorithm::KamadaKawai { iterations: 20 },
                LayoutAlgorithm::Circular,
                LayoutAlgorithm::Shell,
            ] {
                let s = layout_community(&g, &c, algo, q, 640.0, 480.0, seed);
                assert_eq!(s.vertex_count(), c.len(), "seed {seed} {algo:?}");
                let finite = s.vertices.iter().all(|(_, p)| p.x.is_finite() && p.y.is_finite());
                assert!(finite && s.in_bounds(), "seed {seed} {algo:?}: {:?}", s.vertices);
                for &(i, j) in &s.edges {
                    let (u, v) = (s.vertices[i].0, s.vertices[j].0);
                    assert!(g.has_edge(u, v), "seed {seed} {algo:?}: drew {u}-{v}");
                }
                assert!(s.to_svg().starts_with("<svg"), "seed {seed} {algo:?}");
                let again = layout_community(&g, &c, algo, q, 640.0, 480.0, seed);
                assert_eq!(again.vertices, s.vertices, "seed {seed} {algo:?}: not deterministic");
            }
        }
    }

    #[test]
    fn titled_builder() {
        let s = scene_for_k4().titled("Method: ACQ");
        assert_eq!(s.title, "Method: ACQ");
    }

    #[test]
    fn summary_layout_is_deterministic_and_in_bounds() {
        let items: Vec<SummaryItem> = (0..50)
            .map(|i| SummaryItem {
                id: i,
                label: format!("s{i}"),
                size: (i + 1) as f64,
                is_super: i % 2 == 0,
            })
            .collect();
        let links = vec![(0usize, 1usize, 3.0), (1, 2, 1.0)];
        let a = layout_summary(&items, &links, 800.0, 600.0);
        let b = layout_summary(&items, &links, 800.0, 600.0);
        assert_eq!(a.vertex_count(), 50);
        assert!(a.in_bounds());
        assert_eq!(a.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(a.weights, vec![3.0, 1.0]);
        assert_eq!(a.radii.len(), 50);
        // Determinism: identical positions across runs.
        for (pa, pb) in a.vertices.iter().zip(&b.vertices) {
            assert_eq!(pa.1, pb.1);
        }
        // The largest supernode (id 48) outranks smaller supernodes...
        assert!(a.radii[48] > a.radii[46]);
        // ...and plain vertices keep small dots.
        assert_eq!(a.radii[1], 4.0);
    }

    #[test]
    fn empty_community_scene() {
        let g = figure5_graph();
        let c = Community::structural(vec![]);
        let s = layout_community(&g, &c, LayoutAlgorithm::Circular, None, 10.0, 10.0, 0);
        assert_eq!(s.vertex_count(), 0);
        assert!(s.edges.is_empty());
        assert!(s.in_bounds());
    }
}
