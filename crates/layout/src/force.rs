//! Layout algorithms over an induced subgraph.

use cx_par::rng::Rng64;

use cx_graph::Subgraph;

/// Which placement algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutAlgorithm {
    /// Classic Fruchterman–Reingold force simulation with cooling.
    FruchtermanReingold {
        /// Simulation steps (50 is plenty for community-sized graphs).
        iterations: usize,
    },
    /// Kamada–Kawai-style stress minimisation over BFS hop distances,
    /// optimised by gradient steps. Keeps an n×n distance matrix, so it
    /// draws at most [`KK_MAX_MEMBERS`] vertices.
    KamadaKawai {
        /// Optimisation sweeps.
        iterations: usize,
    },
    /// Members evenly spaced on a circle, in id order.
    Circular,
    /// Concentric rings by BFS hop distance from the first member
    /// (the query vertex when laid out through the engine).
    Shell,
}

/// The most vertices [`LayoutAlgorithm::KamadaKawai`] lays out. Its
/// hop-distance matrix holds n² words and each sweep visits every pair:
/// 8 MB and 80 M pair steps at this bound, against ~11 GB for a
/// 38k-member community.
pub const KK_MAX_MEMBERS: usize = 1_000;

impl LayoutAlgorithm {
    /// A sensible default: FR with 60 iterations.
    pub fn default_force() -> Self {
        LayoutAlgorithm::FruchtermanReingold { iterations: 60 }
    }

    /// Whether this algorithm lays out `n` vertices; only Kamada–Kawai is
    /// bounded, by [`KK_MAX_MEMBERS`].
    pub fn accepts(&self, n: usize) -> bool {
        !matches!(self, LayoutAlgorithm::KamadaKawai { .. }) || n <= KK_MAX_MEMBERS
    }

    /// Computes raw (unfitted) unit-space positions for `sub`.
    /// Deterministic for a given `seed`. An algorithm that does not
    /// [`accept`](Self::accepts) `sub`'s size places nothing: every
    /// position is NaN.
    pub fn run(&self, sub: &Subgraph, seed: u64) -> Vec<(f64, f64)> {
        let n = sub.vertex_count();
        if n == 0 {
            return Vec::new();
        }
        if !self.accepts(n) {
            return vec![(f64::NAN, f64::NAN); n];
        }
        if n == 1 {
            return vec![(0.5, 0.5)];
        }
        match *self {
            LayoutAlgorithm::FruchtermanReingold { iterations } => fr(sub, iterations, seed),
            LayoutAlgorithm::KamadaKawai { iterations } => kk(sub, iterations, seed),
            LayoutAlgorithm::Circular => circular(n),
            LayoutAlgorithm::Shell => shell(sub),
        }
    }
}

fn initial_positions(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect()
}

/// Fruchterman–Reingold in the unit square, with the grid variant of
/// repulsion (see [`Grid::repulse`]).
fn fr(sub: &Subgraph, iterations: usize, seed: u64) -> Vec<(f64, f64)> {
    let n = sub.vertex_count();
    let mut pos = initial_positions(n, seed);
    let area = 1.0;
    let k = (area / n as f64).sqrt();
    let mut temp = 0.25f64;
    let cool = 0.95f64;
    let mut grid = Grid::default();
    let mut disp = vec![(0.0f64, 0.0f64); n];

    for _ in 0..iterations.max(1) {
        disp.fill((0.0, 0.0));
        grid.repulse(&pos, k, &mut disp);
        // Attraction along edges.
        for i in 0..n as u32 {
            for &j in sub.neighbors(i) {
                if j <= i {
                    continue;
                }
                let (i, j) = (i as usize, j as usize);
                let dx = pos[i].0 - pos[j].0;
                let dy = pos[i].1 - pos[j].1;
                let d = (dx * dx + dy * dy).sqrt().max(1e-9);
                let f = d * d / k;
                let (ux, uy) = (dx / d, dy / d);
                disp[i].0 -= ux * f;
                disp[i].1 -= uy * f;
                disp[j].0 += ux * f;
                disp[j].1 += uy * f;
            }
        }
        // Displace, capped by temperature.
        for i in 0..n {
            let (dx, dy) = disp[i];
            let d = (dx * dx + dy * dy).sqrt().max(1e-9);
            let step = d.min(temp);
            pos[i].0 += dx / d * step;
            pos[i].1 += dy / d * step;
        }
        temp *= cool;
    }
    pos
}

/// A cell of the repulsion grid: `floor(x / 2k), floor(y / 2k)`, counted
/// from the lowest occupied cell. The `as u32` casts do not saturate in
/// [`fr`]: its steps are capped by a temperature that sums to 5 over any
/// number of iterations, so positions stay within 5 units of the unit
/// square, about 5.5·√n cells across.
type Cell = (u32, u32);

/// Scratch for FR repulsion, reused across iterations.
#[derive(Default)]
struct Grid {
    /// `(cell, vertex)`, sorted.
    order: Vec<(Cell, u32)>,
    /// Each occupied cell and where its run starts in `order`.
    cells: Vec<(Cell, usize)>,
}

impl Grid {
    /// Adds to `disp` each vertex's repulsion from every vertex closer
    /// than `2k` — Fruchterman and Reingold's grid variant, which drops
    /// the negligible push of far vertices. The pair step is
    /// `(dx, dy)·k²/d²`: FR's `k²/d` along the unit vector, with one
    /// division and no square root.
    ///
    /// Vertices are bucketed into cells of side `2k`, so a repelling
    /// vertex lies in the same cell or one of the eight around it; each
    /// pair is met once, from its cell and the four neighbours after it in
    /// `(x, y)` order. A layout fills about the unit square, about n/4
    /// cells, so a cell holds a handful of vertices and an iteration is
    /// O(n) pairs. When the positions span at most 16 cells (4×4, about 64
    /// members) they are scanned as one cell: most pairs are neighbours
    /// there anyway, and bucketing costs more than the pairs it skips.
    /// Returns the number of occupied cells, at most `pos.len()`.
    fn repulse(&mut self, pos: &[(f64, f64)], k: f64, disp: &mut [(f64, f64)]) -> usize {
        let side = 2.0 * k;
        let (reach2, k2) = (side * side, k * k);
        let mut push = |i: u32, j: u32| {
            let (i, j) = (i as usize, j as usize);
            let dx = pos[i].0 - pos[j].0;
            let dy = pos[i].1 - pos[j].1;
            let d2 = dx * dx + dy * dy;
            if d2 < reach2 {
                let s = k2 / d2.max(1e-9);
                disp[i].0 += dx * s;
                disp[i].1 += dy * s;
                disp[j].0 -= dx * s;
                disp[j].1 -= dy * s;
            }
        };
        let cell = |x: f64| (x / side).floor();
        let (mut lo, mut hi) = ((f64::MAX, f64::MAX), (f64::MIN, f64::MIN));
        for &(x, y) in pos {
            lo = (lo.0.min(x), lo.1.min(y));
            hi = (hi.0.max(x), hi.1.max(y));
        }
        let span = |a: f64, b: f64| cell(b) - cell(a) + 1.0;
        if span(lo.0, hi.0) * span(lo.1, hi.1) <= 16.0 {
            for i in 0..pos.len() as u32 {
                for j in i + 1..pos.len() as u32 {
                    push(i, j);
                }
            }
            return 1;
        }

        debug_assert!(
            span(lo.0, hi.0) <= u32::MAX as f64 && span(lo.1, hi.1) <= u32::MAX as f64,
            "the positions span more cells than a u32 counts"
        );
        self.order.clear();
        let (x0, y0) = (cell(lo.0), cell(lo.1));
        self.order.extend(pos.iter().enumerate().map(|(i, &(x, y))| {
            (((cell(x) - x0) as u32, (cell(y) - y0) as u32), i as u32)
        }));
        self.order.sort_unstable();
        self.cells.clear();
        for (at, &(c, _)) in self.order.iter().enumerate() {
            if self.cells.last().is_none_or(|&(last, _)| last != c) {
                self.cells.push((c, at));
            }
        }
        let (order, cells) = (&self.order, &self.cells);
        let run = |r: usize| &order[cells[r].1..cells.get(r + 1).map_or(order.len(), |&(_, s)| s)];
        // The first cell at or after (x + 1, y − 1); it only moves forward.
        let mut right = 0;
        for (r, &((x, y), _)) in cells.iter().enumerate() {
            let here = run(r);
            for (a, &(_, i)) in here.iter().enumerate() {
                for &(_, j) in &here[a + 1..] {
                    push(i, j);
                }
            }
            let right_lo = (x.saturating_add(1), y.saturating_sub(1));
            let right_hi = (x.saturating_add(1), y.saturating_add(1));
            while right < cells.len() && cells[right].0 < right_lo {
                right += 1;
            }
            let above_cell = (x, y.saturating_add(1));
            let above = cells.get(r + 1).is_some_and(|&(c, _)| c == above_cell).then_some(r + 1);
            let beside = (right..cells.len()).take_while(|&s| cells[s].0 <= right_hi);
            for s in above.into_iter().chain(beside) {
                for &(_, i) in here {
                    for &(_, j) in run(s) {
                        push(i, j);
                    }
                }
            }
        }
        cells.len()
    }
}

/// Kamada–Kawai-style: target distance = BFS hops scaled; gradient descent
/// on the stress function. The gradient at a vertex sums one term per
/// other vertex, so a fixed step grows with the community and diverges on
/// a few hundred members; the step is therefore capped at the inverse of
/// the stress Hessian's diagonal, Σ_j 2/target², which makes it a weighted
/// average of per-pair corrections — bounded by the layout's extent. Small
/// communities never reach the cap and keep the fixed step.
fn kk(sub: &Subgraph, iterations: usize, seed: u64) -> Vec<(f64, f64)> {
    let n = sub.vertex_count();
    // All-pairs BFS distances (community-sized inputs only).
    let mut dist = vec![vec![0usize; n]; n];
    for s in 0..n {
        let mut d = vec![usize::MAX; n];
        let mut q = std::collections::VecDeque::new();
        d[s] = 0;
        q.push_back(s as u32);
        while let Some(u) = q.pop_front() {
            for &v in sub.neighbors(u) {
                if d[v as usize] == usize::MAX {
                    d[v as usize] = d[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        let max_seen = d.iter().filter(|&&x| x != usize::MAX).max().copied().unwrap_or(1);
        for t in 0..n {
            dist[s][t] = if d[t] == usize::MAX { max_seen + 1 } else { d[t] };
        }
    }
    let dmax = dist.iter().flatten().copied().max().unwrap_or(1).max(1) as f64;
    let ideal = |i: usize, j: usize| dist[i][j] as f64 / dmax;

    let mut pos = initial_positions(n, seed);
    let lr: f64 = 0.05;
    for _ in 0..iterations.max(1) {
        for i in 0..n {
            let (mut gx, mut gy, mut diag) = (0.0, 0.0, 0.0);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dx = pos[i].0 - pos[j].0;
                let dy = pos[i].1 - pos[j].1;
                let d = (dx * dx + dy * dy).sqrt().max(1e-9);
                let target = ideal(i, j).max(1e-3);
                // Gradient of (d - target)^2 / target^2 wrt pos[i].
                let coeff = 2.0 * (d - target) / (target * target * d);
                gx += coeff * dx;
                gy += coeff * dy;
                diag += 2.0 / (target * target);
            }
            let step = lr.min(1.0 / diag);
            pos[i].0 -= step * gx;
            pos[i].1 -= step * gy;
        }
    }
    pos
}

fn circular(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            (0.5 + 0.45 * theta.cos(), 0.5 + 0.45 * theta.sin())
        })
        .collect()
}

/// Concentric rings by hop distance from local vertex 0.
fn shell(sub: &Subgraph) -> Vec<(f64, f64)> {
    let n = sub.vertex_count();
    let mut d = vec![usize::MAX; n];
    let mut q = std::collections::VecDeque::new();
    d[0] = 0;
    q.push_back(0u32);
    while let Some(u) = q.pop_front() {
        for &v in sub.neighbors(u) {
            if d[v as usize] == usize::MAX {
                d[v as usize] = d[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    let finite_max = d.iter().filter(|&&x| x != usize::MAX).max().copied().unwrap_or(0);
    for x in d.iter_mut() {
        if *x == usize::MAX {
            *x = finite_max + 1;
        }
    }
    let rings = d.iter().max().copied().unwrap_or(0).max(1);
    // Count members per ring to spread them evenly.
    let mut per_ring = vec![0usize; rings + 1];
    for &r in &d {
        per_ring[r] += 1;
    }
    let mut placed = vec![0usize; rings + 1];
    (0..n)
        .map(|i| {
            let r = d[i];
            if r == 0 {
                return (0.5, 0.5);
            }
            let radius = 0.45 * r as f64 / rings as f64;
            let slot = placed[r];
            placed[r] += 1;
            let theta = 2.0 * std::f64::consts::PI * slot as f64 / per_ring[r] as f64;
            (0.5 + radius * theta.cos(), 0.5 + radius * theta.sin())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::{GraphBuilder, Subgraph, VertexId};

    fn path_subgraph(n: usize) -> Subgraph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for i in 0..(n as u32 - 1) {
            b.add_edge(VertexId(i), VertexId(i + 1));
        }
        let g = b.build();
        let members: Vec<VertexId> = g.vertices().collect();
        Subgraph::induced(&g, &members)
    }

    #[test]
    fn all_algorithms_place_every_vertex_finitely() {
        let sub = path_subgraph(7);
        for algo in [
            LayoutAlgorithm::default_force(),
            LayoutAlgorithm::KamadaKawai { iterations: 30 },
            LayoutAlgorithm::Circular,
            LayoutAlgorithm::Shell,
        ] {
            let pos = algo.run(&sub, 1);
            assert_eq!(pos.len(), 7);
            for (x, y) in pos {
                assert!(x.is_finite() && y.is_finite(), "{algo:?} produced NaN");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let sub = path_subgraph(6);
        let algo = LayoutAlgorithm::default_force();
        assert_eq!(algo.run(&sub, 7), algo.run(&sub, 7));
        assert_ne!(algo.run(&sub, 7), algo.run(&sub, 8));
    }

    #[test]
    fn fr_separates_nonadjacent_vertices() {
        let sub = path_subgraph(5);
        let pos = LayoutAlgorithm::default_force().run(&sub, 3);
        // End vertices of the path should end up farther apart than
        // adjacent ones.
        let d = |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        assert!(d(pos[0], pos[4]) > d(pos[0], pos[1]));
    }

    #[test]
    fn circular_is_evenly_spaced() {
        let pos = LayoutAlgorithm::Circular.run(&path_subgraph(4), 0);
        let center = (0.5, 0.5);
        for (x, y) in &pos {
            let r = ((x - center.0).powi(2) + (y - center.1).powi(2)).sqrt();
            assert!((r - 0.45).abs() < 1e-9);
        }
    }

    #[test]
    fn shell_centers_first_vertex() {
        let pos = LayoutAlgorithm::Shell.run(&path_subgraph(5), 0);
        assert_eq!(pos[0], (0.5, 0.5));
        // Farther path vertices sit on larger rings.
        let r = |p: (f64, f64)| ((p.0 - 0.5f64).powi(2) + (p.1 - 0.5).powi(2)).sqrt();
        assert!(r(pos[4]) > r(pos[1]));
    }

    /// Each vertex's repulsion from every vertex closer than `2k`, summed
    /// over all pairs, with the sum of the terms' magnitudes as its scale.
    fn pairwise_repulsion(pos: &[(f64, f64)], k: f64) -> Vec<((f64, f64), f64)> {
        let mut out = vec![((0.0, 0.0), 0.0); pos.len()];
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
                let d2 = dx * dx + dy * dy;
                if d2 < 4.0 * k * k {
                    let s = k * k / d2.max(1e-9);
                    let size = (dx.abs() + dy.abs()) * s;
                    let ((ix, iy), is) = out[i];
                    let ((jx, jy), js) = out[j];
                    out[i] = ((ix + dx * s, iy + dy * s), is + size);
                    out[j] = ((jx - dx * s, jy - dy * s), js + size);
                }
            }
        }
        out
    }

    #[test]
    fn grid_repulsion_equals_the_pair_sum_within_2k() {
        let mut rng = Rng64::seed_from_u64(0x6121D);
        let mut grid = Grid::default();
        let mut gridded = 0;
        for set in 0..200 {
            let n = 2 + (2998.0 * (set as f64 / 199.0).powi(4)) as usize;
            let k = (1.0 / n as f64).sqrt();
            let spread = [0.05, 1.0, 4.0, 30.0][set % 4];
            let mut pos: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen::<f64>() * spread, rng.gen::<f64>() * spread))
                .collect();
            match set {
                // Every point in one place: no direction to repel along.
                120 => pos.fill((0.25, 0.75)),
                // One point a million units out: the grid stays one cell
                // per occupied bucket, not one per cell of the span.
                121 => pos[n - 1] = (1e6, -1e6),
                _ => {}
            }
            let mut disp = vec![(0.0, 0.0); n];
            let cells = grid.repulse(&pos, k, &mut disp);
            assert!(cells <= n, "set {set}: {cells} cells for {n} points");
            gridded += usize::from(cells > 1);
            for (i, ((x, y), scale)) in pairwise_repulsion(&pos, k).into_iter().enumerate() {
                let tol = 1e-9 * scale;
                assert!(
                    (disp[i].0 - x).abs() <= tol && (disp[i].1 - y).abs() <= tol,
                    "set {set} (n={n}) vertex {i}: grid {:?}, pairs {:?}",
                    disp[i],
                    (x, y)
                );
            }
        }
        assert!(gridded >= 100, "only {gridded} of 200 sets took the grid path");
    }

    #[test]
    fn a_5000_member_community_lays_out_finitely_in_bounds() {
        let n = 5_000u32;
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for i in 0..n {
            b.add_edge(VertexId(i), VertexId((i + 1) % n));
            b.add_edge(VertexId(i), VertexId((i + 37) % n));
        }
        let g = b.build();
        let c = cx_graph::Community::structural(g.vertices().collect());
        let algo = LayoutAlgorithm::default_force();
        let scene = crate::layout_community(&g, &c, algo, Some(VertexId(0)), 960.0, 600.0, 42);
        assert_eq!(scene.vertex_count(), n as usize);
        assert!(scene.vertices.iter().all(|(_, p)| p.x.is_finite() && p.y.is_finite()));
        assert!(scene.in_bounds());
    }

    #[test]
    fn kk_stays_finite_on_a_few_hundred_members() {
        // A ring of 80 K4s (320 vertices), each joined to the next by one
        // edge: connected, with long BFS distances and dense blocks.
        let mut b = GraphBuilder::new();
        for i in 0..320 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for k in 0..80u32 {
            let base = 4 * k;
            for (x, y) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
                b.add_edge(VertexId(base + x), VertexId(base + y));
            }
            b.add_edge(VertexId(base + 3), VertexId((base + 4) % 320));
        }
        let g = b.build();
        let members: Vec<VertexId> = g.vertices().collect();
        let sub = Subgraph::induced(&g, &members);
        let pos = LayoutAlgorithm::KamadaKawai { iterations: 80 }.run(&sub, 7);
        assert_eq!(pos.len(), 320);
        assert!(pos.iter().all(|p| p.0.is_finite() && p.1.is_finite()));
    }

    #[test]
    fn kk_places_nothing_above_its_bound() {
        let kk = LayoutAlgorithm::KamadaKawai { iterations: 1 };
        assert!(kk.accepts(KK_MAX_MEMBERS) && !kk.accepts(KK_MAX_MEMBERS + 1));
        assert!(LayoutAlgorithm::default_force().accepts(usize::MAX));
        let pos = kk.run(&path_subgraph(KK_MAX_MEMBERS + 1), 0);
        assert_eq!(pos.len(), KK_MAX_MEMBERS + 1);
        assert!(pos.iter().all(|p| p.0.is_nan() && p.1.is_nan()));
    }

    #[test]
    fn singleton_and_empty() {
        let mut b = GraphBuilder::new();
        b.add_vertex("only", &[]);
        let g = b.build();
        let sub = Subgraph::induced(&g, &[VertexId(0)]);
        assert_eq!(LayoutAlgorithm::default_force().run(&sub, 0), vec![(0.5, 0.5)]);
        let empty = Subgraph::induced(&g, &[]);
        assert!(LayoutAlgorithm::Circular.run(&empty, 0).is_empty());
    }
}
