//! Breadth-first traversal, connectivity and distance helpers.

use std::collections::VecDeque;

use crate::graph::{AttributedGraph, VertexId};

/// BFS from `start`, visiting every vertex in its connected component.
/// Returns visited vertices in BFS order.
pub fn bfs(g: &AttributedGraph, start: VertexId) -> Vec<VertexId> {
    bfs_filtered(g, start, |_| true)
}

/// BFS restricted to vertices accepted by `keep` (the start must be
/// accepted too, otherwise the result is empty).
pub fn bfs_filtered<F: Fn(VertexId) -> bool>(
    g: &AttributedGraph,
    start: VertexId,
    keep: F,
) -> Vec<VertexId> {
    if !g.contains(start) || !keep(start) {
        return Vec::new();
    }
    let mut seen = vec![false; g.vertex_count()];
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    seen[start.index()] = true;
    q.push_back(start);
    while let Some(u) = q.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if !seen[v.index()] && keep(v) {
                seen[v.index()] = true;
                q.push_back(v);
            }
        }
    }
    order
}

/// Single-source shortest-path (hop) distances; `usize::MAX` marks
/// unreachable vertices.
pub fn bfs_distances(g: &AttributedGraph, start: VertexId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.vertex_count()];
    if !g.contains(start) {
        return dist;
    }
    dist[start.index()] = 0;
    let mut q = VecDeque::new();
    q.push_back(start);
    while let Some(u) = q.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Labels every vertex with a component id in `0..component_count`.
#[derive(Debug, Clone)]
pub struct ConnectedComponents {
    /// Component id per vertex.
    pub component: Vec<usize>,
    /// Number of components.
    pub count: usize,
}

impl ConnectedComponents {
    /// Computes connected components of the whole graph.
    pub fn compute(g: &AttributedGraph) -> Self {
        let n = g.vertex_count();
        let mut component = vec![usize::MAX; n];
        let mut count = 0;
        for s in g.vertices() {
            if component[s.index()] != usize::MAX {
                continue;
            }
            let mut q = VecDeque::new();
            component[s.index()] = count;
            q.push_back(s);
            while let Some(u) = q.pop_front() {
                for &v in g.neighbors(u) {
                    if component[v.index()] == usize::MAX {
                        component[v.index()] = count;
                        q.push_back(v);
                    }
                }
            }
            count += 1;
        }
        Self { component, count }
    }

    /// Whether two vertices lie in the same component.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.component[u.index()] == self.component[v.index()]
    }

    /// The members of each component, sorted within each component.
    pub fn groups(&self) -> Vec<Vec<VertexId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (i, &c) in self.component.iter().enumerate() {
            groups[c].push(VertexId(i as u32));
        }
        groups
    }
}

/// True if `g` is connected (the empty graph counts as connected).
pub fn is_connected(g: &AttributedGraph) -> bool {
    if g.vertex_count() == 0 {
        return true;
    }
    bfs(g, VertexId(0)).len() == g.vertex_count()
}

/// Eccentricity-based diameter of the subgraph induced by `members`
/// (exact, runs one BFS per member — intended for community-sized inputs).
/// Returns `None` if the induced subgraph is empty or disconnected.
///
/// Works on a member-local copy of the induced adjacency, so time is
/// O(|C| · (|C| + m_C)) after one pass over the members' neighbour lists
/// and nothing is allocated in proportion to the graph.
pub fn induced_diameter(g: &AttributedGraph, members: &[VertexId]) -> Option<usize> {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let c = sorted.len();
    if c == 0 {
        return None;
    }
    // Member-local CSR: vertex `sorted[i]` is `i`. Both lists are sorted,
    // so probe the longer with the shorter.
    let mut off = Vec::with_capacity(c + 1);
    let mut adj: Vec<u32> = Vec::new();
    off.push(0);
    for &u in &sorted {
        let nbrs = g.neighbors(u);
        if nbrs.len() <= c {
            adj.extend(nbrs.iter().filter_map(|v| sorted.binary_search(v).ok().map(|j| j as u32)));
        } else {
            adj.extend(
                (0..c as u32).filter(|&j| nbrs.binary_search(&sorted[j as usize]).is_ok()),
            );
        }
        off.push(adj.len());
    }
    let mut diameter = 0;
    let mut dist = vec![u32::MAX; c];
    let mut queue: Vec<u32> = Vec::with_capacity(c);
    for s in 0..c as u32 {
        dist.fill(u32::MAX);
        queue.clear();
        dist[s as usize] = 0;
        queue.push(s);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in &adj[off[u as usize]..off[u as usize + 1]] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push(v);
                }
            }
        }
        if queue.len() != c {
            return None; // disconnected
        }
        // BFS order is distance order: the last vertex reached is farthest.
        diameter = diameter.max(dist[queue[c - 1] as usize] as usize);
    }
    Some(diameter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Path 0-1-2 plus isolated pair 3-4 and singleton 5.
    fn two_components() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(3), v(4));
        b.build()
    }

    #[test]
    fn bfs_covers_component_only() {
        let g = two_components();
        let order = bfs(&g, v(0));
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], v(0));
        assert!(order.contains(&v(2)));
        assert!(!order.contains(&v(3)));
    }

    #[test]
    fn bfs_filtered_respects_predicate() {
        let g = two_components();
        // Exclude the middle of the path: only the start survives.
        let order = bfs_filtered(&g, v(0), |u| u != v(1));
        assert_eq!(order, vec![v(0)]);
        // Excluded start yields nothing.
        assert!(bfs_filtered(&g, v(0), |u| u != v(0)).is_empty());
    }

    #[test]
    fn bfs_distances_unreachable_is_max() {
        let g = two_components();
        let d = bfs_distances(&g, v(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], usize::MAX);
        assert_eq!(d[5], usize::MAX);
    }

    #[test]
    fn components_counts_and_groups() {
        let g = two_components();
        let cc = ConnectedComponents::compute(&g);
        assert_eq!(cc.count, 3);
        assert!(cc.connected(v(0), v(2)));
        assert!(!cc.connected(v(0), v(3)));
        let groups = cc.groups();
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 6);
        assert!(groups.iter().any(|c| c == &vec![v(5)]));
    }

    #[test]
    fn is_connected_detects() {
        let g = two_components();
        assert!(!is_connected(&g));
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a", &[]);
        let c = b.add_vertex("b", &[]);
        b.add_edge(a, c);
        assert!(is_connected(&b.build()));
        assert!(is_connected(&GraphBuilder::new().build()));
    }

    #[test]
    fn induced_diameter_on_path_and_disconnected() {
        let g = two_components();
        assert_eq!(induced_diameter(&g, &[v(0), v(1), v(2)]), Some(2));
        assert_eq!(induced_diameter(&g, &[v(0), v(2)]), None, "induced pair is disconnected");
        assert_eq!(induced_diameter(&g, &[]), None);
        assert_eq!(induced_diameter(&g, &[v(5)]), Some(0));
    }
}
