//! Experiment E5 — the Figures 1–2 interactive flow, end to end through
//! the engine: search → view → profile popup → explore a member → save
//! as SVG, plus the multi-vertex "+" button.

use c_explorer::prelude::*;
use cx_explorer::Profile;

fn demo_engine(n: usize) -> Engine {
    let (graph, areas) = dblp_like(&DblpParams::scaled(n, 42));
    let profiles = cx_datagen::generate_profiles(&graph, &areas, 3);
    let records: Vec<(VertexId, Profile)> = profiles
        .into_iter()
        .map(|p| {
            (
                p.vertex,
                Profile {
                    name: p.name,
                    areas: p.areas,
                    institutes: p.institutes,
                    interests: p.interests,
                },
            )
        })
        .collect();
    let engine = Engine::with_graph("dblp", graph);
    engine.set_profiles(None, records).unwrap();
    engine
}

#[test]
fn search_view_profile_explore_loop() {
    let engine = demo_engine(3000);
    let snap = engine.snapshot(None).unwrap();
    let g = &*snap.graph;
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    let hub_label = g.label(hub).to_owned();

    // Search (Figure 1).
    let communities = engine.search("acq", &QuerySpec::by_label(hub_label).k(4)).unwrap();
    assert!(!communities.is_empty(), "hub must have a community");
    let first = &communities[0];
    assert!(first.contains(hub));
    assert!(!first.theme(g).is_empty(), "ACQ communities carry a theme");

    // Display: layout in bounds, query vertex highlighted.
    let scene = engine
        .display(None, first, LayoutAlgorithm::default_force(), Some(hub))
        .unwrap();
    assert_eq!(scene.vertex_count(), first.len());
    assert!(scene.in_bounds());
    let hi = scene.highlight.expect("query vertex highlighted");
    assert_eq!(scene.vertices[hi].0, hub);
    // Save-as-SVG path works.
    assert!(scene.to_svg().starts_with("<svg"));

    // The hub is a top-degree author, so it has a profile (Figure 2).
    let profile = engine.profile(None, hub).unwrap().expect("hub is renowned");
    assert!(!profile.interests.is_empty());

    // Explore a member's community.
    let member = *first.vertices().iter().find(|&&v| v != hub).unwrap();
    let member_label = g.label(member).to_owned();
    let second = engine.search("acq", &QuerySpec::by_label(member_label).k(4)).unwrap();
    assert!(!second.is_empty(), "member should have a k=4 community too");
    assert!(second[0].contains(member));
}

#[test]
fn multi_vertex_plus_button() {
    let engine = demo_engine(2000);
    let snap = engine.snapshot(None).unwrap();
    let g = &*snap.graph;
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    // Jointly query the hub and its strongest neighbour.
    let buddy = *g
        .neighbors(hub)
        .iter()
        .max_by_key(|&&v| g.degree(v))
        .expect("hub has neighbours");
    let spec = QuerySpec::by_labels([g.label(hub), g.label(buddy)]).k(3);
    let joint = engine.search("acq", &spec).unwrap();
    if let Some(c) = joint.first() {
        assert!(c.contains(hub));
        assert!(c.contains(buddy));
        assert!(c.min_internal_degree(g) >= 3);
    }
    // Single-vertex answers contain the joint one's members count-wise.
    let single = engine.search("acq", &QuerySpec::by_label(g.label(hub)).k(3)).unwrap();
    assert!(!single.is_empty());
}

#[test]
fn suggestion_box_finds_authors() {
    let engine = demo_engine(1000);
    let hits = engine.suggest(None, "author-1", 5).unwrap();
    assert!(!hits.is_empty());
    assert!(hits.len() <= 5);
    assert!(hits[0].1.contains("author-1"));
    // Exact match ranks first.
    let exact = engine.suggest(None, "author-42", 5).unwrap();
    assert_eq!(exact[0].1, "author-42");
}

/// Every registered name answers the hub's query: a name in the picker
/// that finds nothing on a served graph is a dead input.
#[test]
fn switching_algorithms_on_same_query() {
    let engine = demo_engine(2000);
    let snap = engine.snapshot(None).unwrap();
    let g = &*snap.graph;
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    let spec = QuerySpec::by_label(g.label(hub)).k(4);
    let names: Vec<&str> = engine.cs_names().into_iter().chain(engine.cd_names()).collect();
    for algo in names {
        let out = engine.search(algo, &spec).unwrap();
        assert!(!out.is_empty(), "{algo} finds no community of the hub");
        for c in &out {
            assert!(c.contains(hub), "{algo} community must contain the query vertex");
        }
    }
}
