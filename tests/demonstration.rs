//! The paper's Section 4 "Demonstration" walkthrough as one executable
//! narrative: set up the dataset, explore a renowned author's communities,
//! run the comparison analysis, and exercise every facility the demo
//! advertises — on the full stack, through the public API only.

use c_explorer::prelude::*;
use cx_explorer::Profile;

/// Builds the demo deployment in memory.
fn demo_deployment() -> (Engine, VertexId) {
    deploy_into(Engine::new())
}

/// Loads the demo deployment into `engine`: DBLP-like graph + profiles,
/// like `examples/serve.rs` does.
fn deploy_into(engine: Engine) -> (Engine, VertexId) {
    let (graph, areas) = dblp_like(&DblpParams::scaled(3_000, 42));
    let hub = graph.vertices().max_by_key(|&v| graph.degree(v)).unwrap();
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
    engine.add_graph("dblp", graph);
    engine.set_profiles(None, records).unwrap();
    engine.add_graph("figure5", cx_datagen::figure5_graph());
    (engine, hub)
}

/// §4 "Community exploration": name → degree constraint → keywords →
/// Search → instant themed communities → zoomable layout → saveable SVG.
#[test]
fn demonstration_community_exploration() {
    let (engine, hub) = demo_deployment();
    let snap = engine.snapshot(None).unwrap();
    let g = &*snap.graph;
    let name = g.label(hub).to_owned();

    // "the system will display the structure constraints … and a set of
    // keywords of this author" — the keyword chips come from W(q).
    assert_eq!(g.keywords(hub).len(), 20, "20 title keywords per author");

    // "the communities will be returned instantly"
    let start = std::time::Instant::now();
    let communities = engine.search("acq", &QuerySpec::by_label(&name).k(4)).unwrap();
    assert!(start.elapsed().as_millis() < 200, "not 'instant': {:?}", start.elapsed());
    assert!(!communities.is_empty());

    // "Communities: 1 2 3 …" — the tabs; every tab has a theme.
    for c in &communities {
        assert!(c.contains(hub));
        assert!(!c.theme(g).is_empty(), "ACQ community without a theme");
        assert!(c.min_internal_degree(g) >= 4);
    }

    // "users can zoom … save the community into a .jpg file or print it"
    let scene = engine
        .display(None, &communities[0], LayoutAlgorithm::default_force(), Some(hub))
        .unwrap();
    assert!(scene.in_bounds());
    assert!(scene.to_svg().contains("<circle"));

    // Figure 2: "the profile of the author is shown" (hub is renowned).
    let profile = engine.profile(None, hub).unwrap().expect("hub has a profile");
    assert!(!profile.institutes.is_empty());

    // "users can continue to explore Michael's communities".
    let member = *communities[0].vertices().iter().find(|&&v| v != hub).unwrap();
    let member_name = g.label(member).to_owned();
    let second = engine.search("acq", &QuerySpec::by_label(member_name).k(4)).unwrap();
    assert!(second.iter().all(|c| c.contains(member)));
}

/// §4 "Comparison analysis": select algorithms → Compare → CPJ/CMF bars
/// + statistics table + "view" links (result sets) + similarity analysis.
#[test]
fn demonstration_comparison_analysis() {
    let (engine, hub) = demo_deployment();
    let name = engine.snapshot(None).unwrap().label(hub).to_owned();
    let spec = QuerySpec::by_label(name).k(4);
    let report = engine
        .compare(None, &["global", "local", "codicil", "acq"], &spec)
        .unwrap();

    // The statistics table has all four rows with live numbers.
    assert_eq!(report.rows.len(), 4);
    let table = report.table();
    for m in ["global", "local", "codicil", "acq"] {
        assert!(table.contains(m));
    }
    // The bar charts render.
    assert!(report.quality_charts().contains("CPJ"));
    // "the user can click the 'view' links … to visualize" — result sets
    // are attached to the rows.
    for row in &report.rows {
        for c in &row.results {
            let scene = engine
                .display(None, c, LayoutAlgorithm::Circular, Some(hub))
                .unwrap();
            assert_eq!(scene.vertex_count(), c.len());
        }
    }
    // "communities generated by different solutions can be viewed
    // simultaneously" — similarity analysis quantifies their overlap.
    assert_eq!(report.similarity.len(), 4);
    assert!(report.similarity[0][0] == 1.0);
}

/// The facilities beyond the scripted demo: multi-graph switching,
/// evolving edits, and persistence — all on one engine.
#[test]
fn demonstration_full_facilities() {
    // This deployment lives in a durable store, so the last step can
    // restart it.
    let dir = std::env::temp_dir().join(format!("cx_demo_persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (engine, hub) = deploy_into(Engine::open_durable(&dir).unwrap());

    // Graph selector: switch to the paper's example graph and back.
    assert_eq!(engine.graph_names(), vec!["dblp", "figure5"]);
    let fig5 = engine
        .search_on(Some("figure5"), "acq", &QuerySpec::by_label("A").k(2))
        .unwrap();
    assert_eq!(fig5[0].len(), 3);

    // Evolving network: delete one of the hub's edges and re-query.
    let name = engine.snapshot(None).unwrap().label(hub).to_owned();
    let buddy = engine.snapshot(None).unwrap().neighbors(hub)[0];
    engine.apply_edits(None, &[], &[(hub, buddy)]).unwrap();
    let after = engine.search("acq", &QuerySpec::by_label(&name).k(4)).unwrap();
    for c in &after {
        assert!(c.min_internal_degree(&engine.snapshot(None).unwrap().graph) >= 4);
    }

    // Persistence: fold the store into checkpoints (graph, profiles, and
    // the CL-tree index beside them), restart from the directory alone,
    // same answers.
    engine.compact_store().unwrap();
    let profile = engine.profile(None, hub).unwrap();
    drop(engine);
    let restored = Engine::open_durable(&dir).unwrap();
    assert_eq!(restored.graph_names(), vec!["dblp", "figure5"]);
    let again = restored.search("acq", &QuerySpec::by_label(&name).k(4)).unwrap();
    assert_eq!(after, again);
    // Profiles are part of what a restart brings back.
    assert_eq!(restored.profile(None, hub).unwrap(), profile);
    let _ = std::fs::remove_dir_all(&dir);
}
