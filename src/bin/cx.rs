//! `cx` — the C-Explorer command-line interface.
//!
//! Everything the browser UI does, scriptable from a terminal:
//!
//! ```text
//! cx generate <out.bin> [--authors N] [--seed S]    synthesise a DBLP-like graph
//! cx stats <graph>                                  print graph statistics
//! cx search <graph> <name> [--k K] [--algo A] [--keywords a,b] [--svg out.svg]
//! cx compare <graph> <name> [--k K] [--algos a,b,c] Figure 6(a) table + quality bars
//! cx detect <graph> [--algo codicil]                community detection summary
//! cx serve <graph> [--port P]                       launch the web UI
//! cx save <graph> <dir>                             write <graph> into the durable store at <dir>
//! cx load <dir> [--port P]                          serve the durable store at <dir>
//! cx experiments [E2 E7 …]                          regenerate EXPERIMENTS.md's tables
//! ```
//!
//! `<graph>` is a `.bin` snapshot, a text-format graph file, or one of
//! the literals `demo` (the generated 8k-author DBLP-like graph),
//! `paper` (the committed 1M-author paper-scale configuration), or
//! `fig5` (the paper's example). Generated datasets honour `--scale N`
//! to override the author count, e.g. `cx stats paper --scale 100000`.

use std::collections::HashMap;
use std::process::ExitCode;

use c_explorer::experiments::ALL;
use c_explorer::prelude::*;
use cx_graph::AttributedGraph;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cx generate <out.bin> [--authors N] [--seed S] [--paper]
  cx stats <graph>
  cx search <graph> <name> [--k K] [--algo A] [--keywords a,b] [--svg out.svg]
  cx compare <graph> <name> [--k K] [--algos a,b,c]
  cx detect <graph> [--algo codicil]
  cx serve <graph> [--port P]
  cx save <graph> <dir>
  cx load <dir> [--port P]
  cx experiments [E2 E3 E6 … E15]
  (<graph> may be a file path, 'demo', 'paper', or 'fig5';
   generated datasets accept --scale N to override the author count)";

/// Splits positional arguments from `--flag value` options.
fn parse(args: &[String]) -> (Vec<&str>, HashMap<&str, &str>) {
    let mut pos = Vec::new();
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                opts.insert(name, args[i + 1].as_str());
                i += 2;
            } else {
                opts.insert(name, "");
                i += 1;
            }
        } else {
            pos.push(args[i].as_str());
            i += 1;
        }
    }
    (pos, opts)
}

fn load_graph(spec: &str, opts: &HashMap<&str, &str>) -> Result<AttributedGraph, String> {
    let scale: Option<usize> = match opts.get("scale") {
        Some(s) => Some(s.parse().map_err(|_| "--scale must be an integer".to_owned())?),
        None => None,
    };
    match spec {
        "demo" => Ok(dblp_like(&DblpParams::scaled(scale.unwrap_or(8_000), 42)).0),
        "paper" => {
            let mut p = DblpParams::paper_scale(42);
            if let Some(n) = scale {
                p.authors = n;
            }
            Ok(dblp_like(&p).0)
        }
        "fig5" => Ok(cx_datagen::figure5_graph()),
        _ if scale.is_some() => {
            Err("--scale only applies to the generated 'demo'/'paper' datasets".to_owned())
        }
        path if path.ends_with(".bin") => {
            cx_graph::io::load_snapshot_file(path).map_err(|e| e.to_string())
        }
        path => cx_graph::io::load_text_file(path).map_err(|e| e.to_string()),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse(args);
    let cmd = pos.first().copied().ok_or("missing command")?;
    match cmd {
        "generate" => {
            let out = pos.get(1).copied().ok_or("generate needs an output path")?;
            let authors: usize = opts.get("authors").map_or(Ok(8_000), |s| {
                s.parse().map_err(|_| "--authors must be an integer".to_owned())
            })?;
            let seed: u64 = opts.get("seed").map_or(Ok(42), |s| {
                s.parse().map_err(|_| "--seed must be an integer".to_owned())
            })?;
            let params = if opts.contains_key("paper") {
                let mut p = DblpParams::paper_scale(seed);
                if opts.contains_key("authors") {
                    p.authors = authors;
                }
                p
            } else {
                DblpParams::scaled(authors, seed)
            };
            let (g, _) = dblp_like(&params);
            if out.ends_with(".bin") {
                cx_graph::io::save_snapshot_file(&g, out).map_err(|e| e.to_string())?;
            } else {
                cx_graph::io::save_text_file(&g, out).map_err(|e| e.to_string())?;
            }
            println!("wrote {out}: {}", cx_graph::GraphStats::compute(&g));
            Ok(())
        }
        "stats" => {
            let g = load_graph(pos.get(1).copied().ok_or("stats needs a graph")?, &opts)?;
            println!("{}", cx_graph::GraphStats::compute(&g));
            let cd = CoreDecomposition::compute(&g);
            println!("degeneracy (max core): {}", cd.max_core());
            let hist = cd.histogram();
            for (k, count) in hist.iter().enumerate() {
                if *count > 0 {
                    println!("  core {k}: {count} vertices");
                }
            }
            Ok(())
        }
        "search" => {
            let g = load_graph(pos.get(1).copied().ok_or("search needs a graph")?, &opts)?;
            let name = pos.get(2).copied().ok_or("search needs a vertex name")?;
            let k: u32 = opts.get("k").map_or(Ok(4), |s| {
                s.parse().map_err(|_| "--k must be an integer".to_owned())
            })?;
            let algo = opts.get("algo").copied().unwrap_or("acq");
            let engine = Engine::with_graph("g", g);
            let mut spec = QuerySpec::by_label(name).k(k);
            if let Some(kws) = opts.get("keywords") {
                spec = spec.with_keywords(kws.split(','));
            }
            let communities = engine.search(algo, &spec).map_err(|e| e.to_string())?;
            let snap = engine.snapshot(None).unwrap();
            let g = &*snap.graph;
            let q = spec.resolve(g).map_err(|e| e.to_string())?[0];
            println!(
                "{} communit{} for {} via {algo} (k={k}):",
                communities.len(),
                if communities.len() == 1 { "y" } else { "ies" },
                g.label(q)
            );
            for (i, c) in communities.iter().enumerate() {
                let theme = c.theme(g);
                println!(
                    "  #{} — {} members, {} edges, min degree {}, theme: {}",
                    i + 1,
                    c.len(),
                    c.internal_edge_count(g),
                    c.min_internal_degree(g),
                    if theme.is_empty() { "(none)".to_owned() } else { theme.join(", ") }
                );
                let labels = c.labels(g);
                let shown = labels.iter().take(12).cloned().collect::<Vec<_>>().join(", ");
                let more = if labels.len() > 12 {
                    format!(" … (+{})", labels.len() - 12)
                } else {
                    String::new()
                };
                println!("      {shown}{more}");
            }
            if let Some(svg_path) = opts.get("svg") {
                if let Some(c) = communities.first() {
                    let scene = engine
                        .display(None, c, LayoutAlgorithm::default_force(), Some(q))
                        .map_err(|e| e.to_string())?
                        .titled(format!("Method: {algo} (k={k})"));
                    std::fs::write(svg_path, scene.to_svg()).map_err(|e| e.to_string())?;
                    println!("first community rendered to {svg_path}");
                }
            }
            Ok(())
        }
        "compare" => {
            let g = load_graph(pos.get(1).copied().ok_or("compare needs a graph")?, &opts)?;
            let name = pos.get(2).copied().ok_or("compare needs a vertex name")?;
            let k: u32 = opts.get("k").map_or(Ok(4), |s| {
                s.parse().map_err(|_| "--k must be an integer".to_owned())
            })?;
            let algos_csv = opts.get("algos").copied().unwrap_or("global,local,codicil,acq");
            let algos: Vec<&str> = algos_csv.split(',').filter(|s| !s.is_empty()).collect();
            let engine = Engine::with_graph("g", g);
            let spec = QuerySpec::by_label(name).k(k);
            let report = engine.compare(None, &algos, &spec).map_err(|e| e.to_string())?;
            println!("{}", report.table());
            println!("{}", report.quality_charts());
            Ok(())
        }
        "detect" => {
            let g = load_graph(pos.get(1).copied().ok_or("detect needs a graph")?, &opts)?;
            let algo = opts.get("algo").copied().unwrap_or("codicil");
            let engine = Engine::with_graph("g", g);
            let communities = engine.detect(algo).map_err(|e| e.to_string())?;
            let snap = engine.snapshot(None).unwrap();
            let g = &*snap.graph;
            println!("{algo}: {} communities", communities.len());
            for (i, c) in communities.iter().take(15).enumerate() {
                println!(
                    "  #{:<3} {:>6} members  {:>7} edges  avg degree {:.1}",
                    i + 1,
                    c.len(),
                    c.internal_edge_count(g),
                    c.average_internal_degree(g)
                );
            }
            if communities.len() > 15 {
                println!("  … (+{} more)", communities.len() - 15);
            }
            Ok(())
        }
        "serve" => {
            let g = load_graph(pos.get(1).copied().ok_or("serve needs a graph")?, &opts)?;
            let port: u16 = opts.get("port").map_or(Ok(7171), |s| {
                s.parse().map_err(|_| "--port must be a port number".to_owned())
            })?;
            // With CX_STORE_DIR set, the engine is durable: previously
            // logged graphs are recovered, and every write (uploads,
            // edits) survives a crash of this process.
            let engine = match std::env::var("CX_STORE_DIR") {
                Ok(dir) if !dir.is_empty() => {
                    let e = Engine::open_durable(std::path::Path::new(&dir))
                        .map_err(|e| e.to_string())?;
                    println!(
                        "durable store at {dir}: recovered graphs {:?}",
                        e.graph_names()
                    );
                    // Seed "main" from the CLI graph only on first boot;
                    // a recovered "main" already carries every logged
                    // edit and must not be clobbered by the file copy.
                    if !e.graph_names().iter().any(|n| n == "main") {
                        e.try_add_graph("main", g).map_err(|e| e.to_string())?;
                    }
                    e
                }
                _ => Engine::with_graph("main", g),
            };
            let server = cx_server::Server::new(engine);
            let addr = format!("127.0.0.1:{port}");
            println!("serving C-Explorer on http://{addr}/");
            server.serve(&addr).map_err(|e| e.to_string())
        }
        "save" => {
            let g = load_graph(pos.get(1).copied().ok_or("save needs a graph")?, &opts)?;
            let dir = pos.get(2).copied().ok_or("save needs a target directory")?;
            // A deployment directory is a durable store: the graph goes in
            // through the WAL and is folded at once into a checkpoint with
            // its CL-tree index beside it, which `cx load` boots from.
            let engine =
                Engine::open_durable(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            engine.try_add_graph("main", g).map_err(|e| e.to_string())?;
            engine.compact_store().map_err(|e| e.to_string())?;
            println!("persisted graph + CL-tree index into {dir}");
            Ok(())
        }
        "load" => {
            let dir = pos.get(1).copied().ok_or("load needs a directory")?;
            let port: u16 = opts.get("port").map_or(Ok(7171), |s| {
                s.parse().map_err(|_| "--port must be a port number".to_owned())
            })?;
            // Opening creates what is missing; a mistyped path should not.
            if !std::path::Path::new(dir).is_dir() {
                return Err(format!("{dir} is not a directory (`cx save <graph> {dir}` makes one)"));
            }
            let engine =
                Engine::open_durable(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            println!(
                "loaded graphs: {:?} (default {:?})",
                engine.graph_names(),
                engine.default_graph_name()
            );
            let server = cx_server::Server::new(engine);
            let addr = format!("127.0.0.1:{port}");
            println!("serving C-Explorer on http://{addr}/");
            server.serve(&addr).map_err(|e| e.to_string())
        }
        "experiments" => {
            if !opts.is_empty() {
                return Err("experiments takes no options".to_owned());
            }
            if let Some(id) = pos[1..].iter().find(|id| !ALL.iter().any(|e| e.0 == **id)) {
                return Err(format!("unknown experiment {id:?}"));
            }
            let chosen: Vec<_> =
                ALL.iter().filter(|e| pos.len() == 1 || pos[1..].contains(&e.0)).collect();
            let (mut held, mut total) = (0, 0);
            for (_, size, run) in &chosen {
                let table = run(*size);
                println!("{}", table.markdown());
                held += table.checks.iter().filter(|&&(_, ok)| ok).count();
                total += table.checks.len();
            }
            println!("**{held} of {total} checks hold across {} experiments.**", chosen.len());
            if held < total {
                std::process::exit(1);
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
