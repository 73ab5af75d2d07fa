//! End-to-end tests for the `cx` command-line binary: spawn the real
//! executable and check its output, exactly as a user would drive it.

use std::path::PathBuf;
use std::process::Command;

/// Path to the compiled `cx` binary inside the cargo target dir.
fn cx_bin() -> PathBuf {
    // Integration tests live in target/debug/deps; the binary sits one up.
    let mut p = std::env::current_exe().expect("test executable path");
    p.pop();
    if p.ends_with("deps") {
        p.pop();
    }
    p.join(format!("cx{}", std::env::consts::EXE_SUFFIX))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(cx_bin()).args(args).output().expect("spawn cx");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn search_paper_example() {
    let (ok, stdout, stderr) = run(&["search", "fig5", "A", "--k", "2"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("1 community"), "{stdout}");
    assert!(stdout.contains("A, C, D"), "{stdout}");
    assert!(stdout.contains("theme: x, y"), "{stdout}");
}

#[test]
fn stats_reports_core_histogram() {
    let (ok, stdout, _) = run(&["stats", "fig5"]);
    assert!(ok);
    assert!(stdout.contains("|V|=10"));
    assert!(stdout.contains("degeneracy (max core): 3"));
    assert!(stdout.contains("core 3: 4 vertices"));
}

#[test]
fn compare_prints_the_table() {
    let (ok, stdout, _) = run(&["compare", "fig5", "A", "--k", "2", "--algos", "global,acq"]);
    assert!(ok);
    assert!(stdout.contains("Method"));
    assert!(stdout.contains("global"));
    assert!(stdout.contains("CPJ"));
}

#[test]
fn generate_save_roundtrip() {
    let dir = std::env::temp_dir().join("cx_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin_path = dir.join("tiny.bin");
    let (ok, stdout, stderr) =
        run(&["generate", bin_path.to_str().unwrap(), "--authors", "300", "--seed", "5"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("|V|=300"), "{stdout}");
    // Query the generated snapshot.
    let (ok, stdout, _) = run(&["stats", bin_path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("|V|=300"));
    // Persist a deployment directory: a durable store holding the graph
    // as a checkpoint with its CL-tree index beside it.
    let deploy = dir.join("deploy");
    let (ok, _, stderr) = run(&["save", bin_path.to_str().unwrap(), deploy.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(deploy.join("MANIFEST").exists());
    let mut files: Vec<String> = std::fs::read_dir(deploy.join("snapshots"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    // hex("main") = 6d61696e, generation 1.
    assert_eq!(files, ["6d61696e-1.cxi", "6d61696e-1.cxs"]);
    // Loading refuses a path that is not a deployment directory.
    let (ok, _, stderr) = run(&["load", dir.join("nowhere").to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not a directory"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (ok, _, stderr) = run(&["search", "fig5", "NOBODY"]);
    assert!(!ok);
    assert!(stderr.contains("NOBODY"), "{stderr}");
    // An unknown experiment id is refused before anything runs.
    let (ok, stdout, stderr) = run(&["experiments", "E2", "E99"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("\"E99\"") && stderr.contains("usage:"), "{stderr}");
    let (ok, _, _) = run(&[]);
    assert!(!ok);
}
