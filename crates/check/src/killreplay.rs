//! The kill-replay oracle: crash the durable store at arbitrary byte
//! offsets and require recovery to land on an exact committed state.
//!
//! The contract under test (see `cx-store`): the WAL is the source of
//! truth, appended *before* every publish, so whatever prefix of the log
//! survives a crash must reconstruct a graph state that is byte-identical
//! — same [`graph_fingerprint`], same [`tree_canonical`] — to the state
//! the uncrashed engine published at that generation. A torn tail may
//! lose the *newest* generations (they were never acknowledged as
//! durable) but can never invent a state, corrupt an older one, or make
//! recovery panic.
//!
//! Procedure: one reference run (durable engine, seeded graph, seeded
//! edit script) records the fingerprints of every published generation.
//! It compacts twice on the way, so it leaves two stores to crash: the
//! log alone as it stood before the first compaction (recovery replays
//! the `AddGraph` frame), and the final directory — a checkpoint with its
//! CL-tree index sidecar, plus the log of the edits after it. Crash cases
//! cycle through four kinds of damage, each on a clone:
//!
//! * the WAL cut at a seeded byte offset;
//! * one seeded bit of the WAL flipped;
//! * the index sidecar gone, cut short, one bit flipped, or swapped for
//!   the (whole, valid) sidecar of the earlier checkpoint — with the WAL
//!   torn inside its first frame, so that recovery lands exactly on the
//!   checkpoint and the sidecar alone decides between loading the index
//!   and rebuilding it;
//! * a crashed compaction: a seeded prefix of the checkpoint the next
//!   compaction would write (same name, same generation) left in
//!   `snapshots/` beside the whole WAL, then a reboot and a compaction —
//!   which must write that checkpoint whole, not commit the torn one.
//!
//! The verdict is the same for all of them: the engine reopens, and the
//! recovered generation is one the reference run committed, with its
//! graph fingerprint and its CL-tree canonical form. The sidecar is
//! derived data outside the durability contract; damage to it must never
//! cost more than a rebuild.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cx_explorer::Engine;
use cx_par::rng::Rng64;

use crate::canonical::{graph_fingerprint, tree_canonical};
use crate::workload::{check_params, edit_script};

/// Parameters for one kill-replay sweep.
#[derive(Debug, Clone)]
pub struct KillReplayParams {
    /// Crash cases to run (see [`CASES_PER_CYCLE`] for the mix).
    pub cases: usize,
    /// Author count of the seeded DBLP-like graph.
    pub authors: usize,
    /// Edit-script length applied during the reference run.
    pub steps: usize,
    /// Master seed (graph, script and crash offsets all derive from it).
    pub seed: u64,
}

impl Default for KillReplayParams {
    fn default() -> Self {
        Self { cases: 50, authors: 150, steps: 25, seed: 7 }
    }
}

/// Outcome of a sweep. `failures` holds one reproducer string per
/// violated case; empty means the oracle passed.
#[derive(Debug, Default)]
pub struct KillReplayReport {
    /// Crash cases executed.
    pub cases: usize,
    /// Cases that cut the WAL.
    pub truncations: usize,
    /// Cases that flipped a single bit of the WAL.
    pub bitflips: usize,
    /// Cases that damaged the index sidecar: missing, cut short,
    /// bit-flipped, foreign.
    pub sidecar_cases: [usize; 4],
    /// Cases that left a torn checkpoint for the next compaction.
    pub torn_checkpoints: usize,
    /// Reproducer strings for every violation found.
    pub failures: Vec<String>,
    /// Highest generation the reference run committed.
    pub committed_generations: u64,
}

impl KillReplayReport {
    /// True when every case recovered to an exact committed state.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Fingerprints of one published generation in the reference run.
struct GenState {
    graph: String,
    tree: String,
}

/// What a crash case does to the CL-tree index sidecar.
#[derive(Debug, Clone, Copy)]
enum SidecarDamage {
    Missing,
    Truncated,
    BitFlip,
    /// Replaced by the sidecar of an earlier checkpoint of the same
    /// graph: whole, a valid tree for that graph, bound to that payload.
    Foreign,
}

const SIDECAR_DAMAGE: [SidecarDamage; 4] = [
    SidecarDamage::Missing,
    SidecarDamage::Truncated,
    SidecarDamage::BitFlip,
    SidecarDamage::Foreign,
];

/// Crash cases per cycle: two cuts, one flip, one of each sidecar damage,
/// one torn checkpoint. A sweep of at least this many cases has tried
/// them all.
pub const CASES_PER_CYCLE: usize = 4 + SIDECAR_DAMAGE.len();

const GRAPH: &str = "g";

fn fresh_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cx-killreplay-{tag}-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a store directory at `dst` whose WAL is `wal` (the original
/// bytes already cut or mutated by the caller), over a copy of `src`'s
/// manifest and snapshot files — or over nothing, for the store as it was
/// before its first compaction.
fn clone_store(src: Option<&Path>, dst: &Path, wal: &[u8]) -> std::io::Result<()> {
    std::fs::create_dir_all(dst.join(cx_store::SNAPSHOTS_DIR))?;
    if let Some(src) = src {
        std::fs::copy(src.join(cx_store::MANIFEST_FILE), dst.join(cx_store::MANIFEST_FILE))?;
        for entry in std::fs::read_dir(src.join(cx_store::SNAPSHOTS_DIR))? {
            let entry = entry?;
            std::fs::copy(entry.path(), dst.join(cx_store::SNAPSHOTS_DIR).join(entry.file_name()))?;
        }
    }
    std::fs::write(dst.join(cx_store::WAL_FILE), wal)
}

/// What the reference run leaves behind for the crash cases.
struct Reference {
    /// Fingerprints of every generation it published.
    states: BTreeMap<u64, GenState>,
    /// The WAL as it stood before the first compaction: the whole store
    /// at that point, `AddGraph` frame first.
    wal_only: Vec<u8>,
    /// The final store directory: the second compaction's checkpoint and
    /// sidecar, and `wal` after them.
    dir: PathBuf,
    wal: Vec<u8>,
    /// The checkpoint's generation, and its sidecar's path under a store.
    checkpoint: u64,
    sidecar: PathBuf,
    /// The first compaction's sidecar, swept since.
    earlier_sidecar: Vec<u8>,
    /// The last generation, and the checkpoint file the next compaction
    /// of the final store writes for it.
    last: u64,
    next_checkpoint: Vec<u8>,
}

/// Runs the seeded history on a durable engine, compacting after the
/// first and the second third of the script.
fn reference_run(params: &KillReplayParams) -> Reference {
    let dir = fresh_dir("ref", params.seed);
    let read_wal = || std::fs::read(dir.join(cx_store::WAL_FILE)).expect("reference WAL exists");
    let sidecar_of = |generation| {
        Path::new(cx_store::SNAPSHOTS_DIR).join(cx_store::index_file_name(GRAPH, generation))
    };
    let engine = Engine::open_durable(&dir).expect("reference store must open");
    let (graph, _areas) = cx_datagen::dblp_like(&check_params(params.authors, params.seed));
    let script = edit_script(&graph, params.steps, params.seed ^ 0xDEAD_BEEF);
    engine.try_add_graph(GRAPH, graph).expect("reference add must log");

    let mut states = BTreeMap::new();
    let mut record = || {
        let snap = engine.snapshot(Some(GRAPH)).unwrap();
        let state =
            GenState { graph: graph_fingerprint(&snap.graph), tree: tree_canonical(&snap.tree) };
        states.insert(snap.generation, state);
        snap.generation
    };
    let mut generation = record();
    let (mut wal_only, mut earlier_sidecar) = (Vec::new(), Vec::new());
    let mut checkpoint = 0;
    let third = script.len() / 3;
    for (i, step) in script.iter().enumerate() {
        if i == third {
            wal_only = read_wal();
            engine.compact_store().expect("reference compaction");
            earlier_sidecar = std::fs::read(dir.join(sidecar_of(generation))).expect("a sidecar");
        } else if i == 2 * third {
            engine.compact_store().expect("reference compaction");
            checkpoint = generation;
        }
        engine
            .apply_edits(Some(GRAPH), &step.add, &step.remove)
            .expect("reference edit must apply");
        generation = record();
    }
    drop(engine);
    let wal = read_wal();
    let next_checkpoint = {
        let copy = fresh_dir("next", params.seed);
        clone_store(Some(&dir), &copy, &wal).expect("store clone");
        let engine = Engine::open_durable(&copy).expect("reference store must reopen");
        engine.compact_store().expect("reference compaction");
        let file = Path::new(cx_store::SNAPSHOTS_DIR)
            .join(cx_store::snapshot_file_name(GRAPH, generation));
        let bytes = std::fs::read(copy.join(file)).expect("the next checkpoint");
        let _ = std::fs::remove_dir_all(&copy);
        bytes
    };
    Reference {
        states,
        wal_only,
        wal,
        checkpoint,
        sidecar: sidecar_of(checkpoint),
        earlier_sidecar,
        last: generation,
        next_checkpoint,
        dir,
    }
}

/// Runs the kill-replay sweep. Never panics on a well-behaved store; all
/// violations are collected into the report.
pub fn kill_replay(params: &KillReplayParams) -> KillReplayReport {
    assert!(params.steps >= 3, "the reference run compacts after each third of its script");
    let mut report = KillReplayReport::default();
    let reference = reference_run(params);
    report.committed_generations = reference.states.keys().max().copied().unwrap_or(0);
    // A cut inside the first frame leaves no frame to replay.
    let first_frame = cx_store::frame::FRAME_HEADER_LEN
        + u32::from_le_bytes(reference.wal[..4].try_into().unwrap()) as usize;

    let mut rng = Rng64::seed_from_u64(params.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    for case in 0..params.cases {
        report.cases += 1;
        let kind = case % CASES_PER_CYCLE;
        // WAL damage alternates, cycle by cycle, between the two stores;
        // sidecar damage needs the one that has a sidecar.
        let checkpointed = kind >= 3 || (case / CASES_PER_CYCLE) % 2 == 1;
        let wal = if checkpointed { &reference.wal } else { &reference.wal_only };
        let mut sidecar_damage = None;
        let torn_checkpoint = kind == CASES_PER_CYCLE - 1;
        let (mutated, label) = match kind {
            0 | 1 => {
                report.truncations += 1;
                let cut = (rng.next_u64() as usize) % (wal.len() + 1);
                (wal[..cut].to_vec(), format!("truncate@{cut}"))
            }
            // One flipped bit: mid-log corruption, not just torn appends.
            2 => {
                report.bitflips += 1;
                let byte = (rng.next_u64() as usize) % wal.len();
                let bit = (rng.next_u64() % 8) as u8;
                let mut m = wal.clone();
                m[byte] ^= 1 << bit;
                (m, format!("bitflip@{byte}.{bit}"))
            }
            _ if torn_checkpoint => {
                report.torn_checkpoints += 1;
                (wal.clone(), "whole WAL".to_owned())
            }
            _ => {
                report.sidecar_cases[kind - 3] += 1;
                sidecar_damage = Some(SIDECAR_DAMAGE[kind - 3]);
                let cut = (rng.next_u64() as usize) % first_frame;
                (wal[..cut].to_vec(), format!("truncate@{cut}"))
            }
        };
        let store = if checkpointed { "checkpointed" } else { "log-only" };
        let mut label = format!("{store} store, {label}");

        let crash_dir = fresh_dir(&format!("case{case}"), params.seed);
        clone_store(checkpointed.then_some(reference.dir.as_path()), &crash_dir, &mutated)
            .expect("store clone");
        if let Some(damage) = sidecar_damage {
            let path = crash_dir.join(&reference.sidecar);
            let whole = std::fs::read(&path).expect("the checkpoint has a sidecar");
            let at = (rng.next_u64() as usize) % whole.len();
            let damaged = match damage {
                SidecarDamage::Missing => None,
                SidecarDamage::Truncated => Some(whole[..at].to_vec()),
                SidecarDamage::BitFlip => {
                    let mut m = whole;
                    m[at] ^= 1 << (rng.next_u64() % 8);
                    Some(m)
                }
                SidecarDamage::Foreign => Some(reference.earlier_sidecar.clone()),
            };
            match damaged {
                Some(bytes) => std::fs::write(&path, bytes).expect("sidecar damage"),
                None => std::fs::remove_file(&path).expect("sidecar removal"),
            }
            label = format!("{label}, sidecar {damage:?}@{at}");
        }
        if torn_checkpoint {
            let cut = (rng.next_u64() as usize) % reference.next_checkpoint.len();
            let file = cx_store::snapshot_file_name(GRAPH, reference.last);
            let path = crash_dir.join(cx_store::SNAPSHOTS_DIR).join(file);
            std::fs::write(path, &reference.next_checkpoint[..cut]).expect("torn checkpoint");
            label = format!("{label}, next checkpoint torn@{cut}");
            // Reboot and compact over it; the verdict below reboots again.
            if let Err(e) = Engine::open_durable(&crash_dir).and_then(|e| e.compact_store()) {
                report
                    .failures
                    .push(format!("case {case} ({label}): reboot + compaction errored: {e}"));
            }
        }

        // Recovery must never panic; catch violations as report entries.
        match Engine::open_durable(&crash_dir) {
            Err(e) => {
                report
                    .failures
                    .push(format!("case {case} ({label}): recovery errored: {e}"));
            }
            Ok(engine) => match engine.snapshot(Some(GRAPH)) {
                Err(_) => {
                    // The graph may legitimately be absent only when no
                    // checkpoint holds it and the crash destroyed the
                    // very first (AddGraph) frame.
                    let add_survives =
                        checkpointed || !cx_store::frame::scan(&mutated, 0).frames.is_empty();
                    if add_survives {
                        report.failures.push(format!(
                            "case {case} ({label}): graph lost although its add frame survived"
                        ));
                    }
                }
                Ok(snap) => {
                    if sidecar_damage.is_some() && snap.generation != reference.checkpoint {
                        report.failures.push(format!(
                            "case {case} ({label}): recovered generation {} with no frame to replay over checkpoint {}",
                            snap.generation, reference.checkpoint
                        ));
                    }
                    if torn_checkpoint && snap.generation != reference.last {
                        report.failures.push(format!(
                            "case {case} ({label}): recovered generation {} although the whole WAL reached {}",
                            snap.generation, reference.last
                        ));
                    }
                    match reference.states.get(&snap.generation) {
                        None => report.failures.push(format!(
                            "case {case} ({label}): recovered uncommitted generation {}",
                            snap.generation
                        )),
                        Some(expect) => {
                            let got_graph = graph_fingerprint(&snap.graph);
                            let got_tree = tree_canonical(&snap.tree);
                            if got_graph != expect.graph {
                                report.failures.push(format!(
                                    "case {case} ({label}): graph fingerprint diverges at generation {}",
                                    snap.generation
                                ));
                            }
                            if got_tree != expect.tree {
                                report.failures.push(format!(
                                    "case {case} ({label}): CL-tree canonical form diverges at generation {}",
                                    snap.generation
                                ));
                            }
                        }
                    }
                }
            },
        }
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    let _ = std::fs::remove_dir_all(&reference.dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_passes() {
        let report = kill_replay(&KillReplayParams {
            cases: 2 * CASES_PER_CYCLE,
            authors: 60,
            steps: 6,
            seed: 3,
        });
        assert_eq!(report.cases, 16);
        assert_eq!(report.truncations, 4);
        assert_eq!(report.bitflips, 2);
        assert_eq!(report.sidecar_cases, [2; 4]);
        assert_eq!(report.torn_checkpoints, 2);
        assert!(report.passed(), "violations: {:?}", report.failures);
        assert!(report.committed_generations >= 7);
    }
}
