//! Kill-replay: crash the store at seeded byte offsets and require
//! recovery to land on an exact committed state (satellite of the
//! durability tentpole; the oracle itself lives in `cx-check` so the CI
//! binary can run bigger sweeps).

use cx_check::killreplay::{kill_replay, KillReplayParams};
use cx_store::frame::{encode_frame, scan, TailReason};

/// The headline sweep: ≥50 seeded (graph, edit-script, crash-point)
/// cases across two configurations, whole cycles of the oracle's crash
/// kinds (WAL cut, WAL bit flip, index sidecar missing / cut / flipped /
/// foreign, torn checkpoint from a crashed compaction). Every case
/// either recovers a committed generation with byte-identical graph and
/// CL-tree fingerprints, or (for a cut before the first frame of a store
/// with no checkpoint) an empty store.
#[test]
fn fifty_seeded_crash_points_recover_exactly() {
    let mut cases = 0;
    let mut truncations = 0;
    let mut bitflips = 0;
    let mut sidecars = [0; 4];
    let mut torn_checkpoints = 0;
    for (seed, authors, steps, n) in [(11, 120, 18, 64), (29, 200, 12, 56)] {
        let report = kill_replay(&KillReplayParams { cases: n, authors, steps, seed });
        assert!(
            report.passed(),
            "seed {seed}: {} violations: {:#?}",
            report.failures.len(),
            report.failures
        );
        assert!(report.committed_generations > steps as u64 / 2);
        cases += report.cases;
        truncations += report.truncations;
        bitflips += report.bitflips;
        for (total, n) in sidecars.iter_mut().zip(report.sidecar_cases) {
            *total += n;
        }
        torn_checkpoints += report.torn_checkpoints;
    }
    assert!(cases >= 50, "sweep must cover at least 50 crash points, got {cases}");
    assert!(truncations >= 30 && bitflips >= 10, "both WAL crash modes must be exercised");
    assert!(sidecars.iter().all(|&n| n >= 10), "every sidecar damage kind must be exercised");
    assert!(torn_checkpoints >= 10, "crashed compactions must be exercised");
}

/// Torn frames of every kind stop a scan cleanly — no panic, no
/// misparse — and report the right reason.
#[test]
fn torn_frames_are_skipped_never_panic() {
    let mut log = Vec::new();
    log.extend_from_slice(&encode_frame(1, b"first-record"));
    log.extend_from_slice(&encode_frame(2, b"second-record"));
    let full = log.len();

    // Short length prefix: cut inside the second frame's header.
    let out = scan(&log[..full - encode_frame(2, b"second-record").len() + 3], 0);
    assert_eq!(out.frames.len(), 1);
    assert_eq!(out.tail, Some(TailReason::ShortHeader));

    // Mid-frame EOF: cut inside the second frame's payload.
    let out = scan(&log[..full - 4], 0);
    assert_eq!(out.frames.len(), 1);
    assert_eq!(out.tail, Some(TailReason::ShortPayload));

    // Bad checksum: flip a payload byte of the second frame.
    let mut bad = log.clone();
    bad[full - 1] ^= 0x40;
    let out = scan(&bad, 0);
    assert_eq!(out.frames.len(), 1);
    assert_eq!(out.tail, Some(TailReason::BadChecksum));

    // Garbage tail after valid frames.
    let mut garbage = log.clone();
    garbage.extend_from_slice(&[0u8; 16]);
    let out = scan(&garbage, 0);
    assert_eq!(out.frames.len(), 2);
    assert!(out.tail.is_some());

    // Every single-byte truncation of the whole log terminates cleanly.
    for cut in 0..full {
        let out = scan(&log[..cut], 0);
        assert!(out.frames.len() <= 2);
        assert!(out.clean_len <= cut);
    }
}
