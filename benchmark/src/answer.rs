//! Answer checking: what part of a response is the *answer*, and a
//! 64-bit digest of it.
//!
//! v1 JSON responses are `{"data":…,"elapsed_ms":…,"error":…,"ok":…,
//! "request_id":…}` (sorted keys). `elapsed_ms` and `request_id` differ
//! on every call; everything under `data` is a pure function of the
//! request and the graph version, so the digest of the `data` bytes is
//! compared between the reference computed during prep and every answer
//! that comes back over a socket. The comparison costs one pass over the
//! bytes — cheap enough to run inside the closed loop without the
//! client's JSON parsing competing with the server for the host's cores.

use cx_server::Json;

use crate::workload::Kind;

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64` (little endian).
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
}

/// FNV-1a digest of `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.0
}

const DATA_PREFIX: &[u8] = b"{\"data\":";
const DATA_SUFFIX: &[u8] = b",\"elapsed_ms\":";

fn rfind(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).rposition(|w| w == needle)
}

/// The bytes of the `data` member of a successful v1 envelope, or `None`
/// when the body is not an `ok:true` envelope.
pub fn data_slice(body: &[u8]) -> Option<&[u8]> {
    if !body.starts_with(DATA_PREFIX) {
        return None;
    }
    let end = rfind(body, DATA_SUFFIX)?;
    let tail = &body[end..];
    // The tail holds only scalars on success: `"error":null,"ok":true`.
    (rfind(tail, b",\"ok\":true,").is_some() && end >= DATA_PREFIX.len())
        .then(|| &body[DATA_PREFIX.len()..end])
}

fn num(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_f64).map(|x| x as u64)
}

/// The number following the first `"generation":` in `data` — the graph
/// version an answer was computed against.
pub fn generation_of(data: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"generation\":";
    let at = data.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = data[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&data[at..at + digits]).ok()?.parse().ok()
}

/// Digest of the answer carried by a 200 response of the given kind:
///
/// * `svg` is served raw, so the whole body is the answer;
/// * `stats` carries live cache counters next to the graph figures, so
///   only vertices / edges / generation are digested;
/// * `edit` answers are digested as `(edges, generation)` so the script
///   generator can state the expectation without running the edit;
/// * everything else: the `data` bytes verbatim.
///
/// Returns the digest and the answer's size in bytes (the exact-count
/// `server.json.resp_bytes` metric), or `None` when the body is not a
/// well-formed success response.
pub fn digest(kind: Kind, body: &[u8]) -> Option<(u64, usize)> {
    if kind == Kind::Svg {
        return body.starts_with(b"<svg").then(|| (fnv(body), body.len()));
    }
    let data = data_slice(body)?;
    let fields: &[&str] = match kind {
        Kind::Stats => &["vertices", "edges", "generation"],
        Kind::Edit => &["edges", "generation"],
        _ => return Some((fnv(data), data.len())),
    };
    let v = Json::parse(std::str::from_utf8(data).ok()?).ok()?;
    let mut h = Fnv::default();
    for f in fields {
        h.write_u64(num(&v, f)?);
    }
    Some((h.0, data.len()))
}

/// The digest [`digest`] yields for an edit answer reporting `edges`
/// edges at `generation`.
pub fn edit_digest(edges: u64, generation: u64) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(edges);
    h.write_u64(generation);
    h.0
}

/// Member ids of each listed community of a search answer, in response
/// order, plus `total_communities` — what prep compares against the
/// `cx_acq::acq` reference.
pub fn search_members(body: &[u8]) -> Option<(Vec<Vec<u32>>, usize)> {
    let data = data_slice(body)?;
    let v = Json::parse(std::str::from_utf8(data).ok()?).ok()?;
    let total = num(&v, "total_communities")? as usize;
    let listed = v
        .get("communities")?
        .as_array()?
        .iter()
        .map(|c| {
            c.get("members")?.as_array()?.iter().map(|m| num(m, "id").map(|x| x as u32)).collect()
        })
        .collect::<Option<Vec<Vec<u32>>>>()?;
    Some((listed, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] = br#"{"data":{"communities":[{"members":[{"id":3,"label":"a"},{"id":9,"label":"b"}],"size":2}],"generation":7,"total_communities":4},"elapsed_ms":0.41,"error":null,"ok":true,"request_id":"r-12"}"#;

    #[test]
    fn data_is_isolated_from_the_volatile_envelope_fields() {
        let other = String::from_utf8_lossy(OK).replace("0.41", "12.5").replace("r-12", "r-99999");
        assert_eq!(digest(Kind::Search, OK), digest(Kind::Search, other.as_bytes()));
        let changed = String::from_utf8_lossy(OK).replace("\"id\":9", "\"id\":8");
        assert_ne!(digest(Kind::Search, OK), digest(Kind::Search, changed.as_bytes()));
        assert_eq!(generation_of(data_slice(OK).unwrap()), Some(7));
        assert_eq!(search_members(OK), Some((vec![vec![3, 9]], 4)));
    }

    #[test]
    fn failures_have_no_digest() {
        let err = br#"{"data":null,"elapsed_ms":0.1,"error":{"code":"not_found","message":"x"},"ok":false,"request_id":"r-1"}"#;
        assert_eq!(digest(Kind::Search, err), None);
        assert_eq!(digest(Kind::Search, b"<html>"), None);
        assert_eq!(digest(Kind::Svg, b"{}"), None);
        assert!(digest(Kind::Svg, b"<svg></svg>").is_some());
    }

    #[test]
    fn edit_and_stats_digest_selected_fields_only() {
        let edit = br#"{"data":{"edges":11,"generation":3,"ok":true,"vertices":10},"elapsed_ms":1,"error":null,"ok":true,"request_id":"r-2"}"#;
        assert_eq!(digest(Kind::Edit, edit).map(|d| d.0), Some(edit_digest(11, 3)));
        let a = br#"{"data":{"edges":11,"generation":3,"query_cache":{"hits":1},"vertices":10},"elapsed_ms":1,"error":null,"ok":true,"request_id":"r-2"}"#;
        let b = br#"{"data":{"edges":11,"generation":3,"query_cache":{"hits":22},"vertices":10},"elapsed_ms":1,"error":null,"ok":true,"request_id":"r-2"}"#;
        assert_eq!(digest(Kind::Stats, a).map(|d| d.0), digest(Kind::Stats, b).map(|d| d.0));
    }
}
