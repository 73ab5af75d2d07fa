//! The write endpoints: `edit` patches a graph and `upload` registers a
//! new one; each publishes a snapshot atomically.

use cx_graph::VertexId;

use super::{data, uint, ApiError, Ctx, ErrorCode, Handler};
use crate::json::Json;

/// POST /api/v1/edit?graph=g — body: JSON `{"add": [[u,v],…], "remove": [[u,v],…]}`.
///
/// Read-non-blocking: the new graph and CL-tree are built off-lock and
/// published as a fresh snapshot; concurrent searches keep answering from
/// the previous snapshot throughout.
pub(super) fn edit(ctx: &Ctx) -> Handler {
    let v = ctx.json_body()?;
    let pairs = |key: &str| -> Result<Vec<(VertexId, VertexId)>, ApiError> {
        let Some(arr) = v.get(key).and_then(Json::as_array) else {
            return Ok(Vec::new());
        };
        arr.iter()
            .map(|p| {
                let xs = p.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    ApiError::bad_json(format!("{key} entries must be [u, v] pairs"))
                })?;
                // An id past u32::MAX saturates and fails the engine's
                // bounds check like any other out-of-range vertex.
                let f = |j: &Json| {
                    uint(j, f64::MAX)
                        .map(|x| VertexId(x as u32))
                        .ok_or_else(|| ApiError::bad_json("vertex ids must be integers"))
                };
                Ok((f(&xs[0])?, f(&xs[1])?))
            })
            .collect()
    };
    let add = pairs("add")?;
    let remove = pairs("remove")?;
    ctx.engine.apply_edits(ctx.param("graph"), &add, &remove)?;
    let snap = ctx.snapshot()?;
    data(|o| {
        o.num("edges", snap.graph.edge_count() as f64)
            .num("generation", snap.generation as f64)
            .bool("ok", true)
            .num("vertices", snap.graph.vertex_count() as f64);
    })
}

/// POST /api/v1/upload?name=g — body: the text graph format. Registers
/// and indexes the graph.
pub(super) fn upload(ctx: &Ctx) -> Handler {
    let Some(name) = ctx.param("name") else {
        return Err(ApiError::bad_query("missing name parameter"));
    };
    let graph = cx_graph::io::read_text(&mut ctx.req.body.as_slice())
        .map_err(|e| ApiError::new(ErrorCode::GraphError, format!("parse failed: {e}")))?;
    let (v, m) = (graph.vertex_count(), graph.edge_count());
    ctx.engine.try_add_graph(name, graph)?;
    data(|o| {
        o.num("edges", m as f64).str("graph", name).bool("ok", true).num("vertices", v as f64);
    })
}

#[cfg(test)]
mod tests {
    use crate::http::Request;
    use crate::json::Json;
    use crate::routes::tests::{server, v1_data};

    #[test]
    fn upload_then_query_uploaded_graph() {
        let s = server();
        let body = "v\talice\tdb,ml\nv\tbob\tdb\nv\tcarol\tdb\ne\t0\t1\ne\t1\t2\ne\t0\t2\n";
        let up = s.handle(&Request::post("/api/v1/upload?name=mine", body));
        assert_eq!(up.status, 200, "{}", up.text());
        let v = v1_data(&up);
        assert_eq!(v.get("vertices").and_then(Json::as_f64), Some(3.0));
        let r = s.handle(&Request::get("/api/v1/search?graph=mine&name=alice&k=2&algo=acq"));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        let comms = v.get("communities").and_then(Json::as_array).unwrap();
        assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(3.0));
        // Bad upload body.
        assert_eq!(s.handle(&Request::post("/api/v1/upload?name=bad", "q\tjunk")).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/upload", "")).status, 400);
    }

    #[test]
    fn edit_endpoint_applies_and_reindexes() {
        let s = server();
        // Remove an edge of the K4 (A=0, B=1): cores drop to 2.
        let r = s.handle(&Request::post("/api/v1/edit", r#"{"remove":[[0,1]]}"#));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        assert_eq!(v.get("edges").and_then(Json::as_f64), Some(10.0));
        assert_eq!(v.get("generation").and_then(Json::as_f64), Some(2.0));
        let r = s.handle(&Request::get("/api/v1/stats"));
        let v = v1_data(&r);
        assert_eq!(v.get("degeneracy").and_then(Json::as_f64), Some(2.0));
        // A k=3 query now finds nothing.
        let r = s.handle(&Request::get("/api/v1/search?name=A&k=3&algo=acq"));
        let v = v1_data(&r);
        assert_eq!(v.get("communities").and_then(Json::as_array).map(|a| a.len()), Some(0));
    }

    #[test]
    fn edit_endpoint_validates_payload() {
        let s = server();
        assert_eq!(s.handle(&Request::post("/api/v1/edit", "not json")).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/edit", r#"{"add":[[0]]}"#)).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/edit", r#"{"add":[[0,1.5]]}"#)).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/edit", r#"{"add":[[0,99]]}"#)).status, 400);
        // Empty edit is a no-op success.
        assert_eq!(s.handle(&Request::post("/api/v1/edit", "{}")).status, 200);
    }
}
