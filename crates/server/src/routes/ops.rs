//! Operational endpoints: the embedded page, `/metrics`, `/healthz`, and
//! the recorded span tree of a recent request.

use cx_obs::trace::SpanRecord;

use super::{data, ApiError, Ctx, Handler, Payload};
use crate::http::Response;
use crate::json::{array_into, number_into, object, ObjectWriter};

pub(super) fn index(_: &Ctx) -> Handler {
    Ok(Payload::Raw(Response::html(crate::ui::INDEX_HTML)))
}

/// GET /metrics — Prometheus text exposition of the cx-obs registry.
pub(super) fn metrics_text(_: &Ctx) -> Handler {
    let mut body = cx_obs::global().prometheus_text();
    if body.is_empty() {
        // Cold registry (first-ever request, or CX_OBS=off): still a
        // valid, non-empty exposition.
        body.push_str("# no samples recorded yet\n");
    }
    Ok(Payload::Raw(Response::with_body("text/plain; version=0.0.4; charset=utf-8", body)))
}

/// GET /healthz — liveness (the process answers) plus readiness
/// (a graph is loaded and queryable). Served entirely from the O(1)
/// registry index: no snapshot is cloned, no graph data touched.
pub(super) fn healthz(ctx: &Ctx) -> Handler {
    let idx = ctx.engine.registry_index();
    let body = object(|o| {
        o.bool("graph_loaded", !idx.graphs.is_empty())
            .num("graphs", idx.graphs.len() as f64)
            .str("status", "ok")
            .num("traces", cx_obs::trace::trace_count() as f64);
    });
    Ok(Payload::Raw(Response::with_body("application/json", body)))
}

/// GET /api/v1/trace?request_id=… — the recorded span tree for a recent
/// request.
pub(super) fn trace(ctx: &Ctx) -> Handler {
    let Some(id) = ctx.param("request_id") else {
        return Err(ApiError::bad_query("missing request_id parameter"));
    };
    let Some(t) = cx_obs::trace::get_trace(id) else {
        return Err(ApiError::not_found(format!("no trace recorded for request id {id:?}")));
    };
    data(|o| {
        o.str("request_id", &t.request_id).num("span_count", t.spans.len() as f64);
        array_into(o.key("spans"), &t.spans, |out, s| {
            let mut span = ObjectWriter::new(out);
            span.num("dur_us", s.dur_us as f64).str("name", s.name);
            match s.parent {
                Some(p) => number_into(span.key("parent"), p as f64),
                None => span.key("parent").push_str("null"),
            }
            span.num("start_us", s.start_us as f64).close();
        });
        write_span_tree(o.key("tree"), &t.spans);
    })
}

/// Writes the nested span tree from the flat parent-index records.
/// Parents always precede children, so indices only point backwards.
fn write_span_tree(out: &mut String, spans: &[SpanRecord]) {
    fn node(out: &mut String, spans: &[SpanRecord], children: &[Vec<usize>], i: usize) {
        let s = &spans[i];
        let mut o = ObjectWriter::new(out);
        array_into(o.key("children"), &children[i], |out, &c| node(out, spans, children, c));
        o.num("dur_us", s.dur_us as f64).str("name", s.name).num("start_us", s.start_us as f64);
        o.close();
    }
    let mut children = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p as usize].push(i),
            None => roots.push(i),
        }
    }
    array_into(out, roots, |out, r| node(out, spans, &children, r));
}

#[cfg(test)]
mod tests {
    use crate::http::Request;
    use crate::routes::tests::server;

    #[test]
    fn index_page_serves() {
        let s = server();
        let r = s.handle(&Request::get("/"));
        assert_eq!(r.status, 200);
        assert!(r.text().contains("C-Explorer"));
    }
}
