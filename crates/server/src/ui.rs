//! The embedded single-page browser UI — the Rust stand-in for the JSP
//! pages of Figure 1: an Exploration panel (name box, degree constraint,
//! keyword chips, Search) and an Analysis panel (method comparison table
//! and CPJ/CMF bars), with communities drawn on a canvas and member
//! profiles in a popup.

/// The index page served at `/`.
pub const INDEX_HTML: &str = r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>C-Explorer — Browsing Communities in Large Graphs</title>
<style>
  body { font-family: sans-serif; margin: 0; display: flex; height: 100vh; }
  #left { width: 300px; padding: 14px; border-right: 1px solid #ccc; overflow-y: auto; }
  #right { flex: 1; padding: 14px; overflow-y: auto; }
  h1 { font-size: 18px; margin: 0 0 10px; }
  label { display: block; margin-top: 10px; font-size: 12px; color: #444; }
  input, select { width: 100%; box-sizing: border-box; padding: 5px; margin-top: 2px; }
  button { margin-top: 12px; padding: 7px 14px; cursor: pointer; }
  .chip { display: inline-block; margin: 2px; padding: 2px 8px; border: 1px solid #888;
          border-radius: 10px; font-size: 11px; cursor: pointer; user-select: none; }
  .chip.on { background: #337ab7; color: white; border-color: #337ab7; }
  canvas { border: 1px solid #ddd; background: white; }
  table { border-collapse: collapse; margin-top: 10px; font-size: 13px; }
  th, td { border: 1px solid #bbb; padding: 4px 9px; text-align: right; }
  th:first-child, td:first-child { text-align: left; }
  #tabs button { margin: 2px; }
  #profile { position: fixed; right: 20px; top: 60px; width: 260px; background: #fff;
             border: 1px solid #888; box-shadow: 2px 2px 8px #0003; padding: 12px;
             display: none; font-size: 13px; }
  .bar { height: 14px; background: #337ab7; display: inline-block; }
  .err { color: #b00; }
</style>
</head>
<body>
<div id="left">
  <h1>C-Explorer</h1>
  <label>Graph <select id="graph"></select></label>
  <label>Name <input id="name" placeholder="e.g. author-0" list="namesugg"></label>
  <datalist id="namesugg"></datalist>
  <label>Structure: degree &ge; <input id="k" type="number" value="4" min="0"></label>
  <label>Algorithm <select id="algo"></select></label>
  <label>Layout <select id="layout">
    <option>force</option><option>kk</option><option>circular</option><option>shell</option>
  </select></label>
  <label>Keywords (click to toggle)</label>
  <div id="chips"></div>
  <button id="search">Search</button>
  <button id="comparebtn">Compare (Analysis)</button>
  <div id="status" class="err"></div>
</div>
<div id="right">
  <div id="tabs"></div>
  <div id="theme"></div>
  <canvas id="canvas" width="940" height="560"></canvas>
  <div id="analysis"></div>
</div>
<div id="profile"></div>
<script>
const $ = id => document.getElementById(id);
let state = { communities: [], current: 0, keywords: [] };

async function jget(url) {
  const r = await fetch(url);
  const body = await r.json();
  if (!r.ok) throw new Error((body.error && body.error.message) || r.status);
  return body.data;
}

async function init() {
  const info = await jget('/api/v1/graphs');
  try {
    const st = await jget(`/api/v1/stats`);
    $('status').innerHTML = `<span style="color:#444">graph: ${st.vertices} vertices, ` +
      `${st.edges} edges, degeneracy ${st.degeneracy}</span>`;
  } catch (e) { /* stats are cosmetic */ }
  for (const g of info.graphs) {
    const o = document.createElement('option'); o.textContent = g; $('graph').append(o);
  }
  $('graph').value = info.default_graph;
  for (const a of info.cs_algorithms.concat(info.cd_algorithms)) {
    const o = document.createElement('option'); o.textContent = a; $('algo').append(o);
  }
}

$('name').addEventListener('input', async () => {
  const q = $('name').value;
  if (q.length < 2) return;
  try {
    const hits = await jget(`/api/v1/suggest?graph=${$('graph').value}&q=${encodeURIComponent(q)}`);
    $('namesugg').innerHTML = '';
    for (const h of hits) {
      const o = document.createElement('option'); o.value = h.label; $('namesugg').append(o);
    }
  } catch (e) { /* suggestions are best-effort */ }
});

function renderChips(words) {
  $('chips').innerHTML = '';
  for (const w of words) {
    const span = document.createElement('span');
    span.className = 'chip on'; span.textContent = w;
    span.onclick = () => span.classList.toggle('on');
    $('chips').append(span);
  }
}

function selectedKeywords() {
  return [...document.querySelectorAll('.chip.on')].map(c => c.textContent);
}

$('search').onclick = async () => {
  $('status').textContent = '';
  const kws = selectedKeywords().join(',');
  const url = `/api/v1/search?graph=${$('graph').value}&algo=${$('algo').value}` +
    `&name=${encodeURIComponent($('name').value)}&k=${$('k').value}` +
    `&layout=${$('layout').value}` +
    (kws ? `&keywords=${encodeURIComponent(kws)}` : '');
  try {
    const res = await jget(url);
    state.communities = res.communities; state.current = 0;
    state.lastQuery = url;
    renderChips(res.query_keywords);
    renderTabs(); renderScene();
    const svgUrl = url.replace('/api/v1/search', '/api/v1/svg') + `&index=${state.current}`;
    $('analysis').innerHTML =
      `<p>CPJ ${res.cpj.toFixed(3)} &middot; CMF ${res.cmf.toFixed(3)}` +
      ` &middot; <a href="${svgUrl}" target="_blank">save as SVG</a></p>`;
  } catch (e) { $('status').textContent = e.message; }
};

function renderTabs() {
  $('tabs').innerHTML = 'Communities: ';
  state.communities.forEach((c, i) => {
    const b = document.createElement('button');
    b.textContent = (i + 1) + ` (${c.size})`;
    b.onclick = () => { state.current = i; renderScene(); };
    $('tabs').append(b);
  });
}

function renderScene() {
  const c = state.communities[state.current];
  const ctx = $('canvas').getContext('2d');
  ctx.clearRect(0, 0, 940, 560);
  if (!c) { $('theme').textContent = 'No community found.'; return; }
  $('theme').textContent = c.theme.length ? 'Theme: ' + c.theme.join(', ') : '';
  const s = c.scene, sx = 940 / s.width, sy = 560 / s.height;
  ctx.strokeStyle = '#999';
  for (const [a, b] of s.edges) {
    ctx.beginPath();
    ctx.moveTo(s.nodes[a].x * sx, s.nodes[a].y * sy);
    ctx.lineTo(s.nodes[b].x * sx, s.nodes[b].y * sy);
    ctx.stroke();
  }
  for (const n of s.nodes) {
    ctx.beginPath();
    ctx.fillStyle = n.highlight ? '#d9534f' : '#337ab7';
    ctx.arc(n.x * sx, n.y * sy, n.highlight ? 8 : 5, 0, 7);
    ctx.fill();
    ctx.fillStyle = '#222';
    ctx.fillText(n.label, n.x * sx + 9, n.y * sy + 3);
  }
  $('canvas').onclick = ev => {
    const r = $('canvas').getBoundingClientRect();
    const x = ev.clientX - r.left, y = ev.clientY - r.top;
    for (const n of s.nodes) {
      const dx = n.x * sx - x, dy = n.y * sy - y;
      if (dx * dx + dy * dy < 100) { showProfile(n); break; }
    }
  };
}

async function showProfile(n) {
  let html = `<b>${n.label}</b>`;
  try {
    const p = await jget(`/api/v1/profile?graph=${$('graph').value}&id=${n.id}`);
    html += `<br>Areas: ${p.areas.join('; ')}<br>Institutes: ${p.institutes.join('; ')}` +
            `<br>Interests: ${p.interests.join('; ')}`;
  } catch (e) { html += '<br><i>No profile on record.</i>'; }
  html += `<br><button onclick="explore('${n.label.replace(/'/g, "\\'")}')">Explore</button>` +
          ` <button onclick="$('profile').style.display='none'">Close</button>`;
  $('profile').innerHTML = html;
  $('profile').style.display = 'block';
}

function explore(label) {
  $('profile').style.display = 'none';
  $('name').value = label;
  $('search').click();
}

$('comparebtn').onclick = async () => {
  $('status').textContent = '';
  const url = `/api/v1/compare?graph=${$('graph').value}` +
    `&name=${encodeURIComponent($('name').value)}&k=${$('k').value}` +
    `&algos=global,local,codicil,acq`;
  try {
    const res = await jget(url);
    let html = '<table><tr><th>Method</th><th>Communities</th><th>Vertices</th>' +
      '<th>Edges</th><th>Degree</th><th>CPJ</th><th>CMF</th><th>ms</th></tr>';
    for (const r of res.rows) {
      html += `<tr><td>${r.method}</td><td>${r.communities}</td>` +
        `<td>${r.avg_vertices.toFixed(1)}</td><td>${r.avg_edges.toFixed(1)}</td>` +
        `<td>${r.avg_degree.toFixed(1)}</td><td>${r.cpj.toFixed(3)}</td>` +
        `<td>${r.cmf.toFixed(3)}</td><td>${r.millis.toFixed(1)}</td></tr>`;
    }
    html += '</table><h3>CPJ</h3>';
    for (const r of res.rows) {
      html += `<div>${r.method} <span class="bar" style="width:${r.cpj * 300}px"></span>` +
              ` ${r.cpj.toFixed(3)}</div>`;
    }
    html += '<h3>CMF</h3>';
    for (const r of res.rows) {
      html += `<div>${r.method} <span class="bar" style="width:${r.cmf * 300}px"></span>` +
              ` ${r.cmf.toFixed(3)}</div>`;
    }
    $('analysis').innerHTML = html;
  } catch (e) { $('status').textContent = e.message; }
};

init();
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_mentions_the_key_ui_elements() {
        for needle in [
            "C-Explorer",
            "degree",
            "Search",
            "Compare",
            "/api/v1/search",
            "/api/v1/compare",
            "/api/v1/profile",
            "/api/v1/suggest",
            "canvas",
        ] {
            assert!(INDEX_HTML.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn page_is_self_contained() {
        // No external scripts or stylesheets: the server has no static dir.
        assert!(!INDEX_HTML.contains("src=\"http"));
        assert!(!INDEX_HTML.contains("href=\"http"));
    }
}
