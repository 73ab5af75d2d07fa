//! The SVG renderer (for files — the paper's "save the community into a
//! .jpg file or print it" feature). The JSON the web UI's canvas draws is
//! written by the server from the scene's public fields.

use crate::scene::Scene;

/// Escapes the five XML special characters.
fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&apos;")
}

impl Scene {
    /// Renders the scene as a standalone SVG document: edges, vertex dots
    /// (query vertex emphasised), labels, a title line, and the theme.
    pub fn to_svg(&self) -> String {
        let mut svg = String::new();
        svg.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">\n",
            self.width, self.height, self.width, self.height
        ));
        svg.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
        if !self.title.is_empty() {
            svg.push_str(&format!(
                "<text x=\"10\" y=\"18\" font-family=\"sans-serif\" font-size=\"14\" font-weight=\"bold\">{}</text>\n",
                xml_escape(&self.title)
            ));
        }
        if !self.theme.is_empty() {
            svg.push_str(&format!(
                "<text x=\"10\" y=\"34\" font-family=\"sans-serif\" font-size=\"11\" fill=\"#555\">Theme: {}</text>\n",
                xml_escape(&self.theme.join(", "))
            ));
        }
        for (eidx, &(i, j)) in self.edges.iter().enumerate() {
            let (a, b) = (self.vertices[i].1, self.vertices[j].1);
            // Weighted edges (summary scenes) thicken with log of weight.
            let sw = match self.weights.get(eidx) {
                Some(&w) if w > 0.0 => 1.0 + w.ln().max(0.0),
                _ => 1.0,
            };
            svg.push_str(&format!(
                "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#999\" stroke-width=\"{sw:.1}\"/>\n",
                a.x, a.y, b.x, b.y
            ));
        }
        for (idx, &(_, p)) in self.vertices.iter().enumerate() {
            let is_hi = self.highlight == Some(idx);
            let is_super = self.supers.get(idx).copied().unwrap_or(false);
            let (mut r, fill) = if is_hi {
                (8.0, "#d9534f")
            } else if is_super {
                (5.0, "#5cb85c")
            } else {
                (5.0, "#337ab7")
            };
            if let Some(&rr) = self.radii.get(idx) {
                r = rr;
            }
            svg.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"{r:.1}\" fill=\"{fill}\" stroke=\"#222\" stroke-width=\"0.8\"/>\n",
                p.x, p.y
            ));
            svg.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" font-family=\"sans-serif\" font-size=\"10\" fill=\"#222\">{}</text>\n",
                p.x + r + 2.0,
                p.y + 3.0,
                xml_escape(&self.labels[idx])
            ));
        }
        svg.push_str("</svg>\n");
        svg
    }
}

#[cfg(test)]
mod tests {
    use crate::{layout_community, LayoutAlgorithm};
    use cx_datagen::figure5_graph;
    use cx_graph::Community;

    fn scene() -> crate::Scene {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let c = Community::structural(vec![
            g.vertex_by_label("A").unwrap(),
            g.vertex_by_label("B").unwrap(),
            g.vertex_by_label("C").unwrap(),
        ]);
        layout_community(&g, &c, LayoutAlgorithm::Circular, Some(a), 300.0, 200.0, 0)
            .titled("Method: <ACQ> & \"friends\"")
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = scene().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<circle").count(), 3);
        assert_eq!(svg.matches("<line").count(), 3); // triangle
        // Title is escaped.
        assert!(svg.contains("&lt;ACQ&gt;"));
        assert!(svg.contains("&quot;friends&quot;"));
        assert!(!svg.contains("<ACQ>"));
    }

    #[test]
    fn svg_highlights_query() {
        let svg = scene().to_svg();
        assert_eq!(svg.matches("#d9534f").count(), 1);
    }
}
