//! The Model-to-Text transformation (paper §3.4).
//!
//! Two *code engineering sets* exist in the paper's tool — one for the
//! PSDF and one for the PSM — each producing an XSD-flavoured XML scheme.
//! The conventions reproduced here are the paper's own:
//!
//! * one `xs:complexType` per application process or platform element;
//! * a process's outgoing flows appear as `xs:element`s named
//!   `<target>_<items>_<order>_<ticks>` (the paper's `P1_576_1_250`);
//! * the platform type (`SBP`) aggregates `segmentN`, `ca` and `buXY`
//!   elements; each segment type lists its FUs, its `arbiter` and its
//!   `buLeft`/`buRight` interfaces.
//!
//! Quantities the paper's snippets leave implicit but the emulator needs —
//! clock periods, the package size, the cost model — are carried as
//! attributes (`periodPs`, `packageSize`, `costModel`, …) so that the
//! round-trip through [`crate::import`] is lossless.

use segbus_model::ids::{FlowId, SegmentId};
use segbus_model::mapping::Psm;
use segbus_model::psdf::{Application, CostModel, ProcessKind};

use crate::doc::{XmlDocument, XmlElement};

const XS_NS: &str = "http://www.w3.org/2001/XMLSchema";

/// Generate the PSDF scheme.
pub fn export_psdf(app: &Application) -> XmlDocument {
    let mut schema = XmlElement::new("xs:schema")
        .attr("xmlns:xs", XS_NS)
        .attr("name", app.name());
    schema = match app.cost_model() {
        CostModel::PerItem {
            reference_package_size,
        } => schema
            .attr("costModel", "perItem")
            .attr("costReference", reference_package_size.to_string()),
        CostModel::PerPackage => schema.attr("costModel", "perPackage"),
        CostModel::Affine {
            base_ticks,
            reference_package_size,
        } => schema
            .attr("costModel", "affine")
            .attr("costBase", base_ticks.to_string())
            .attr("costReference", reference_package_size.to_string()),
    };
    // Each process's outgoing flows, in flow order: one pass over the
    // flows instead of one scan per process.
    let mut outputs: Vec<Vec<FlowId>> = vec![Vec::new(); app.process_count()];
    for (i, f) in app.flows().iter().enumerate() {
        outputs[f.src.index()].push(FlowId(i as u32));
    }
    for (p, out) in app.processes().iter().zip(&outputs) {
        let kind = match p.kind {
            ProcessKind::Initial => "initial",
            ProcessKind::Internal => "process",
            ProcessKind::Final => "final",
        };
        let mut ct = XmlElement::new("xs:complexType")
            .attr("name", p.name.clone())
            .attr("kind", kind);
        let mut all = XmlElement::new("xs:all");
        for &fid in out {
            let f = app.flow(fid);
            let dst = &app.process(f.dst).name;
            // `seq` preserves the global flow order across the grouping by
            // source process, making the round trip lossless.
            let mut fel = XmlElement::new("xs:element")
                .attr("name", format!("{dst}_{}_{}_{}", f.items, f.order, f.ticks))
                .attr("seq", fid.0.to_string());
            if let Some(noise) = app.flow_noise(fid) {
                if let Some(d) = &noise.items {
                    fel = fel.attr("itemsDist", d.encode());
                }
                if let Some(d) = &noise.ticks {
                    fel = fel.attr("ticksDist", d.encode());
                }
                if let Some(d) = &noise.jitter {
                    fel = fel.attr("jitter", d.encode());
                }
            }
            all = all.child(fel);
        }
        if !out.is_empty() {
            ct = ct.child(all);
        }
        schema = schema.child(ct);
    }
    XmlDocument::new(schema)
}

/// Generate the PSM scheme for a validated model.
pub fn export_psm(psm: &Psm) -> XmlDocument {
    let platform = psm.platform();
    let app = psm.application();
    let mut schema = XmlElement::new("xs:schema")
        .attr("xmlns:xs", XS_NS)
        .attr("name", platform.name())
        .attr("topology", platform.topology().to_string())
        .attr("packageSize", platform.package_size().to_string());

    // The platform aggregate.
    let mut sbp_all = XmlElement::new("xs:all");
    for i in 0..platform.segment_count() {
        sbp_all = sbp_all.child(
            XmlElement::new("xs:element")
                .attr("name", format!("segment{}", i + 1))
                .attr("type", format!("Segment{}", i + 1)),
        );
    }
    sbp_all = sbp_all.child(
        XmlElement::new("xs:element")
            .attr("name", "ca")
            .attr("type", "CA"),
    );
    for bu in platform.border_units() {
        sbp_all = sbp_all.child(
            XmlElement::new("xs:element")
                .attr("name", bu.to_string().to_lowercase())
                .attr("type", bu.to_string()),
        );
    }
    schema = schema.child(
        XmlElement::new("xs:complexType")
            .attr("name", "SBP")
            .child(sbp_all),
    );

    // The central arbiter.
    schema = schema.child(
        XmlElement::new("xs:complexType")
            .attr("name", "CA")
            .attr("periodPs", platform.ca_clock().period_ps().to_string()),
    );

    // Segments with their FUs, arbiter and BU interfaces.
    let hosted = psm.allocation().groups(platform.segment_count());
    for (i, group) in hosted.iter().enumerate() {
        let seg = SegmentId(i as u16);
        let mut all = XmlElement::new("xs:all");
        // BU interfaces: the unit on which this segment is the left
        // neighbour is its `buRight` and vice versa — this also covers a
        // ring's wrap-around unit.
        for bu in platform.border_units() {
            if bu.left == seg {
                all = all.child(
                    XmlElement::new("xs:element")
                        .attr("name", "buRight")
                        .attr("type", bu.to_string()),
                );
            }
        }
        for bu in platform.border_units() {
            if bu.right() == seg {
                all = all.child(
                    XmlElement::new("xs:element")
                        .attr("name", "buLeft")
                        .attr("type", bu.to_string()),
                );
            }
        }
        for &p in group {
            let name = &app.process(p).name;
            all = all.child(
                XmlElement::new("xs:element")
                    .attr("name", name.to_lowercase())
                    .attr("type", name.clone()),
            );
        }
        all = all.child(
            XmlElement::new("xs:element")
                .attr("name", "arbiter")
                .attr("type", format!("SA{}", i + 1)),
        );
        schema = schema.child(
            XmlElement::new("xs:complexType")
                .attr("name", format!("Segment{}", i + 1))
                .attr("segmentName", platform.segment(seg).name.clone())
                .attr(
                    "periodPs",
                    platform.segment_clock(seg).period_ps().to_string(),
                )
                .child(all),
        );
    }

    // Border-unit types, with explicit endpoints (the paper's `BU12` name
    // encoding is ambiguous beyond nine segments).
    for bu in platform.border_units() {
        schema = schema.child(
            XmlElement::new("xs:complexType")
                .attr("name", bu.to_string())
                .attr("left", (bu.left.0 + 1).to_string())
                .attr("right", (bu.right().0 + 1).to_string()),
        );
    }
    XmlDocument::new(schema)
}

/// Decode a flow element name `<target>_<items>_<order>_<ticks>`.
/// Target names may themselves contain underscores; the three trailing
/// fields are numeric.
pub fn decode_flow_name(name: &str) -> Option<(String, u64, u32, u64)> {
    let mut parts: Vec<&str> = name.rsplitn(4, '_').collect();
    if parts.len() != 4 {
        return None;
    }
    parts.reverse(); // [target, items, order, ticks]
    let target = parts[0].to_string();
    let items = parts[1].parse().ok()?;
    let order = parts[2].parse().ok()?;
    let ticks = parts[3].parse().ok()?;
    if target.is_empty() {
        return None;
    }
    Some((target, items, order, ticks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_apps::mp3;

    #[test]
    fn psdf_scheme_uses_paper_naming() {
        let xml = export_psdf(&mp3::mp3_decoder()).to_xml_string();
        // The exact element from the paper's §3.5 walkthrough.
        assert!(xml.contains("name=\"P1_576_1_250\""), "{xml}");
        assert!(xml.contains("<xs:complexType name=\"P0\" kind=\"initial\">"));
        assert!(xml.contains("xs:all"));
    }

    #[test]
    fn psm_scheme_matches_paper_structure() {
        let xml = export_psm(&mp3::three_segment_psm()).to_xml_string();
        // From the paper's PSM snippet: SBP with three segments, ca, BUs...
        assert!(xml.contains("name=\"SBP\""));
        assert!(xml.contains("name=\"segment1\" type=\"Segment1\""));
        assert!(xml.contains("name=\"ca\" type=\"CA\""));
        assert!(xml.contains("name=\"bu12\" type=\"BU12\""));
        assert!(xml.contains("name=\"bu23\" type=\"BU23\""));
        // ... and Segment1 hosting its FUs and arbiter.
        assert!(xml.contains("name=\"buRight\" type=\"BU12\""));
        assert!(xml.contains("name=\"p5\" type=\"P5\""));
        assert!(xml.contains("name=\"arbiter\" type=\"SA2\""));
        // Carried timing.
        assert!(xml.contains("periodPs=\"9009\""));
        assert!(xml.contains("packageSize=\"36\""));
    }

    #[test]
    fn decode_flow_name_variants() {
        assert_eq!(
            decode_flow_name("P1_576_1_250"),
            Some(("P1".into(), 576, 1, 250))
        );
        // Target names containing underscores decode from the right.
        assert_eq!(
            decode_flow_name("left_scale_36_2_100"),
            Some(("left_scale".into(), 36, 2, 100))
        );
        assert_eq!(decode_flow_name("P1_576_1"), None);
        assert_eq!(decode_flow_name("P1_x_1_250"), None);
        assert_eq!(decode_flow_name("_576_1_250"), None);
    }
}
