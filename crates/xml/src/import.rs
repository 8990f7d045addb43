//! Emulator-side import of the generated XML schemes (paper §3.5).
//!
//! The emulator "parses the generated XMLs and builds the required
//! structure of platform and allocation of resources". [`import_psdf`]
//! rebuilds the application; [`import_psm`] rebuilds the platform and the
//! allocation against a given application (the PSM references processes by
//! name).

use segbus_model::diag::SegbusError;
use segbus_model::ids::SegmentId;
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::{Platform, Topology};
use segbus_model::psdf::{Application, CostModel, Flow, Process};
use segbus_model::stochastic::{Dist, FlowNoise};
use segbus_model::time::ClockDomain;

use crate::doc::{XmlDocument, XmlElement};
use crate::m2t::decode_flow_name;

/// Scheme-structure failure (`X002`): a required element or attribute is
/// missing, misnamed or malformed.
fn err(msg: impl Into<String>) -> SegbusError {
    SegbusError::new("X002", format!("scheme import error: {}", msg.into()))
}

/// Scheme-value failure (`X003`): an attribute is present but its value is
/// outside the domain the model accepts.
fn value_err(msg: impl Into<String>) -> SegbusError {
    SegbusError::new("X003", format!("scheme import error: {}", msg.into()))
}

/// Stochastic-annotation failure (`X004`): an `itemsDist`/`ticksDist`/
/// `jitter` attribute does not encode a usable distribution.
fn dist_err(msg: impl Into<String>) -> SegbusError {
    SegbusError::new("X004", format!("scheme import error: {}", msg.into()))
}

fn req_attr<'a>(el: &'a XmlElement, key: &str) -> Result<&'a str, SegbusError> {
    el.attribute(key)
        .ok_or_else(|| err(format!("<{}> lacks the {key:?} attribute", el.name)))
}

fn parse_num<T: std::str::FromStr>(el: &XmlElement, key: &str) -> Result<T, SegbusError> {
    req_attr(el, key)?.parse().map_err(|_| {
        value_err(format!(
            "attribute {key:?} of <{}> is not a number in range",
            el.name
        ))
    })
}

/// Rebuild an [`Application`] from a PSDF scheme.
pub fn import_psdf(doc: &XmlDocument) -> Result<Application, SegbusError> {
    let schema = &doc.root;
    if schema.name != "xs:schema" {
        return Err(err("root element must be xs:schema"));
    }
    let name = req_attr(schema, "name")?;
    let mut app = Application::new(name);

    let cost_model = match schema.attribute("costModel") {
        // `NonZeroU32::from_str` rejects zero, so a `costReference="0"`
        // surfaces as the same typed value error as any other bad number.
        None | Some("perItem") => CostModel::PerItem {
            reference_package_size: schema
                .attribute("costReference")
                .map(|v| v.parse().map_err(|_| value_err("bad costReference")))
                .transpose()?
                .unwrap_or(CostModel::REFERENCE_36),
        },
        Some("perPackage") => CostModel::PerPackage,
        Some("affine") => CostModel::Affine {
            base_ticks: parse_num(schema, "costBase")?,
            reference_package_size: parse_num(schema, "costReference")?,
        },
        Some(other) => return Err(err(format!("unknown costModel {other:?}"))),
    };
    app.set_cost_model(cost_model);

    // First pass: processes (document order defines the ids).
    for ct in schema.elements_named("xs:complexType") {
        let pname = req_attr(ct, "name")?;
        let process = match ct.attribute("kind") {
            Some("initial") => Process::initial(pname),
            Some("final") => Process::final_(pname),
            None | Some("process") => Process::new(pname),
            Some(other) => return Err(err(format!("unknown process kind {other:?}"))),
        };
        app.add_process(process);
    }

    // Second pass: flows, restored to their global order via the `seq`
    // attribute (falling back to document order when absent).
    let mut flows: Vec<(u32, Flow, FlowNoise)> = Vec::new();
    let mut doc_order = 0u32;
    for ct in schema.elements_named("xs:complexType") {
        let src_name = req_attr(ct, "name")?;
        let src = app
            .process_by_name(src_name)
            .ok_or_else(|| err(format!("process {src_name:?} vanished between passes")))?;
        for all in ct.elements_named("xs:all") {
            for el in all.elements_named("xs:element") {
                let fname = req_attr(el, "name")?;
                let (target, items, order, ticks) = decode_flow_name(fname).ok_or_else(|| {
                    err(format!(
                        "flow element {fname:?} is not of the form <target>_<items>_<order>_<ticks>"
                    ))
                })?;
                let dst = app.process_by_name(&target).ok_or_else(|| {
                    err(format!("flow {fname:?} targets unknown process {target:?}"))
                })?;
                let seq = match el.attribute("seq") {
                    Some(v) => v
                        .parse()
                        .map_err(|_| value_err(format!("bad seq on flow {fname:?}")))?,
                    None => doc_order,
                };
                doc_order += 1;
                let mut noise = FlowNoise::default();
                for (attr, slot) in [
                    ("itemsDist", &mut noise.items),
                    ("ticksDist", &mut noise.ticks),
                    ("jitter", &mut noise.jitter),
                ] {
                    if let Some(v) = el.attribute(attr) {
                        *slot = Some(
                            Dist::decode(v)
                                .map_err(|e| dist_err(format!("{attr} on flow {fname:?}: {e}")))?,
                        );
                    }
                }
                flows.push((seq, Flow::new(src, dst, items, order, ticks), noise));
            }
        }
    }
    flows.sort_by_key(|(seq, _, _)| *seq);
    for (_, f, noise) in flows {
        let id = app.add_flow(f).map_err(SegbusError::from)?;
        if !noise.is_empty() {
            // Parameter validation (inverted ranges, zero-able items
            // distributions, …) lives in the model layer; surface it here
            // under the front end's own code.
            app.set_flow_noise(id, noise)
                .map_err(|e| dist_err(e.to_string()))?;
        }
    }
    Ok(app)
}

/// Rebuild the platform and allocation from a PSM scheme, resolving
/// process references against `app`.
pub fn import_psm(
    doc: &XmlDocument,
    app: &Application,
) -> Result<(Platform, Allocation), SegbusError> {
    let schema = &doc.root;
    if schema.name != "xs:schema" {
        return Err(err("root element must be xs:schema"));
    }
    let name = req_attr(schema, "name")?;
    let package_size: u32 = parse_num(schema, "packageSize")?;

    let ca_ct = schema
        .elements_named("xs:complexType")
        .find(|c| c.attribute("name") == Some("CA"))
        .ok_or_else(|| err("missing CA complexType"))?;
    let ca_period: u64 = parse_num(ca_ct, "periodPs")?;

    // Segments in numeric order.
    let mut segments: Vec<(usize, &XmlElement)> = Vec::new();
    for ct in schema.elements_named("xs:complexType") {
        let n = req_attr(ct, "name")?;
        if let Some(idx) = n.strip_prefix("Segment") {
            let idx: usize = idx
                .parse()
                .map_err(|_| err(format!("bad segment type name {n:?}")))?;
            segments.push((idx, ct));
        }
    }
    segments.sort_by_key(|(i, _)| *i);
    if segments.is_empty() {
        return Err(err("the scheme defines no segments"));
    }
    for (want, (got, _)) in segments.iter().enumerate() {
        if *got != want + 1 {
            return Err(err(format!(
                "segment numbering gap: expected Segment{}, found Segment{got}",
                want + 1
            )));
        }
    }

    let topology = match schema.attribute("topology") {
        None | Some("linear") => Topology::Linear,
        Some("ring") => Topology::Ring,
        Some(other) => return Err(err(format!("unknown topology {other:?}"))),
    };
    let ca_clock = ClockDomain::try_from_period_ps(ca_period)
        .ok_or_else(|| value_err("CA periodPs must be non-zero"))?;
    let mut builder = Platform::builder(name)
        .package_size(package_size)
        .topology(topology)
        .ca_clock(ca_clock);
    for (i, ct) in &segments {
        let period: u64 = parse_num(ct, "periodPs")?;
        let clock = ClockDomain::try_from_period_ps(period)
            .ok_or_else(|| value_err(format!("Segment{i} periodPs must be non-zero")))?;
        let seg_name = ct
            .attribute("segmentName")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("Segment{i}"));
        builder = builder.segment(seg_name, clock);
    }
    let platform = builder.build().map_err(SegbusError::from)?;

    // Allocation: every FU element of every segment.
    let mut alloc = Allocation::new(platform.segment_count());
    for (i, ct) in &segments {
        let seg = SegmentId((*i - 1) as u16);
        for all in ct.elements_named("xs:all") {
            for el in all.elements_named("xs:element") {
                let ename = req_attr(el, "name")?;
                if ename == "arbiter" || ename == "buLeft" || ename == "buRight" {
                    continue;
                }
                let ty = req_attr(el, "type")?;
                let p = app
                    .process_by_name(ty)
                    .ok_or_else(|| err(format!("segment {i} hosts unknown process {ty:?}")))?;
                alloc.assign(p, seg);
            }
        }
    }
    Ok((platform, alloc))
}

/// Import both schemes and assemble a validated [`Psm`].
pub fn import_system(psdf: &XmlDocument, psm: &XmlDocument) -> Result<Psm, SegbusError> {
    let app = import_psdf(psdf)?;
    let (platform, alloc) = import_psm(psm, &app)?;
    Psm::new(platform, app, alloc).map_err(SegbusError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::m2t::{export_psdf, export_psm};
    use crate::parse;
    use segbus_apps::mp3;

    #[test]
    fn psdf_round_trip_is_lossless() {
        let app = mp3::mp3_decoder();
        let doc = export_psdf(&app);
        let back = import_psdf(&doc).unwrap();
        assert_eq!(back, app);
        // Also through the textual form.
        let reparsed = parse(&doc.to_xml_string()).unwrap();
        assert_eq!(import_psdf(&reparsed).unwrap(), app);
    }

    #[test]
    fn stochastic_annotations_round_trip() {
        use segbus_model::ids::FlowId;
        let mut app = mp3::mp3_decoder();
        app.set_flow_noise(
            FlowId(0),
            FlowNoise {
                items: Some(Dist::Uniform { lo: 500, hi: 600 }),
                ticks: Some(Dist::Normal {
                    mean: 250,
                    std: 30,
                    lo: 150,
                    hi: 350,
                }),
                jitter: Some(Dist::Choice(vec![(0, 3), (10, 1)])),
            },
        )
        .unwrap();
        let doc = crate::m2t::export_psdf(&app);
        let xml = doc.to_xml_string();
        assert!(xml.contains("itemsDist=\"uniform:500:600\""), "{xml}");
        assert!(xml.contains("jitter=\"choice:0:3:10:1\""), "{xml}");
        // Application equality includes the noise sidecar.
        let back = import_psdf(&parse(&xml).unwrap()).unwrap();
        assert_eq!(back, app);
    }

    #[test]
    fn bad_distributions_are_x004() {
        let doc = |attr: &str| {
            parse(&format!(
                r#"<xs:schema name="x">
                     <xs:complexType name="A" kind="initial">
                       <xs:all><xs:element name="B_36_1_10" seq="0" {attr}/></xs:all>
                     </xs:complexType>
                     <xs:complexType name="B" kind="final"/>
                   </xs:schema>"#
            ))
            .unwrap()
        };
        let e = import_psdf(&doc("ticksDist=\"poisson:4\"")).unwrap_err();
        assert_eq!(e.code, "X004");
        assert!(e.message.contains("poisson"), "{e}");
        let e = import_psdf(&doc("ticksDist=\"uniform:5:4\"")).unwrap_err();
        assert_eq!(e.code, "X004");
        let e = import_psdf(&doc("itemsDist=\"uniform:0:9\"")).unwrap_err();
        assert_eq!(e.code, "X004");
        let e = import_psdf(&doc("jitter=\"choice:1\"")).unwrap_err();
        assert_eq!(e.code, "X004");
        // A well-formed annotation still imports.
        assert!(import_psdf(&doc("jitter=\"constant:5\"")).is_ok());
    }

    #[test]
    fn psm_round_trip_is_lossless() {
        let psm = mp3::three_segment_psm();
        let doc = export_psm(&psm);
        let (platform, alloc) = import_psm(&doc, psm.application()).unwrap();
        assert_eq!(&platform, psm.platform());
        assert_eq!(&alloc, psm.allocation());
    }

    #[test]
    fn full_system_import_runs_in_the_emulator() {
        let psm = mp3::three_segment_psm();
        let psdf_doc = parse(&export_psdf(psm.application()).to_xml_string()).unwrap();
        let psm_doc = parse(&export_psm(&psm).to_xml_string()).unwrap();
        let system = import_system(&psdf_doc, &psm_doc).unwrap();
        assert_eq!(system.matrix(), psm.matrix());
        assert_eq!(system.platform().package_size(), 36);
    }

    #[test]
    fn large_grid_round_trips_through_xml() {
        use segbus_apps::generators::{block_allocation, grid, uniform_platform, GeneratorConfig};
        // 1,600 processes, 3,120 flows: the scheme emitter groups flows by
        // source in one pass and the importer resolves names through the
        // application's index, so this stays fast even in debug builds.
        let app = grid(40, 40, GeneratorConfig::default());
        let alloc = block_allocation(&app, 8);
        let psm = Psm::new(uniform_platform(8, 36), app, alloc).unwrap();
        let psdf_doc = parse(&export_psdf(psm.application()).to_xml_string()).unwrap();
        let psm_doc = parse(&export_psm(&psm).to_xml_string()).unwrap();
        assert_eq!(import_system(&psdf_doc, &psm_doc).unwrap(), psm);
    }

    #[test]
    fn missing_attributes_are_reported() {
        let doc = parse("<xs:schema name=\"x\"><xs:complexType/></xs:schema>").unwrap();
        let e = import_psdf(&doc).unwrap_err();
        assert!(e.to_string().contains("name"), "{e}");
    }

    #[test]
    fn unknown_flow_target_is_reported() {
        let doc = parse(
            r#"<xs:schema name="x">
                 <xs:complexType name="A" kind="initial">
                   <xs:all><xs:element name="GHOST_36_1_10"/></xs:all>
                 </xs:complexType>
               </xs:schema>"#,
        )
        .unwrap();
        let e = import_psdf(&doc).unwrap_err();
        assert!(e.to_string().contains("GHOST"), "{e}");
    }

    #[test]
    fn bad_flow_encoding_is_reported() {
        let doc = parse(
            r#"<xs:schema name="x">
                 <xs:complexType name="A">
                   <xs:all><xs:element name="nonsense"/></xs:all>
                 </xs:complexType>
               </xs:schema>"#,
        )
        .unwrap();
        assert!(import_psdf(&doc).is_err());
    }

    #[test]
    fn psm_requires_known_processes() {
        let psm = mp3::three_segment_psm();
        let doc = export_psm(&psm);
        let mut other = Application::new("other");
        other.add_process(Process::new("X"));
        let e = import_psm(&doc, &other).unwrap_err();
        assert!(e.to_string().contains("unknown process"), "{e}");
    }

    #[test]
    fn segment_numbering_gaps_rejected() {
        let doc = parse(
            r#"<xs:schema name="p" packageSize="36">
                 <xs:complexType name="CA" periodPs="9009"/>
                 <xs:complexType name="Segment2" periodPs="10989"><xs:all/></xs:complexType>
               </xs:schema>"#,
        )
        .unwrap();
        let app = Application::new("a");
        let e = import_psm(&doc, &app).unwrap_err();
        assert!(e.to_string().contains("numbering gap"), "{e}");
    }
}
