//! Render a validated model back to DSL text.
//!
//! `parse_system(to_dsl(psm))` reproduces the application, platform and
//! allocation exactly (clocks are printed as `period_ps`, which is the
//! lossless representation).

use std::fmt::Write as _;

use segbus_model::ids::{FlowId, SegmentId};
use segbus_model::mapping::Psm;
use segbus_model::psdf::{Application, CostModel, ProcessKind};

/// Render an application block.
pub fn application_to_dsl(app: &Application) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "application {} {{", app.name());
    match app.cost_model() {
        CostModel::PerItem {
            reference_package_size,
        } => {
            let _ = writeln!(out, "    cost per_item reference {reference_package_size};");
        }
        CostModel::PerPackage => {
            let _ = writeln!(out, "    cost per_package;");
        }
        CostModel::Affine {
            base_ticks,
            reference_package_size,
        } => {
            let _ = writeln!(
                out,
                "    cost affine base {base_ticks} reference {reference_package_size};"
            );
        }
    }
    for p in app.processes() {
        let suffix = match p.kind {
            ProcessKind::Initial => " initial",
            ProcessKind::Final => " final",
            ProcessKind::Internal => "",
        };
        let _ = writeln!(out, "    process {}{suffix};", p.name);
    }
    for (i, f) in app.flows().iter().enumerate() {
        let mut props = format!("items {}; order {}; ticks {};", f.items, f.order, f.ticks);
        if let Some(noise) = app.flow_noise(FlowId(i as u32)) {
            if let Some(d) = &noise.items {
                let _ = write!(props, " items_dist {d};");
            }
            if let Some(d) = &noise.ticks {
                let _ = write!(props, " ticks_dist {d};");
            }
            if let Some(d) = &noise.jitter {
                let _ = write!(props, " jitter {d};");
            }
        }
        let _ = writeln!(
            out,
            "    flow {} -> {} {{ {props} }}",
            app.process(f.src).name,
            app.process(f.dst).name,
        );
    }
    out.push_str("}\n");
    out
}

/// Render a full system (application + platform with hosts clauses).
pub fn to_dsl(psm: &Psm) -> String {
    let mut out = application_to_dsl(psm.application());
    let platform = psm.platform();
    out.push('\n');
    let _ = writeln!(out, "platform {} {{", platform.name());
    let _ = writeln!(out, "    package_size {};", platform.package_size());
    if platform.topology() != segbus_model::platform::Topology::Linear {
        let _ = writeln!(out, "    topology {};", platform.topology());
    }
    let _ = writeln!(
        out,
        "    ca {{ period_ps {}; }}",
        platform.ca_clock().period_ps()
    );
    let groups = psm.allocation().groups(platform.segment_count());
    for (i, group) in groups.iter().enumerate() {
        let seg = SegmentId(i as u16);
        let mut hosts = String::new();
        for &p in group {
            hosts.push(' ');
            hosts.push_str(&psm.application().process(p).name);
        }
        let _ = writeln!(
            out,
            "    segment {} {{ period_ps {}; hosts{hosts}; }}",
            platform.segment(seg).name,
            platform.segment_clock(seg).period_ps()
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_system;
    use segbus_apps::mp3;

    #[test]
    fn mp3_round_trip_is_lossless() {
        let psm = mp3::three_segment_psm();
        let text = to_dsl(&psm);
        let back = parse_system(&text).unwrap();
        assert_eq!(back.application(), psm.application());
        assert_eq!(back.platform(), psm.platform());
        assert_eq!(back.allocation(), psm.allocation());
    }

    #[test]
    fn stochastic_round_trip_is_lossless() {
        let src = "application a { process X initial; process Y final;
            flow X -> Y { items 360; order 1; ticks 100;
                items_dist uniform 300 400;
                ticks_dist normal 100 15 60 140;
                jitter choice 0 3 10 1; } }
           platform p { segment S { freq_mhz 100; hosts X Y; } }";
        let psm = parse_system(src).unwrap();
        let text = to_dsl(&psm);
        assert!(text.contains("items_dist uniform 300 400;"), "{text}");
        assert!(text.contains("ticks_dist normal 100 15 60 140;"), "{text}");
        assert!(text.contains("jitter choice 0 3 10 1;"), "{text}");
        let back = parse_system(&text).unwrap();
        // Application equality includes the noise sidecar.
        assert_eq!(back.application(), psm.application());
    }

    #[test]
    fn printed_text_is_readable() {
        let text = to_dsl(&mp3::three_segment_psm());
        assert!(
            text.contains("application mp3-decoder {")
                || text.contains("application mp3_decoder {")
                || text.contains("application")
        );
        assert!(text.contains("cost affine base 40 reference 36;"));
        assert!(text.contains("flow P0 -> P1 { items 576; order 1; ticks 250; }"));
        assert!(text.contains("package_size 36;"));
        assert!(text.contains("hosts P0 P1 P2 P3 P8 P9 P10;"));
    }
}
