//! The independent checks every output is held to: the seed
//! `ReferenceEmulator` for estimates, and `segbus_rtl::RtlSimulator` for
//! the estimator's error against the cycle-level reference. Everything
//! here runs off the clock.

use segbus_core::{EmulatorConfig, ReferenceEmulator};
use segbus_model::mapping::Psm;
use segbus_rtl::RtlSimulator;

use crate::client::Response;
use crate::metrics::RunReport;

/// What a correct `emulate` response carries for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Simulated makespan, ps.
    pub makespan_ps: u64,
    /// Simulated execution time, ps.
    pub execution_ps: u64,
}

/// Run the reference emulator on a model the benchmark built (not the
/// server's parse of its text).
pub fn expected(psm: &Psm, frames: u64) -> Result<Expected, String> {
    let report = ReferenceEmulator::new(EmulatorConfig::default())
        .try_run_frames(psm, frames)
        .map_err(|e| format!("reference emulator rejected a generated model: {e}"))?;
    Ok(Expected {
        makespan_ps: report.makespan.0,
        execution_ps: report.execution_time().0,
    })
}

/// Check one response against its expected values. `cached` is the
/// cache flag the workload's design implies (`true` for warm hits,
/// `false` for first sights and distinct cold jobs).
pub fn check(resp: &Response, want: &Expected, cached: bool) -> Result<(), String> {
    if !resp.ok {
        return Err(format!(
            "request {} failed with {}",
            resp.id,
            resp.code.as_deref().unwrap_or("no code")
        ));
    }
    if resp.makespan_ps != Some(want.makespan_ps) {
        return Err(format!(
            "request {}: makespan_ps {:?}, reference {}",
            resp.id, resp.makespan_ps, want.makespan_ps
        ));
    }
    if resp.execution_ps != Some(want.execution_ps) {
        return Err(format!(
            "request {}: execution_time_ps {:?}, reference {}",
            resp.id, resp.execution_ps, want.execution_ps
        ));
    }
    if resp.cached != cached {
        return Err(format!(
            "request {}: cached = {}, expected {cached}",
            resp.id, resp.cached
        ));
    }
    Ok(())
}

/// Mean of |estimate − RTL| / RTL over `(model, frames, estimated
/// execution time)` triples, in percent.
pub fn rtl_error_pct(cases: &[(&Psm, u64, u64)]) -> Result<f64, String> {
    if cases.is_empty() {
        return Err("no models for the RTL comparison".into());
    }
    let rtl = RtlSimulator::default();
    let mut sum = 0.0;
    for &(psm, frames, est) in cases {
        let actual = rtl
            .run_frames(psm, frames)
            .map_err(|e| format!("RTL simulation failed: {e:?}"))?
            .execution_time()
            .0 as f64;
        sum += (est as f64 - actual).abs() / actual * 100.0;
    }
    Ok(sum / cases.len() as f64)
}

/// Set `estimate_error_pct` from [`rtl_error_pct`], or record why it
/// could not be measured.
pub fn set_rtl_error(report: &mut RunReport, cases: &[(&Psm, u64, u64)]) {
    match rtl_error_pct(cases) {
        Ok(pct) => report.set("estimate_error_pct", pct, "%"),
        Err(e) => report.error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::scan_response;
    use crate::inputs::warm_models;

    #[test]
    fn a_corrupted_expected_value_is_caught() {
        let job = &warm_models(11, 1).expect("generates")[0];
        let want = job.expected;
        let line = format!(
            "{{\"id\":5,\"ok\":true,\"cached\":true,\"digest\":\"00\",\"makespan_ps\":{},\"execution_time_ps\":{},\"report\":\"x\"}}",
            want.makespan_ps, want.execution_ps
        );
        let resp = scan_response(&line).expect("scans");
        assert_eq!(check(&resp, &want, true), Ok(()));

        let corrupted = Expected {
            makespan_ps: want.makespan_ps + 1,
            ..want
        };
        assert!(check(&resp, &corrupted, true).is_err());
        let corrupted = Expected {
            execution_ps: want.execution_ps ^ 1,
            ..want
        };
        assert!(check(&resp, &corrupted, true).is_err());
        assert!(check(&resp, &want, false).is_err(), "wrong cache flag");
        let shed = scan_response("{\"id\":5,\"ok\":false,\"code\":\"S005\",\"error\":\"x\"}")
            .expect("scans");
        assert!(check(&shed, &want, false).is_err());
    }

    #[test]
    fn rtl_error_is_small_but_nonzero_on_family_models() {
        let jobs = warm_models(2, 5).expect("generates");
        let cases: Vec<(&Psm, u64, u64)> = jobs
            .iter()
            .map(|j| {
                (
                    j.psm.as_ref().expect("small"),
                    j.frames,
                    j.expected.execution_ps,
                )
            })
            .collect();
        let err = rtl_error_pct(&cases).expect("RTL runs");
        assert!(err > 0.0 && err < 20.0, "error {err}%");
    }
}
