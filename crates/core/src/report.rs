//! The emulation result: every counter the paper's tool prints, plus the
//! derived execution-time figures.

use std::fmt::Write as _;

use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::platform::BorderUnitRef;
use segbus_model::time::{ClockDomain, Picos};

use crate::counters::{BuCounters, CaCounters, FuTimes, SaCounters};
use crate::trace::TraceLog;

/// Complete result of one emulation run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmulationReport {
    /// One entry per segment arbiter.
    pub sas: Vec<SaCounters>,
    /// The central arbiter.
    pub ca: CaCounters,
    /// One entry per border unit (`BU12`, `BU23`, …).
    pub bus: Vec<BuCounters>,
    /// The border units, parallel to [`EmulationReport::bus`].
    pub bu_refs: Vec<BorderUnitRef>,
    /// Per-process observed schedule.
    pub fus: Vec<FuTimes>,
    /// Per-segment clock domains (copied from the platform for reporting).
    pub segment_clocks: Vec<ClockDomain>,
    /// The CA clock domain.
    pub ca_clock: ClockDomain,
    /// Package size used by the run.
    pub package_size: u32,
    /// Global instant of the last activity (quiescence).
    pub makespan: Picos,
    /// Optional package-level trace.
    pub trace: Option<TraceLog>,
}

impl EmulationReport {
    /// A blank report for buffer reuse: pass it (or any previous report)
    /// to [`run_plan_into`] to have the run's result assembled into the
    /// existing vectors instead of freshly allocated ones. Placement
    /// search holds one such report per evaluator and amortises report
    /// assembly across thousands of candidate emulations.
    ///
    /// [`run_plan_into`]: crate::Engine::run_plan_into
    pub fn empty() -> EmulationReport {
        EmulationReport {
            sas: Vec::new(),
            ca: CaCounters::default(),
            bus: Vec::new(),
            bu_refs: Vec::new(),
            fus: Vec::new(),
            segment_clocks: Vec::new(),
            ca_clock: ClockDomain::from_period_ps(1),
            package_size: 0,
            makespan: Picos::ZERO,
            trace: None,
        }
    }

    /// The paper's total execution time:
    /// `max(t_SA1, …, t_SAn, t_CA)` where `t_X = TCT_X × period_X`.
    pub fn execution_time(&self) -> Picos {
        let mut t = self.ca.execution_time(self.ca_clock);
        for (sa, clk) in self.sas.iter().zip(&self.segment_clocks) {
            t = t.max(sa.execution_time(*clk));
        }
        t
    }

    /// Execution time of one SA.
    pub fn sa_execution_time(&self, s: SegmentId) -> Picos {
        self.sas[s.index()].execution_time(self.segment_clocks[s.index()])
    }

    /// Total packages that crossed any border unit.
    pub fn inter_segment_packages(&self) -> u64 {
        self.bus.iter().map(|b| b.total_in()).sum()
    }

    /// Total intra-segment requests over all SAs.
    pub fn total_intra_requests(&self) -> u64 {
        self.sas.iter().map(|s| s.intra_requests).sum()
    }

    /// Observed start/end of one process, if it ever ran.
    pub fn fu(&self, p: ProcessId) -> &FuTimes {
        &self.fus[p.index()]
    }

    /// `true` once every process raised its status flag (the monitor's end
    /// condition, §3.3).
    pub fn all_flags_raised(&self) -> bool {
        self.fus.iter().all(|f| f.flag)
    }

    /// Render the report in the layout of the paper's §4 print-out.
    pub fn paper_style(&self) -> String {
        let mut out = String::new();
        for (i, fu) in self.fus.iter().enumerate() {
            if let (Some(s), Some(e)) = (fu.start, fu.end) {
                let _ = writeln!(out, "P{i}, Start Time = {}ps, End Time = {}ps", s.0, e.0);
            } else if let Some(r) = fu.last_received {
                let _ = writeln!(out, "P{i} received last package at {}ps", r.0);
            }
        }
        let _ = writeln!(out, "CA TCT = {}", self.ca.tct);
        let _ = writeln!(
            out,
            "Execution time = {}ps @ {:.2}MHz",
            self.execution_time().0,
            self.ca_clock.mhz()
        );
        for (i, bu) in self.bus.iter().enumerate() {
            let r = self.bu_refs[i];
            let _ = writeln!(
                out,
                "{r}:  Total input packages = {}, Total output packages = {}",
                bu.total_in(),
                bu.total_out()
            );
            let _ = writeln!(
                out,
                "    Package Received from {} = {}, Package Transfered to {} = {}",
                r.left, bu.received_from_left, r.left, bu.transferred_to_left
            );
            let _ = writeln!(
                out,
                "    Package Received from {} = {}, Package Transfered to {} = {}",
                r.right(),
                bu.received_from_right,
                r.right(),
                bu.transferred_to_right
            );
            let _ = writeln!(out, "    TCT = {}", bu.tct);
        }
        for (i, sa) in self.sas.iter().enumerate() {
            let s = SegmentId(i as u16);
            let _ = writeln!(
                out,
                "{s}: Packets transfered to Left = {}, Packets transfered to Right = {}",
                sa.packets_to_left, sa.packets_to_right
            );
        }
        for (i, sa) in self.sas.iter().enumerate() {
            let s = SegmentId(i as u16);
            let _ = writeln!(
                out,
                "SA{}: TCT = {}, Total intra-segment requests = {}, Total inter-segment requests = {}, Execution Time = {}ps @ {:.2}MHz",
                i + 1,
                sa.tct,
                sa.intra_requests,
                sa.inter_requests,
                self.sa_execution_time(s).0,
                self.segment_clocks[i].mhz()
            );
        }
        out
    }

    /// The Fig. 10 timeline series: `(process, start, end)` per process,
    /// using the producer start/end where available and the last-received
    /// instant for pure sinks.
    pub fn timeline(&self) -> Vec<(ProcessId, Picos, Picos)> {
        self.fus
            .iter()
            .enumerate()
            .filter_map(|(i, fu)| {
                let p = ProcessId(i as u32);
                match (fu.start, fu.end, fu.last_received) {
                    (Some(s), Some(e), _) => Some((p, s, e)),
                    (None, None, Some(r)) => Some((p, r, r)),
                    _ => None,
                }
            })
            .collect()
    }

    /// The BU bottleneck analysis of §4: per BU `(UP, TCT, W̄P)`.
    pub fn bu_analysis(&self) -> Vec<(BorderUnitRef, u64, u64, f64)> {
        self.bus
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    self.bu_refs[i],
                    b.useful_period(self.package_size),
                    b.tct,
                    b.avg_waiting_period(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EmulationReport {
        EmulationReport {
            sas: vec![
                SaCounters {
                    tct: 1000,
                    intra_requests: 5,
                    ..Default::default()
                },
                SaCounters {
                    tct: 2000,
                    inter_requests: 2,
                    ..Default::default()
                },
            ],
            ca: CaCounters {
                tct: 3000,
                inter_requests: 2,
                ..Default::default()
            },
            bus: vec![BuCounters {
                received_from_left: 2,
                transferred_to_right: 2,
                tct: 150,
                waiting_ticks: 6,
                ..Default::default()
            }],
            bu_refs: vec![BorderUnitRef::right_of(SegmentId(0))],
            fus: vec![
                FuTimes {
                    start: Some(Picos(10)),
                    end: Some(Picos(100)),
                    flag: true,
                    packages_sent: 2,
                    ..Default::default()
                },
                FuTimes {
                    last_received: Some(Picos(120)),
                    flag: true,
                    packages_received: 2,
                    ..Default::default()
                },
            ],
            segment_clocks: vec![ClockDomain::from_mhz(100.0), ClockDomain::from_mhz(100.0)],
            ca_clock: ClockDomain::from_mhz(200.0),
            package_size: 36,
            makespan: Picos(125),
            trace: None,
        }
    }

    #[test]
    fn execution_time_is_max_over_arbiters() {
        let r = sample();
        // SA1: 1000 × 10000 ps; SA2: 2000 × 10000; CA: 3000 × 5000.
        assert_eq!(r.sa_execution_time(SegmentId(0)), Picos(10_000_000));
        assert_eq!(r.sa_execution_time(SegmentId(1)), Picos(20_000_000));
        assert_eq!(r.ca.execution_time(r.ca_clock), Picos(15_000_000));
        assert_eq!(r.execution_time(), Picos(20_000_000));
    }

    #[test]
    fn aggregates() {
        let r = sample();
        assert_eq!(r.inter_segment_packages(), 2);
        assert_eq!(r.total_intra_requests(), 5);
        assert!(r.all_flags_raised());
    }

    #[test]
    fn paper_style_mentions_every_element() {
        let s = sample().paper_style();
        assert!(s.contains("CA TCT = 3000"));
        assert!(s.contains("BU12"));
        assert!(s.contains("SA1:"));
        assert!(s.contains("SA2:"));
        assert!(s.contains("P0, Start Time = 10ps"));
        assert!(s.contains("P1 received last package at 120ps"));
        assert!(s.contains("Execution time = 20000000ps"));
    }

    #[test]
    fn timeline_covers_producers_and_sinks() {
        let t = sample().timeline();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], (ProcessId(0), Picos(10), Picos(100)));
        assert_eq!(t[1], (ProcessId(1), Picos(120), Picos(120)));
    }

    #[test]
    fn bu_analysis_matches_counters() {
        let r = sample();
        let a = r.bu_analysis();
        assert_eq!(a.len(), 1);
        let (bu, up, tct, wp) = a[0];
        assert_eq!(bu.to_string(), "BU12");
        assert_eq!(up, 2 * 36 * 2);
        assert_eq!(tct, 150);
        assert!((wp - 3.0).abs() < 1e-9);
    }
}
