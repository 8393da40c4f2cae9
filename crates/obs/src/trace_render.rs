//! ASCII swim-lane rendering of coherence traces — turns the simulator's
//! message records into diagrams shaped like the paper's Figures 2a/2b/3,
//! one column per network node, time flowing downward.
//!
//! ```text
//! time    Dir          C0           C1           C2
//! 120  ···GetM←─────  ●CAS
//! 145     Inv→C1,C2
//! 170                              ✕abort       ✕abort
//! ```
//!
//! Used by the Figure 2 driver (`simctl fig fig2`) and the
//! `coherence_trace` example; the Chrome trace-event export
//! ([`crate::chrome`]) and TSV are the machine-readable forms.

use coherence::TraceEvent;
use std::collections::BTreeMap;

/// One rendered row: a timestamp plus a short annotation per lane.
#[derive(Debug, Default, Clone)]
struct Row {
    cells: BTreeMap<String, Vec<String>>,
}

/// Renders a trace as an ASCII swim-lane table. `lanes` fixes the column
/// order (e.g. `["Dir", "C0", "C1", "C2"]`); events involving other nodes
/// are dropped. Returns the rendered string.
pub fn render_lanes(trace: &[TraceEvent], lanes: &[&str], max_rows: usize) -> String {
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    let mut note = |t: u64, lane: &str, text: String| {
        rows.entry(t)
            .or_default()
            .cells
            .entry(lane.to_string())
            .or_default()
            .push(text);
    };
    for e in trace {
        match e {
            TraceEvent::Msg {
                sent,
                recv,
                src,
                dst,
                kind,
                ..
            } => {
                if lanes.contains(&src.as_str()) {
                    note(*sent, src, format!("{kind}→{dst}"));
                }
                if lanes.contains(&dst.as_str()) {
                    note(*recv, dst, format!("{kind}←{src}"));
                }
            }
            TraceEvent::Tx {
                time,
                core,
                what,
                detail,
            } => {
                let lane = format!("C{core}");
                if lanes.contains(&lane.as_str()) {
                    let mark = match *what {
                        "commit" => "✓commit".to_string(),
                        "abort" => format!("✕abort({detail:#x})"),
                        other => other.to_string(),
                    };
                    note(*time, &lane, mark);
                }
            }
            TraceEvent::Op { .. } => {}
            TraceEvent::Comp {
                time,
                name,
                what,
                core,
                ..
            } => {
                // Component actions land in the lane of the core they
                // act on (the component itself has no column).
                let lane = format!("C{core}");
                if lanes.contains(&lane.as_str()) {
                    note(*time, &lane, format!("⚡{name}:{what}"));
                }
            }
        }
    }

    let width = 26usize;
    let mut out = String::new();
    out.push_str(&format!("{:>8} ", "time"));
    for l in lanes {
        out.push_str(&format!("{l:<width$}"));
    }
    out.push('\n');
    for (t, row) in rows.iter().take(max_rows) {
        out.push_str(&format!("{t:>8} "));
        for l in lanes {
            let cell = row.cells.get(*l).map(|v| v.join(", ")).unwrap_or_default();
            let mut cell = cell;
            if cell.chars().count() >= width {
                cell = cell.chars().take(width - 2).collect::<String>() + "…";
            }
            out.push_str(&format!("{cell:<width$}"));
        }
        // Trim trailing spaces for tidy output.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    if rows.len() > max_rows {
        out.push_str(&format!("... ({} more rows)\n", rows.len() - max_rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(sent: u64, recv: u64, src: &str, dst: &str, kind: &'static str) -> TraceEvent {
        TraceEvent::Msg {
            sent,
            recv,
            src: src.to_string(),
            dst: dst.to_string(),
            kind,
            line: 0x10,
        }
    }

    #[test]
    fn renders_sends_and_receives_in_lanes() {
        let trace = vec![
            msg(10, 35, "C0", "Dir", "GetM"),
            msg(35, 60, "Dir", "C1", "Inv"),
            TraceEvent::Tx {
                time: 60,
                core: 1,
                what: "abort",
                detail: 0x6,
            },
        ];
        let s = render_lanes(&trace, &["Dir", "C0", "C1"], 100);
        assert!(s.contains("GetM→Dir"), "send annotation missing:\n{s}");
        assert!(s.contains("GetM←C0"), "receive annotation missing:\n{s}");
        assert!(s.contains("Inv←Dir"), "inv delivery missing:\n{s}");
        assert!(s.contains("✕abort(0x6)"), "abort mark missing:\n{s}");
        // Time column ordered.
        let t10 = s.find("      10").unwrap();
        let t60 = s.find("      60").unwrap();
        assert!(t10 < t60);
    }

    #[test]
    fn truncates_long_traces() {
        let trace: Vec<TraceEvent> = (0..50)
            .map(|i| msg(i, i + 5, "C0", "Dir", "GetS"))
            .collect();
        let s = render_lanes(&trace, &["Dir", "C0"], 10);
        assert!(s.contains("more rows"));
    }

    #[test]
    fn ignores_nodes_outside_lanes() {
        let trace = vec![msg(1, 2, "C7", "C9", "Data")];
        let s = render_lanes(&trace, &["Dir", "C0"], 10);
        assert!(!s.contains("Data"), "out-of-lane event leaked:\n{s}");
    }

    #[test]
    fn real_fig2a_trace_renders() {
        use absmem::ThreadCtx;
        use coherence::{Machine, MachineConfig, Program, SimCtx};
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        use std::sync::Arc;
        let mut cfg = MachineConfig::single_socket(3);
        cfg.trace = true;
        let shared = Arc::new(AtomicU64::new(0));
        let programs: Vec<Program> = (0..3)
            .map(|i| {
                let shared = Arc::clone(&shared);
                Box::new(move |ctx: &mut SimCtx| {
                    let a = shared.load(SeqCst);
                    let old = ctx.read(a);
                    ctx.barrier();
                    ctx.cas(a, old, i as u64 + 1);
                }) as Program
            })
            .collect();
        let s2 = Arc::clone(&shared);
        let report = Machine::new(cfg).run(
            Box::new(move |ctx| {
                let a = ctx.alloc(1);
                ctx.write(a, 0);
                s2.store(a, SeqCst);
            }),
            programs,
        );
        let s = render_lanes(&report.trace, &["Dir", "C0", "C1", "C2"], 200);
        assert!(s.contains("GetM"), "expected GetM traffic:\n{s}");
        assert!(
            s.contains("Fwd-GetM"),
            "expected the serialization chain:\n{s}"
        );
    }
}
