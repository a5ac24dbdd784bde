//! `rh-benchmark compare A.json B.json`: B against A by the benchmark's
//! own rules. Every end-to-end metric must stay within its bound, every
//! exact counter must be equal, and a metric whose observed spread is
//! wider than its bound is reported as unresolved, not as unchanged.
//! Exit code 0 only when every row is ok: 1 when anything regressed,
//! moved or is missing, 3 when the worst is an unresolved row, 2 when the
//! documents are not of the same seed and size.

use crate::json::Json;
use crate::metrics::{self, Better, Def};
use crate::util;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Unresolved,
    Regression,
    ExactMismatch,
    Missing,
}

fn value(metric: Option<&Json>) -> Option<f64> {
    metric.and_then(|m| m.get("value")).and_then(Json::as_f64)
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map_or(Vec::new(), |a| a.iter().filter_map(Json::as_f64).collect())
}

/// Judges one metric of `def` from its entries in the two documents.
pub fn judge(def: &Def, a: Option<&Json>, b: Option<&Json>) -> (Verdict, f64, f64) {
    let (Some(va), Some(vb)) = (value(a), value(b)) else {
        return (Verdict::Missing, 0.0, 0.0);
    };
    let worse_by = match def.better {
        Better::Lower => (vb - va) / va.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (va - vb) / va.abs().max(f64::MIN_POSITIVE),
    };
    let spread = [a, b].into_iter().flatten().map(|m| util::iqr_share(&samples(m))).fold(0.0, f64::max);
    let verdict = match def.bound {
        _ if def.exact && va != vb => Verdict::ExactMismatch,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Regression,
        _ => Verdict::Within,
    };
    (verdict, worse_by, spread)
}

/// One line of the report, and the verdict it states.
fn line(workload: &str, def: &Def, a: Option<&Json>, b: Option<&Json>) -> (String, Verdict) {
    let (verdict, worse_by, spread) = judge(def, a, b);
    let word = match verdict {
        Verdict::Within => "ok",
        Verdict::Unresolved => "UNRESOLVED (spread wider than the bound)",
        Verdict::Regression => "REGRESSION",
        Verdict::ExactMismatch => "EXACT COUNTER MOVED",
        Verdict::Missing => "MISSING",
    };
    let text = format!(
        "{workload:<16} {:<34} {:>16.4} -> {:>16.4} {:<9} worse by {:>7.2}%  spread {:>6.2}%  bound {:>5}  {word}\n",
        def.name,
        value(a).unwrap_or(f64::NAN),
        value(b).unwrap_or(f64::NAN),
        def.unit,
        worse_by * 100.0,
        spread * 100.0,
        def.bound.map_or("-".into(), |b| format!("{:.1}%", b * 100.0)),
    );
    (text, verdict)
}

/// What a comparison comes to; the process exits with [`Summary::code`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Summary {
    /// Every row is ok.
    Within,
    /// Nothing regressed that could be judged, but some metric's slices
    /// spread wider than its bound, so B is not shown to be unchanged.
    Unresolved,
    /// A regression, a moved exact counter, failed operations, or a
    /// workload or metric that one document lacks.
    Failed,
}

impl Summary {
    pub fn code(self) -> u8 {
        match self {
            Summary::Within => 0,
            Summary::Failed => 1,
            Summary::Unresolved => 3,
        }
    }
}

/// Compares two full-pass documents, B against A. Refuses documents
/// measured on other inputs or at another size: their exact counters
/// differ by construction.
pub fn compare(a: &Json, b: &Json) -> Result<(String, Summary), String> {
    for key in ["seed", "seconds"] {
        let of = |doc: &Json| doc.get("config").and_then(|c| c.get(key)).and_then(Json::as_f64);
        match (of(a), of(b)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => return Err(format!("config.{key} is {x:?} in A and {y:?} in B: not the same run")),
        }
    }
    let mut report = String::new();
    let mut summary = Summary::Within;
    let mut note = |report: &mut String, text: String, verdict: Verdict| {
        report.push_str(&text);
        summary = summary.max(match verdict {
            Verdict::Within => Summary::Within,
            Verdict::Unresolved => Summary::Unresolved,
            _ => Summary::Failed,
        });
    };
    let end_to_end = metrics::end_to_end();
    for w in metrics::WORKLOADS {
        let entry = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(ea), Some(eb)) = (entry(a), entry(b)) else {
            note(
                &mut report,
                format!("{:<16} MISSING from one of the documents\n", w.name),
                Verdict::Missing,
            );
            continue;
        };
        for doc in [&ea, &eb] {
            let failed = doc.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
            if failed > 0.0 {
                note(
                    &mut report,
                    format!("{:<16} {failed} operations FAILED\n", w.name),
                    Verdict::Regression,
                );
            }
        }
        for def in &end_to_end {
            if let Some((_, _, source)) = metrics::DERIVED.iter().find(|d| d.0 == w.name && d.1 == def.name) {
                report.push_str(&format!(
                    "{:<16} {:<34} derived from {source}, judged there\n",
                    w.name, def.name
                ));
                continue;
            }
            let metric = |e: &Json| e.get("metrics").and_then(|m| m.get(&def.name)).cloned();
            let (text, verdict) = line(w.name, def, metric(&ea).as_ref(), metric(&eb).as_ref());
            note(&mut report, text, verdict);
        }
    }
    if let (Some(la), Some(lb)) = (a.get("per_layer"), b.get("per_layer")) {
        for def in metrics::per_layer().iter().filter(|d| d.exact) {
            let metric = |l: &Json| l.get("metrics").and_then(|m| m.get(&def.name)).cloned();
            let (text, verdict) = line("per-layer", def, metric(la).as_ref(), metric(lb).as_ref());
            note(&mut report, text, verdict);
        }
    }
    report.push_str(match summary {
        Summary::Within => "compare: within bounds\n",
        Summary::Unresolved => "compare: UNRESOLVED\n",
        Summary::Failed => "compare: FAILED\n",
    });
    Ok((report, summary))
}
