//! CI gate over the committed benchmark artifacts: every `BENCH_*.json`
//! the benches write self-asserts its equivalence invariants (pruned ≡
//! exhaustive decisions, multiplexed ≡ solo reports, …) as boolean flags
//! whose key contains `identical`. This binary scans those files and fails
//! — with a per-file report — if any flag is `false`, or if a file carries
//! no flag at all (a bench that stopped asserting would otherwise pass
//! vacuously).
//!
//! Usage: `cargo run -p lynceus-bench --bin bench_check [files…]` —
//! defaults to every `BENCH_*.json` at the workspace root.

use std::path::PathBuf;
use std::process::ExitCode;

/// Every `"<key>": <bool>` pair in `json` whose key contains `identical`,
/// in file order. A hand-rolled scan: the bench JSONs are flat hand-written
/// documents and this environment has no serde.
fn identical_flags(json: &str) -> Vec<(String, bool)> {
    let mut flags = Vec::new();
    let mut rest = json;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        let key = &tail[..close];
        let after = &tail[close + 1..];
        if key.contains("identical") {
            let value = after.trim_start().strip_prefix(':').map(str::trim_start);
            match value {
                Some(v) if v.starts_with("true") => flags.push((key.to_owned(), true)),
                Some(v) if v.starts_with("false") => flags.push((key.to_owned(), false)),
                _ => {}
            }
        }
        rest = after;
    }
    flags
}

/// Parses the number following `"key":` in `line`, if present.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the `[a, b, …]` unsigned array following `"key":` in `line`.
fn field_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = line[start..].trim_start().strip_prefix('[')?;
    let close = rest.find(']')?;
    rest[..close]
        .split(',')
        .map(|v| v.trim().parse::<u64>())
        .collect::<Result<Vec<u64>, _>>()
        .ok()
}

/// Validates the pruning counters of every sweep cell in `json` (one cell
/// per line, as the lookahead bench writes them): candidate-level and
/// per-level deep-cut counts must stay monotone — no cell may claim more
/// pruned or cut candidates than it had, the per-level cuts must sum to
/// the recorded total, and the fractions must be coherent. A bench bug
/// (or a hand-edited artifact) that inflated the pruning story would
/// otherwise sail through CI as a good-looking number.
fn cell_violations(json: &str) -> Vec<String> {
    let mut violations = Vec::new();
    for (number, line) in json.lines().enumerate() {
        let (Some(candidates), Some(pruned)) =
            (field_f64(line, "candidates"), field_f64(line, "pruned"))
        else {
            continue;
        };
        let cell = format!("cell at line {}", number + 1);
        if pruned > candidates {
            violations.push(format!("{cell}: pruned {pruned} > candidates {candidates}"));
        }
        if let Some(fraction) = field_f64(line, "pruned_fraction") {
            if !(0.0..=1.0).contains(&fraction) {
                violations.push(format!("{cell}: pruned_fraction {fraction} outside [0, 1]"));
            }
        }
        if let Some(decisions) = field_f64(line, "decisions") {
            if candidates > 0.0 && decisions < 1.0 {
                violations.push(format!("{cell}: {candidates} candidates but no decisions"));
            }
        }
        let deep_pruned = field_f64(line, "deep_pruned");
        if let Some(deep_pruned) = deep_pruned {
            if pruned + deep_pruned > candidates {
                violations.push(format!(
                    "{cell}: pruned {pruned} + deep_pruned {deep_pruned} > candidates {candidates}"
                ));
            }
            if let Some(levels) = field_u64_array(line, "deep_cuts") {
                let sum: u64 = levels.iter().sum();
                if sum as f64 != deep_pruned {
                    violations.push(format!(
                        "{cell}: deep_cuts sum {sum} != deep_pruned {deep_pruned}"
                    ));
                }
            } else {
                violations.push(format!(
                    "{cell}: deep_pruned without per-level deep_cuts breakdown"
                ));
            }
            if let (Some(pruned_fraction), Some(cut_fraction)) = (
                field_f64(line, "pruned_fraction"),
                field_f64(line, "cut_fraction"),
            ) {
                if !(0.0..=1.0).contains(&cut_fraction) {
                    violations.push(format!(
                        "{cell}: cut_fraction {cut_fraction} outside [0, 1]"
                    ));
                }
                // The combined fraction can never undercut the
                // candidate-level one (tolerate the 3-decimal rounding).
                if cut_fraction + 1e-3 < pruned_fraction {
                    violations.push(format!(
                        "{cell}: cut_fraction {cut_fraction} < pruned_fraction {pruned_fraction}"
                    ));
                }
            }
        }
    }
    violations
}

/// Validates the flat-traversal cells of the component baseline: any line
/// carrying a `flat_ns` measurement must also carry the pointer-walk
/// baseline it was compared against, a `speedup` of at least 1.0 (the
/// struct-of-arrays layout regressing below the pointer walk is exactly
/// the regression this gate exists to catch), and a true `identical` flag
/// (the bench bit-compares the two traversals before writing the cell).
/// The `micro_components` artifact must contain such a cell at all — a
/// refactor that silently dropped the comparison would otherwise pass
/// vacuously.
fn flat_violations(json: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut cells = 0usize;
    for (number, line) in json.lines().enumerate() {
        let Some(flat_ns) = field_f64(line, "flat_ns") else {
            continue;
        };
        cells += 1;
        let cell = format!("flat cell at line {}", number + 1);
        if field_f64(line, "pointer_ns").is_none() {
            violations.push(format!(
                "{cell}: flat_ns {flat_ns} without a pointer_ns baseline"
            ));
        }
        match field_f64(line, "speedup") {
            Some(speedup) if speedup >= 1.0 => {}
            Some(speedup) => violations.push(format!(
                "{cell}: flat traversal slower than the pointer walk (speedup {speedup} < 1.0)"
            )),
            None => violations.push(format!("{cell}: no speedup recorded")),
        }
        if !line.contains("\"identical\": true") {
            violations.push(format!(
                "{cell}: flat/pointer bit-identity not asserted true"
            ));
        }
    }
    if cells == 0 && json.contains("\"benchmark\": \"micro_components\"") {
        violations.push("micro_components artifact carries no flat-traversal cell".to_owned());
    }
    violations
}

/// Validates the fault-recovery artifact: the robustness cells must be
/// present, coherent, and non-vacuous. A storm that never struck, a pass
/// that checkpointed nothing, or a hand-edited overhead ratio would
/// otherwise read as a clean bill of health.
fn faults_violations(json: &str) -> Vec<String> {
    if !json.contains("\"benchmark\": \"faults_recovery\"") {
        return Vec::new();
    }
    let mut violations = Vec::new();
    let whole = json.replace('\n', " ");
    match field_f64(&whole, "checkpointed_steps_per_pass") {
        Some(steps) if steps >= 1.0 => {}
        Some(steps) => violations.push(format!(
            "durable pass checkpointed {steps} steps — durability was never exercised"
        )),
        None => violations.push("no checkpointed_steps_per_pass recorded".to_owned()),
    }
    match field_f64(&whole, "faults_recovered_per_pass") {
        Some(retries) if retries >= 1.0 => {}
        Some(retries) => violations.push(format!(
            "storm pass recovered {retries} faults — the storm never struck"
        )),
        None => violations.push("no faults_recovered_per_pass recorded".to_owned()),
    }
    for ratio_key in [
        "checkpoint_overhead_vs_baseline",
        "recovery_overhead_vs_durable",
    ] {
        match field_f64(&whole, ratio_key) {
            Some(ratio) if ratio.is_finite() && ratio > 0.0 => {}
            Some(ratio) => violations.push(format!("{ratio_key} {ratio} is not a usable ratio")),
            None => violations.push(format!("no {ratio_key} recorded")),
        }
    }
    for flag in [
        "baseline_identical_reports",
        "durable_identical_reports",
        "storm_identical_reports",
    ] {
        if !whole.contains(&format!("\"{flag}\": ")) {
            violations.push(format!("{flag} flag missing — the bench stopped asserting"));
        }
    }
    violations
}

/// The slowest shed burst (requests per second) a healthy transport can
/// post. Held submissions do no tuning, so the burst measures framing,
/// parsing and admission alone: tens of thousands per second on two cores,
/// and about 11 when TCP timers stall every message.
const BURST_FLOOR_PER_SECOND: f64 = 1000.0;

/// Validates the HTTP service-load artifact: throughput must be a real
/// positive number, the shed burst must clear the transport floor, the
/// latency quantiles must be ordered, the admission accounting must
/// balance (`admitted + shed == submitted` — the serving layer's hard
/// invariant, re-checked here against the published numbers), and the
/// wire-vs-solo bit-identity flag must be present at all (its truth is
/// gated by the `identical` scan like every other flag).
fn http_violations(json: &str) -> Vec<String> {
    if !json.contains("\"benchmark\": \"service_http\"") {
        return Vec::new();
    }
    let mut violations = Vec::new();
    let whole = json.replace('\n', " ");
    match field_f64(&whole, "sessions_per_second") {
        Some(rate) if rate.is_finite() && rate > 0.0 => {}
        Some(rate) => violations.push(format!(
            "sessions_per_second {rate} is not a positive throughput"
        )),
        None => violations.push("no sessions_per_second recorded".to_owned()),
    }
    match field_f64(&whole, "burst_requests_per_second") {
        Some(rate) if rate >= BURST_FLOOR_PER_SECOND => {}
        Some(rate) => violations.push(format!(
            "burst_requests_per_second {rate} is below the transport floor \
             {BURST_FLOOR_PER_SECOND} — a TCP timer is stalling the wire"
        )),
        None => violations.push("no burst_requests_per_second recorded".to_owned()),
    }
    match (
        field_f64(&whole, "report_latency_p50_ms"),
        field_f64(&whole, "report_latency_p99_ms"),
    ) {
        (Some(p50), Some(p99)) => {
            if !(p50.is_finite() && p99.is_finite() && p50 >= 0.0) {
                violations.push(format!("latency quantiles p50 {p50} / p99 {p99} unusable"));
            } else if p50 > p99 {
                violations.push(format!("latency p50 {p50} ms exceeds p99 {p99} ms"));
            }
        }
        _ => violations.push("latency quantiles p50/p99 not both recorded".to_owned()),
    }
    match (
        field_f64(&whole, "submitted"),
        field_f64(&whole, "admitted"),
        field_f64(&whole, "shed"),
    ) {
        (Some(submitted), Some(admitted), Some(shed)) => {
            if admitted + shed != submitted {
                violations.push(format!(
                    "admission accounting broken: admitted {admitted} + shed {shed} \
                     != submitted {submitted}"
                ));
            }
        }
        _ => violations.push("admission counters submitted/admitted/shed incomplete".to_owned()),
    }
    if !whole.contains("\"wire_reports_identical\": ") {
        violations
            .push("wire_reports_identical flag missing — the bench stopped asserting".to_owned());
    }
    violations
}

/// Validates the recurring-job artifact: the chain must actually recur
/// (≥ 2 runs), the cost-to-target trajectory must be coherent and must
/// improve from the cold run to the final one (the whole point of the
/// knowledge layer), warm first-decision pruning must beat the cold run's
/// disarmed guard, and the cross-engine bit-identity flag must be present.
/// A chain that silently stopped transferring knowledge would otherwise
/// publish a flat trajectory and pass vacuously.
fn recurring_violations(json: &str) -> Vec<String> {
    if !json.contains("\"benchmark\": \"recurring\"") {
        return Vec::new();
    }
    let mut violations = Vec::new();
    let whole = json.replace('\n', " ");
    match field_f64(&whole, "runs_chained") {
        Some(runs) if runs >= 2.0 => {}
        Some(runs) => violations.push(format!(
            "runs_chained {runs} — a single run never exercises transfer"
        )),
        None => violations.push("no runs_chained recorded".to_owned()),
    }
    for (number, line) in json.lines().enumerate() {
        let Some(cost) = field_f64(line, "cost_to_target") else {
            continue;
        };
        let cell = format!("cell at line {}", number + 1);
        if !(cost.is_finite() && cost >= 0.0) {
            violations.push(format!("{cell}: cost_to_target {cost} unusable"));
        }
        if let (Some(candidates), Some(cut)) = (
            field_f64(line, "first_decision_candidates"),
            field_f64(line, "first_decision_cut"),
        ) {
            if cut > candidates {
                violations.push(format!(
                    "{cell}: first-decision cut {cut} > candidates {candidates}"
                ));
            }
        }
        if let Some(fraction) = field_f64(line, "first_decision_prune_fraction") {
            if !(0.0..=1.0).contains(&fraction) {
                violations.push(format!(
                    "{cell}: first_decision_prune_fraction {fraction} outside [0, 1]"
                ));
            }
        }
    }
    match (
        field_f64(&whole, "cold_cost_to_target"),
        field_f64(&whole, "final_cost_to_target"),
    ) {
        (Some(cold), Some(last)) => {
            if !(cold.is_finite() && last.is_finite() && cold > 0.0 && last >= 0.0) {
                violations.push(format!(
                    "cost-to-target endpoints cold {cold} / final {last} unusable"
                ));
            } else if last >= cold {
                violations.push(format!(
                    "cost-to-target never improved: final {last} >= cold {cold}"
                ));
            }
        }
        _ => violations.push("cost-to-target endpoints not both recorded".to_owned()),
    }
    match (
        field_f64(&whole, "cold_first_decision_prune_fraction"),
        field_f64(&whole, "warm_first_decision_prune_fraction"),
    ) {
        (Some(cold), Some(warm)) => {
            if !((0.0..=1.0).contains(&cold) && (0.0..=1.0).contains(&warm)) {
                violations.push(format!(
                    "first-decision prune fractions cold {cold} / warm {warm} outside [0, 1]"
                ));
            } else if warm <= cold {
                violations.push(format!(
                    "warm anchors never armed: warm first-decision pruning {warm} \
                     <= cold {cold}"
                ));
            }
        }
        _ => violations.push("first-decision prune fractions not both recorded".to_owned()),
    }
    if !whole.contains("\"chain_reports_identical\": ") {
        violations
            .push("chain_reports_identical flag missing — the bench stopped asserting".to_owned());
    }
    violations
}

fn workspace_bench_files() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let Ok(entries) = std::fs::read_dir(&root) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let files = if args.is_empty() {
        workspace_bench_files()
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("bench_check: no BENCH_*.json files found");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for file in &files {
        let json = match std::fs::read_to_string(file) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("bench_check: cannot read {}: {e}", file.display());
                failed = true;
                continue;
            }
        };
        let flags = identical_flags(&json);
        if flags.is_empty() {
            eprintln!(
                "bench_check: {} asserts no equivalence flag — a bench must \
                 self-assert its invariants",
                file.display()
            );
            failed = true;
            continue;
        }
        let false_flags: Vec<&str> = flags
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(key, _)| key.as_str())
            .collect();
        let violations = cell_violations(&json);
        let flat = flat_violations(&json);
        let faults = faults_violations(&json);
        let http = http_violations(&json);
        let recurring = recurring_violations(&json);
        if false_flags.is_empty()
            && violations.is_empty()
            && flat.is_empty()
            && faults.is_empty()
            && http.is_empty()
            && recurring.is_empty()
        {
            println!(
                "bench_check: {} ok ({} equivalence flag(s) true, pruning, flat, fault, http and recurring cells coherent)",
                file.display(),
                flags.len()
            );
        } else {
            if !false_flags.is_empty() {
                eprintln!(
                    "bench_check: {} FAILED its self-asserted equivalence: {}",
                    file.display(),
                    false_flags.join(", ")
                );
            }
            for violation in &violations {
                eprintln!(
                    "bench_check: {} has incoherent pruning counters — {violation}",
                    file.display()
                );
            }
            for violation in &flat {
                eprintln!(
                    "bench_check: {} has an invalid flat-traversal cell — {violation}",
                    file.display()
                );
            }
            for violation in &faults {
                eprintln!(
                    "bench_check: {} has an invalid fault-recovery cell — {violation}",
                    file.display()
                );
            }
            for violation in &http {
                eprintln!(
                    "bench_check: {} has an invalid http-service cell — {violation}",
                    file.display()
                );
            }
            for violation in &recurring {
                eprintln!(
                    "bench_check: {} has an invalid recurring-job cell — {violation}",
                    file.display()
                );
            }
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::identical_flags;

    #[test]
    fn finds_true_and_false_flags() {
        let json = r#"{
          "identical_recommendation": true,
          "cells": [ { "identical": false }, { "identical": true } ],
          "bit_identical_reports": true,
          "speedup": 2.0
        }"#;
        let flags = identical_flags(json);
        assert_eq!(
            flags,
            vec![
                ("identical_recommendation".to_owned(), true),
                ("identical".to_owned(), false),
                ("identical".to_owned(), true),
                ("bit_identical_reports".to_owned(), true),
            ]
        );
    }

    #[test]
    fn ignores_non_boolean_and_unrelated_keys() {
        let flags = identical_flags(r#"{ "identical_count": 3, "speedup": 1.0 }"#);
        assert!(flags.is_empty());
    }

    use super::cell_violations;

    #[test]
    fn coherent_pruning_cells_pass() {
        let json = r#"{
  "cells": [
    { "decisions": 10, "candidates": 100, "pruned": 60, "pruned_fraction": 0.600, "deep_pruned": 15, "deep_cuts": [10, 5, 0, 0, 0, 0], "cut_fraction": 0.750, "identical": true },
    { "decisions": 4, "candidates": 40, "pruned": 0, "pruned_fraction": 0.000, "deep_pruned": 0, "deep_cuts": [0, 0, 0, 0, 0, 0], "cut_fraction": 0.000, "identical": true }
  ]
}"#;
        assert_eq!(cell_violations(json), Vec::<String>::new());
    }

    #[test]
    fn monotonicity_violations_are_reported() {
        // More total cuts than candidates.
        let overflow = r#"{ "decisions": 2, "candidates": 10, "pruned": 8, "pruned_fraction": 0.800, "deep_pruned": 5, "deep_cuts": [5, 0, 0, 0, 0, 0], "cut_fraction": 1.300, "identical": true }"#;
        let violations = cell_violations(overflow);
        assert!(
            violations.iter().any(|v| v.contains("> candidates")),
            "missing overflow violation: {violations:?}"
        );
        assert!(violations.iter().any(|v| v.contains("outside [0, 1]")));
        // Level breakdown disagreeing with the total.
        let mismatch = r#"{ "decisions": 2, "candidates": 10, "pruned": 1, "pruned_fraction": 0.100, "deep_pruned": 4, "deep_cuts": [1, 1, 0, 0, 0, 0], "cut_fraction": 0.500, "identical": true }"#;
        assert!(cell_violations(mismatch)
            .iter()
            .any(|v| v.contains("deep_cuts sum")));
        // A totals field without its per-level breakdown.
        let missing = r#"{ "decisions": 1, "candidates": 10, "pruned": 1, "deep_pruned": 2, "identical": true }"#;
        assert!(cell_violations(missing)
            .iter()
            .any(|v| v.contains("without per-level")));
        // A combined fraction below the candidate-level one.
        let shrunk = r#"{ "decisions": 1, "candidates": 10, "pruned": 5, "pruned_fraction": 0.500, "deep_pruned": 0, "deep_cuts": [0, 0, 0, 0, 0, 0], "cut_fraction": 0.100, "identical": true }"#;
        assert!(cell_violations(shrunk)
            .iter()
            .any(|v| v.contains("cut_fraction")));
        // Candidates counted without any decision.
        let no_decisions =
            r#"{ "decisions": 0, "candidates": 10, "pruned": 1, "identical": true }"#;
        assert!(cell_violations(no_decisions)
            .iter()
            .any(|v| v.contains("no decisions")));
    }

    use super::flat_violations;

    #[test]
    fn coherent_flat_cells_pass() {
        let json = r#"{
  "benchmark": "micro_components",
  "flat_traversal": {
    "pointer_ns": 20000.0, "flat_ns": 10000.0, "speedup": 2.00, "identical": true
  }
}"#;
        assert_eq!(flat_violations(json), Vec::<String>::new());
    }

    #[test]
    fn flat_regressions_and_missing_fields_are_reported() {
        // Flat path slower than the pointer walk.
        let slow =
            r#"{ "pointer_ns": 100.0, "flat_ns": 150.0, "speedup": 0.67, "identical": true }"#;
        assert!(flat_violations(slow).iter().any(|v| v.contains("< 1.0")));
        // No pointer baseline on the line.
        let orphan = r#"{ "flat_ns": 150.0, "speedup": 1.50, "identical": true }"#;
        assert!(flat_violations(orphan)
            .iter()
            .any(|v| v.contains("without a pointer_ns baseline")));
        // Bit-identity not asserted.
        let unasserted =
            r#"{ "pointer_ns": 100.0, "flat_ns": 50.0, "speedup": 2.00, "identical": false }"#;
        assert!(flat_violations(unasserted)
            .iter()
            .any(|v| v.contains("bit-identity")));
        // The component baseline must carry a flat cell at all.
        let vacuous = r#"{ "benchmark": "micro_components", "components": {} }"#;
        assert!(flat_violations(vacuous)
            .iter()
            .any(|v| v.contains("no flat-traversal cell")));
        // Other artifacts are not required to carry one.
        let other = r#"{ "benchmark": "multi_session" }"#;
        assert!(flat_violations(other).is_empty());
    }

    use super::faults_violations;

    fn faults_artifact(steps: u64, retries: u64, overhead: f64) -> String {
        format!(
            "{{\n  \"benchmark\": \"faults_recovery\",\n  \
             \"checkpoint_overhead_vs_baseline\": {overhead:.3},\n  \
             \"checkpointed_steps_per_pass\": {steps},\n  \
             \"recovery_overhead_vs_durable\": 1.100,\n  \
             \"faults_recovered_per_pass\": {retries},\n  \
             \"baseline_identical_reports\": true,\n  \
             \"durable_identical_reports\": true,\n  \
             \"storm_identical_reports\": true\n}}\n"
        )
    }

    #[test]
    fn coherent_fault_cells_pass() {
        assert_eq!(
            faults_violations(&faults_artifact(120, 7, 1.05)),
            Vec::<String>::new()
        );
        // Other artifacts are not required to carry fault cells.
        assert!(faults_violations(r#"{ "benchmark": "multi_session" }"#).is_empty());
    }

    #[test]
    fn vacuous_or_incoherent_fault_cells_are_reported() {
        // A storm that never struck, or a pass that checkpointed nothing.
        assert!(faults_violations(&faults_artifact(0, 7, 1.05))
            .iter()
            .any(|v| v.contains("never exercised")));
        assert!(faults_violations(&faults_artifact(120, 0, 1.05))
            .iter()
            .any(|v| v.contains("never struck")));
        // A nonsensical ratio.
        assert!(faults_violations(&faults_artifact(120, 7, -2.0))
            .iter()
            .any(|v| v.contains("not a usable ratio")));
        // A dropped assertion flag.
        let unasserted = faults_artifact(120, 7, 1.05).replace("storm_identical_reports", "gone");
        assert!(faults_violations(&unasserted)
            .iter()
            .any(|v| v.contains("stopped asserting")));
        // Missing fields entirely.
        let bare = r#"{ "benchmark": "faults_recovery" }"#;
        assert!(faults_violations(bare)
            .iter()
            .any(|v| v.contains("no checkpointed_steps_per_pass")));
    }

    use super::http_violations;

    fn http_artifact(submitted: u64, admitted: u64, shed: u64, p50: f64, p99: f64) -> String {
        format!(
            "{{\n  \"benchmark\": \"service_http\",\n  \
             \"sessions_per_second\": 42.500,\n  \
             \"report_latency_p50_ms\": {p50:.3},\n  \
             \"burst_requests_per_second\": 25000,\n  \
             \"report_latency_p99_ms\": {p99:.3},\n  \
             \"submitted\": {submitted},\n  \"admitted\": {admitted},\n  \
             \"shed\": {shed},\n  \
             \"wire_reports_identical\": true\n}}\n"
        )
    }

    #[test]
    fn coherent_http_cells_pass() {
        assert_eq!(
            http_violations(&http_artifact(2000, 64, 1936, 3.5, 12.0)),
            Vec::<String>::new()
        );
        // Other artifacts are not required to carry http cells.
        assert!(http_violations(r#"{ "benchmark": "multi_session" }"#).is_empty());
    }

    #[test]
    fn broken_http_cells_are_reported() {
        // Admission accounting that does not balance.
        assert!(http_violations(&http_artifact(2000, 64, 1935, 3.5, 12.0))
            .iter()
            .any(|v| v.contains("accounting broken")));
        // Inverted latency quantiles.
        assert!(http_violations(&http_artifact(100, 100, 0, 12.0, 3.5))
            .iter()
            .any(|v| v.contains("exceeds p99")));
        // Zero throughput.
        let stalled = http_artifact(100, 100, 0, 3.5, 12.0).replace(
            "\"sessions_per_second\": 42.500",
            "\"sessions_per_second\": 0.000",
        );
        assert!(http_violations(&stalled)
            .iter()
            .any(|v| v.contains("not a positive throughput")));
        // A burst throttled by TCP timers: the 11 req/s the stalled
        // transport once committed fails the floor.
        let stalled_burst = http_artifact(100, 100, 0, 3.5, 12.0).replace(
            "\"burst_requests_per_second\": 25000",
            "\"burst_requests_per_second\": 11",
        );
        assert!(http_violations(&stalled_burst)
            .iter()
            .any(|v| v.contains("below the transport floor")));
        // A dropped bit-identity flag.
        let unasserted =
            http_artifact(100, 100, 0, 3.5, 12.0).replace("wire_reports_identical", "gone");
        assert!(http_violations(&unasserted)
            .iter()
            .any(|v| v.contains("stopped asserting")));
        // Missing counters entirely.
        let bare = r#"{ "benchmark": "service_http" }"#;
        let violations = http_violations(bare);
        assert!(violations
            .iter()
            .any(|v| v.contains("no sessions_per_second")));
        assert!(violations
            .iter()
            .any(|v| v.contains("no burst_requests_per_second")));
        assert!(violations
            .iter()
            .any(|v| v.contains("counters submitted/admitted/shed incomplete")));
    }

    use super::recurring_violations;

    fn recurring_artifact(
        cold_cost: f64,
        final_cost: f64,
        cold_frac: f64,
        warm_frac: f64,
    ) -> String {
        format!(
            "{{\n  \"benchmark\": \"recurring\",\n  \"runs_chained\": 3,\n  \
             \"cells\": [\n    \
             {{ \"run\": 0, \"cost_to_target\": {cold_cost:.3}, \
             \"first_decision_candidates\": 67, \"first_decision_cut\": 0, \
             \"first_decision_prune_fraction\": {cold_frac:.3} }},\n    \
             {{ \"run\": 2, \"cost_to_target\": {final_cost:.3}, \
             \"first_decision_candidates\": 64, \"first_decision_cut\": 9, \
             \"first_decision_prune_fraction\": {warm_frac:.3} }}\n  ],\n  \
             \"cold_cost_to_target\": {cold_cost:.3},\n  \
             \"final_cost_to_target\": {final_cost:.3},\n  \
             \"cold_first_decision_prune_fraction\": {cold_frac:.3},\n  \
             \"warm_first_decision_prune_fraction\": {warm_frac:.3},\n  \
             \"chain_reports_identical\": true\n}}\n"
        )
    }

    #[test]
    fn coherent_recurring_cells_pass() {
        assert_eq!(
            recurring_violations(&recurring_artifact(3.36, 0.0, 0.0, 0.141)),
            Vec::<String>::new()
        );
        // Other artifacts are not required to carry recurring cells.
        assert!(recurring_violations(r#"{ "benchmark": "multi_session" }"#).is_empty());
    }

    #[test]
    fn flat_or_incoherent_recurring_chains_are_reported() {
        // A chain whose cost-to-target never improved — knowledge was not
        // transferred (or the warm runs ignored it).
        assert!(
            recurring_violations(&recurring_artifact(3.36, 3.36, 0.0, 0.141))
                .iter()
                .any(|v| v.contains("never improved"))
        );
        // Warm first-decision pruning no better than the cold disarmed guard.
        assert!(
            recurring_violations(&recurring_artifact(3.36, 0.0, 0.2, 0.2))
                .iter()
                .any(|v| v.contains("never armed"))
        );
        // A fraction outside [0, 1].
        assert!(
            recurring_violations(&recurring_artifact(3.36, 0.0, 0.0, 1.5))
                .iter()
                .any(|v| v.contains("outside [0, 1]"))
        );
        // A chain of one run exercises no transfer at all.
        let single = recurring_artifact(3.36, 0.0, 0.0, 0.141)
            .replace("\"runs_chained\": 3", "\"runs_chained\": 1");
        assert!(recurring_violations(&single)
            .iter()
            .any(|v| v.contains("never exercises transfer")));
        // A cell claiming more first-decision cuts than candidates.
        let overcut = recurring_artifact(3.36, 0.0, 0.0, 0.141)
            .replace("\"first_decision_cut\": 9", "\"first_decision_cut\": 99");
        assert!(recurring_violations(&overcut)
            .iter()
            .any(|v| v.contains("> candidates")));
        // A dropped cross-engine assertion flag.
        let unasserted =
            recurring_artifact(3.36, 0.0, 0.0, 0.141).replace("chain_reports_identical", "gone");
        assert!(recurring_violations(&unasserted)
            .iter()
            .any(|v| v.contains("stopped asserting")));
        // Missing endpoints entirely.
        let bare = r#"{ "benchmark": "recurring" }"#;
        let violations = recurring_violations(bare);
        assert!(violations.iter().any(|v| v.contains("no runs_chained")));
        assert!(violations
            .iter()
            .any(|v| v.contains("endpoints not both recorded")));
    }

    #[test]
    fn legacy_cells_without_deep_counters_are_still_checked() {
        let legacy = r#"{ "decisions": 5, "candidates": 20, "pruned": 25, "pruned_fraction": 1.250, "identical": true }"#;
        let violations = cell_violations(legacy);
        assert!(violations.iter().any(|v| v.contains("> candidates")));
        assert!(violations.iter().any(|v| v.contains("outside [0, 1]")));
    }
}
