//! Fixture suite: every rule id must fire with exact spans on the
//! known-bad snippets, honor justified suppressions, and reject bare
//! ones.

use ef_simlint::{lint_source, FileCtx, Finding, RuleId};

const SIM_CTX: FileCtx = FileCtx {
    sim_critical: true,
    d002_applies: true,
    hot_path: false,
};

/// The panic-freedom context: hot-path modules are also sim-critical.
const HOT_CTX: FileCtx = FileCtx {
    sim_critical: true,
    d002_applies: true,
    hot_path: true,
};

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    let src = std::fs::read_to_string(format!("{path}{name}")).expect("fixture exists");
    lint_source(&src, &SIM_CTX)
}

fn lint_fixture_hot(name: &str) -> Vec<Finding> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    let src = std::fs::read_to_string(format!("{path}{name}")).expect("fixture exists");
    lint_source(&src, &HOT_CTX)
}

fn lint_real(rel: &str, ctx: &FileCtx) -> Vec<Finding> {
    let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("workspace source readable");
    lint_source(&src, ctx)
}

fn spans(findings: &[Finding], rule: RuleId) -> Vec<(u32, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn d001_fires_with_exact_spans() {
    let findings = lint_fixture("d001.rs");
    assert_eq!(
        spans(&findings, RuleId::D001),
        vec![
            (11, 24), // s.uplinks.values()
            (18, 24), // for (_k, _v) in &s.uplinks
            (23, 10), // seen.iter()
            (29, 21), // pending.keys()
            (33, 31), // s.uplinks.drain()
        ],
    );
    // Lookups, inserts, len(): no findings; #[cfg(test)] module: exempt.
    assert!(findings.iter().all(|f| f.rule == RuleId::D001));
}

#[test]
fn d002_fires_with_exact_spans() {
    let findings = lint_fixture("d002.rs");
    assert_eq!(
        spans(&findings, RuleId::D002),
        vec![
            (2, 27),  // use std::time::{.., Instant}
            (5, 17),  // Instant::now()
            (10, 26), // std::time::SystemTime::now()
            (15, 25), // rand::thread_rng()
            (16, 24), // rand::random()
            (21, 15), // std::env::var("SEED")
        ],
    );
    // `Duration` alone never fires.
    assert!(findings.iter().all(|f| f.rule == RuleId::D002));
}

#[test]
fn d003_fires_with_exact_spans() {
    let findings = lint_fixture("d003.rs");
    assert_eq!(
        spans(&findings, RuleId::D003),
        vec![
            (4, 7),  // v.unwrap()
            (8, 7),  // v.expect(..)
            (13, 9), // panic!
        ],
    );
    // unwrap_or / unwrap_or_else and the #[cfg(test)] module are exempt.
    assert!(findings.iter().all(|f| f.rule == RuleId::D003));
}

#[test]
fn d004_fires_with_exact_spans() {
    let findings = lint_fixture("d004.rs");
    assert_eq!(
        spans(&findings, RuleId::D004),
        vec![
            (9, 24),  // .sum::<f64>() after .values()
            (13, 24), // .fold(0.0, |acc, v| acc + v)
        ],
    );
    // The same chains also fire D001 (iteration itself), including the
    // integer-sum chain, which must NOT fire D004.
    assert_eq!(spans(&findings, RuleId::D001).len(), 3);
    assert!(findings
        .iter()
        .all(|f| matches!(f.rule, RuleId::D001 | RuleId::D004)));
}

#[test]
fn justified_suppressions_are_honored() {
    let findings = lint_fixture("suppressed.rs");
    // Every finding is covered by a reasoned directive; none active.
    assert!(
        findings.iter().all(|f| f.suppressed),
        "unsuppressed: {:?}",
        findings
            .iter()
            .filter(|f| !f.suppressed)
            .map(Finding::render)
            .collect::<Vec<_>>()
    );
    // ... and the directives covered real findings of every kind used.
    let suppressed_rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    assert!(suppressed_rules.contains(&RuleId::D001));
    assert!(suppressed_rules.contains(&RuleId::D004));
    assert!(suppressed_rules.contains(&RuleId::D003));
}

#[test]
fn bare_suppressions_are_rejected() {
    let findings = lint_fixture("bare_suppression.rs");
    // Two directives lack a justification (bare, empty reason) -> S001;
    // the unknown-rule directive is its own class -> S003 ...
    assert_eq!(spans(&findings, RuleId::S001).len(), 2);
    assert_eq!(spans(&findings, RuleId::S003).len(), 1);
    // ... and none of them silences the underlying D001.
    assert_eq!(spans(&findings, RuleId::D001).len(), 3);
}

#[test]
fn suppressed_findings_do_not_count_as_violations() {
    let report = ef_simlint::Report {
        findings: lint_fixture("suppressed.rs"),
        files_scanned: 1,
    };
    assert!(report.violations(&[]).is_empty());
    assert_eq!(report.suppressed_count(), report.findings.len());
}

#[test]
fn s001_cannot_be_allowed() {
    let report = ef_simlint::Report {
        findings: lint_fixture("bare_suppression.rs"),
        files_scanned: 1,
    };
    // Allowing every D-rule still leaves the S-series as violations
    // (two S001, one S003).
    let allowed = [RuleId::D001, RuleId::D002, RuleId::D003, RuleId::D004];
    assert_eq!(report.violations(&allowed).len(), 3);
}

#[test]
fn json_report_is_well_formed() {
    let report = ef_simlint::Report {
        findings: lint_fixture("d003.rs"),
        files_scanned: 1,
    };
    let json = report.to_json(&[]);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"rule\":\"D003\""));
    assert!(json.contains("\"violations\":3"));
}

#[test]
fn checksum_sites_carry_no_bare_suppressions() {
    // The integrity pipeline's verify sites, in their own shape: a
    // checksum mismatch must be surfaced as data, and any suppression
    // at such a site must be justified in-source.
    let findings = lint_fixture("integrity_checks.rs");
    // Two bare directives at the verify sites → S001 ...
    let mut s001: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == RuleId::S001)
        .map(|f| f.line)
        .collect();
    s001.sort_unstable();
    assert_eq!(s001, vec![22, 29]);
    // ... and neither silences the panicking code underneath.
    assert_eq!(spans(&findings, RuleId::D003), vec![(23, 9), (30, 24)]);
    // The reasoned directive on the guarded read is honored.
    assert!(findings
        .iter()
        .any(|f| f.rule == RuleId::D003 && f.suppressed && f.line == 39));
    // The checksum fold itself is integer math over a slice: no D004
    // (float accumulation) and no D001 (hash-order iteration).
    assert!(findings
        .iter()
        .all(|f| matches!(f.rule, RuleId::D003 | RuleId::S001)));
}

#[test]
fn cache_shard_shapes_fire_and_the_btree_cache_is_clean() {
    // The fingerprint cache's tempting mistakes, in its own shape:
    // hash-ordered eviction scans, wall-clock recency stamps, and a
    // float hit-rate fold in hash order.
    let findings = lint_fixture("cache_shard.rs");
    assert_eq!(spans(&findings, RuleId::D001), vec![(14, 32), (29, 15)]);
    assert_eq!(spans(&findings, RuleId::D002), vec![(24, 28)]);
    assert_eq!(spans(&findings, RuleId::D004), vec![(29, 24)]);
    // The BTreeMap shard — the real FingerprintCache's layout — and the
    // point lookups below it produce no findings at all.
    assert!(
        findings.iter().all(|f| f.line < 32),
        "the deterministic half of the fixture fired: {:?}",
        findings
            .iter()
            .filter(|f| f.line >= 32)
            .map(Finding::render)
            .collect::<Vec<_>>()
    );
}

#[test]
fn the_real_fingerprint_cache_lints_clean() {
    // The production cache must exemplify what the fixture above pins:
    // BTreeMap shards, logical recency ticks, no unordered iteration —
    // now under the full panic-freedom context.
    let findings = lint_real("kvstore/src/cache.rs", &HOT_CTX);
    assert!(
        findings.iter().all(|f| f.suppressed),
        "FingerprintCache has unsuppressed findings: {:?}",
        findings
            .iter()
            .filter(|f| !f.suppressed)
            .map(Finding::render)
            .collect::<Vec<_>>()
    );
}

#[test]
fn gray_failure_shapes_fire_every_rule() {
    // The gray-failure mitigation's tempting mistakes, in its own
    // shape: wall-clock RTT samples, hash-ordered hedge steering, a
    // float mean folded in hash order, and a cold-start unwrap.
    let findings = lint_fixture("gray_failure.rs");
    assert_eq!(
        spans(&findings, RuleId::D001),
        vec![(23, 17), (28, 16)] // hedge steering; mean-RTT fold
    );
    assert_eq!(spans(&findings, RuleId::D002), vec![(16, 28)]); // Instant::now
    assert_eq!(spans(&findings, RuleId::D003), vec![(33, 28)]); // cold-start unwrap
    assert_eq!(spans(&findings, RuleId::D004), vec![(28, 25)]); // float sum
                                                                // The integer Jacobson/Karels half and the #[cfg(test)] module are
                                                                // clean: every finding sits in the HashTimers block.
    assert!(findings.iter().all(|f| f.line < 36));
}

#[test]
fn the_real_rtt_estimator_lints_clean() {
    // The production gray-failure module must exemplify what the
    // fixture above pins: integer estimator state, BTreeMap-keyed
    // per-peer timers, no wall clock, no unordered iteration — under
    // the full panic-freedom context.
    let findings = lint_real("kvstore/src/gray.rs", &HOT_CTX);
    assert!(
        findings.iter().all(|f| f.suppressed),
        "gray module has unsuppressed findings: {:?}",
        findings
            .iter()
            .filter(|f| !f.suppressed)
            .map(Finding::render)
            .collect::<Vec<_>>()
    );
}

#[test]
fn the_real_chunker_hot_loops_lint_clean() {
    // The gear-CDC fast path and the 8-lane SHA-256 join the
    // panic-freedom set: every index is bounded or fixed-size, every
    // wrap is spelled wrapping_*, every remaining exception justified.
    for rel in ["chunking/src/cdc.rs", "chunking/src/sha256.rs"] {
        let findings = lint_real(rel, &HOT_CTX);
        assert!(
            findings.iter().all(|f| f.suppressed),
            "{rel} has unsuppressed findings: {:?}",
            findings
                .iter()
                .filter(|f| !f.suppressed)
                .map(Finding::render)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn p001_fires_with_exact_spans() {
    let findings = lint_fixture_hot("p001.rs");
    assert_eq!(
        spans(&findings, RuleId::P001),
        vec![
            (13, 14), // self.present[word] with no bound check
            (43, 5),  // data[i] with no bound check
        ],
    );
    // Fixed arrays, literal indices, ranges, len()-covered and
    // get()-based access: nothing else fires.
    assert!(findings.iter().all(|f| f.rule == RuleId::P001));
}

#[test]
fn p002_fires_with_exact_spans() {
    let findings = lint_fixture_hot("p002.rs");
    assert_eq!(
        spans(&findings, RuleId::P002),
        vec![
            (7, 21),  // a + b
            (8, 9),   // acc += b
            (9, 15),  // acc * b
            (10, 9),  // acc *= b
            (11, 21), // a << b
            (12, 9),  // acc += xs.len() as u64
        ],
    );
    // Literal-operand forms and wrapping_*/saturating_* methods are
    // exempt.
    assert!(findings.iter().all(|f| f.rule == RuleId::P002));
}

#[test]
fn p003_escalates_panics_on_the_hot_path() {
    let findings = lint_fixture_hot("p003.rs");
    assert_eq!(
        spans(&findings, RuleId::P003),
        vec![(6, 7), (10, 7), (15, 9)],
    );
    // The same sites report as P003, not D003, and the #[cfg(test)]
    // module stays exempt.
    assert!(findings.iter().all(|f| f.rule == RuleId::P003));
}

#[test]
fn e001_fires_only_on_wildcards_over_fault_patterns() {
    let findings = lint_fixture("e001.rs");
    assert_eq!(spans(&findings, RuleId::E001), vec![(18, 9)]);
    // Exhaustive fault matches, non-fault enums, guarded wildcards,
    // and fault values appearing only in arm *bodies* are all clean.
    assert!(findings.iter().all(|f| f.rule == RuleId::E001));
}

#[test]
fn e001_catches_the_wildcard_when_the_enum_grows() {
    // Phantom-variant drill: the enum has a variant the wildcard
    // handler was never written for; E001 reports exactly that arm.
    let findings = lint_fixture("e001_phantom.rs");
    assert_eq!(spans(&findings, RuleId::E001), vec![(17, 9)]);
    assert_eq!(findings.len(), 1);
}

#[test]
fn e001_polices_the_byzantine_fault_family() {
    // The trust layer's attack enum is policed like any fault enum:
    // the phantom `HintFlood` drill exposes the dispatcher's wildcard,
    // while the revisited handler and the guarded wildcard are clean.
    let findings = lint_fixture("e001_byzantine.rs");
    assert_eq!(spans(&findings, RuleId::E001), vec![(19, 9)]);
    assert_eq!(findings.len(), 1);
}

#[test]
fn e001_polices_the_spool_enums() {
    // The disaster-tolerance spool enums are policed like any fault
    // enum: the phantom class exposes the planner's wildcard, while the
    // exhaustive destination router is clean.
    let findings = lint_fixture("e001_spool.rs");
    assert_eq!(spans(&findings, RuleId::E001), vec![(21, 9)]);
    assert_eq!(findings.len(), 1);
}

#[test]
fn s002_reports_stale_suppressions() {
    let findings = lint_fixture("s002.rs");
    // Stale directive, blank-line-detached directive, wrong-rule
    // directive — each reported at its own position.
    assert_eq!(
        spans(&findings, RuleId::S002),
        vec![(11, 5), (16, 5), (22, 5)],
    );
    // The live directive suppresses its D003 and is not stale.
    assert!(findings
        .iter()
        .any(|f| f.rule == RuleId::D003 && f.suppressed && f.line == 7));
    // The wrong-rule directive leaves its D001 unsuppressed.
    assert_eq!(spans(&findings, RuleId::D001), vec![(23, 7)]);
}

#[test]
fn s003_reports_nonexistent_rules() {
    let findings = lint_fixture("s003.rs");
    assert_eq!(spans(&findings, RuleId::S003), vec![(5, 5), (10, 5)]);
    // Neither directive silences the code below it.
    assert_eq!(spans(&findings, RuleId::D003), vec![(6, 7)]);
    assert_eq!(spans(&findings, RuleId::D001), vec![(11, 7)]);
}

#[test]
fn directive_stacks_resolve_to_the_statement_below() {
    // Regression for the S001 stack bug: a stack of directives binds to
    // the first code line below it, and a plain comment between a
    // directive and its code does not break the chain.
    let findings = lint_fixture("s001_stack.rs");
    assert!(
        findings.iter().all(|f| f.suppressed),
        "unsuppressed: {:?}",
        findings
            .iter()
            .filter(|f| !f.suppressed)
            .map(Finding::render)
            .collect::<Vec<_>>()
    );
    // No directive in the stack is reported stale or bare.
    assert!(!findings.iter().any(|f| f.rule.is_suppression_hygiene()));
    // Both rules were actually exercised.
    assert!(findings.iter().any(|f| f.rule == RuleId::D001));
    assert!(findings.iter().any(|f| f.rule == RuleId::D004));
}

#[test]
fn workload_gen_shapes_fire_every_rule() {
    // The workload generators' tempting mistakes, in their own shape:
    // wall-clock corpus seeding, hash-ordered version emission, a float
    // edit-rate fold in hash order, and an unwrap on the clock read.
    let findings = lint_fixture("workload_gen.rs");
    assert_eq!(spans(&findings, RuleId::D001), vec![(24, 32), (33, 22)]);
    assert_eq!(spans(&findings, RuleId::D002), vec![(16, 26)]);
    assert_eq!(spans(&findings, RuleId::D003), vec![(17, 48)]);
    assert_eq!(spans(&findings, RuleId::D004), vec![(33, 31)]);
    // The BTreeMap half — the real generators' shape — and the
    // #[cfg(test)] module are clean.
    assert!(findings.iter().all(|f| f.line < 36));
}

#[test]
fn the_real_workload_generators_lint_clean() {
    // The production generators must exemplify what the fixture above
    // pins: every byte from a labeled DetRng substream, ordered
    // containers only, no clock, no panic outside #[cfg(test)].
    let findings = lint_real("datagen/src/workload.rs", &SIM_CTX);
    assert!(
        findings.iter().all(|f| f.suppressed),
        "workload module has unsuppressed findings: {:?}",
        findings
            .iter()
            .filter(|f| !f.suppressed)
            .map(Finding::render)
            .collect::<Vec<_>>()
    );
}

#[test]
fn the_property_harness_lints_clean_with_no_suppression() {
    // The harness decides which cases every property in the workspace
    // sees, so it is held to the sim-critical rules with nothing excused:
    // no wall clock, no entropy, no unordered iteration, no panic other
    // than the assertion that reports a falsified property.
    let findings = lint_real("simcore/src/prop.rs", &SIM_CTX);
    assert!(
        findings.is_empty(),
        "{:?}",
        findings.iter().map(Finding::render).collect::<Vec<_>>()
    );
}

#[test]
fn wal_recovery_shapes_fire_every_rule() {
    // The crash-recovery subsystem's tempting mistakes, in its own
    // shape: hash-ordered WAL replay, wall-clock snapshot stamps,
    // panicking record decode, hash-ordered latency accumulation.
    let findings = lint_fixture("wal_recovery.rs");
    assert_eq!(spans(&findings, RuleId::D001), vec![(23, 31), (44, 24)]);
    assert_eq!(spans(&findings, RuleId::D002), vec![(32, 20)]);
    assert_eq!(spans(&findings, RuleId::D003), vec![(42, 41)]);
    assert_eq!(spans(&findings, RuleId::D004), vec![(44, 33)]);
    // The #[cfg(test)] module's unwrap is exempt.
    assert!(findings.iter().all(|f| f.line < 48));
}
