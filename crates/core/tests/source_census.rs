//! The source tree's censuses: counts and tombstones that no lint, type
//! or behavioural test holds. DESIGN.md §13 ("Censuses") gives every
//! rule's holder and the violation it was shown to fail on. Every check
//! that reads non-test code reads it through [`code`].

use std::collections::BTreeMap;

/// One rule a line, columns two spaces apart: how many lines (`N`, or at
/// most `<=N`) hold any of the needles (` | ` between them; `a*b` is a
/// line starting with `a` that holds `b` after it, `s[A-Z]` is `s` then a
/// capital, and a line holding a `!s` does not count), read in whole
/// files (`file`) or in their non-test [`code`] (`code`), where [`grep`]
/// says. A `#` line gives the reason.
const RULES: &str = "
# A payload is digested where it enters the node; anti-entropy digests stored sums and walks a store twice (§9, §10).
<=19  code  crates/kvstore/src  checksum64( | Checksum64::new( | Summed::digest( | !fn checksum64( | !fn digest(
2  code  crates/kvstore/src/antientropy.rs  iter_summed(
0  code  crates/kvstore/src/antientropy.rs  checksum64(
0  code  crates/kvstore/src/sim/background.rs  checksum64(
0  file  crates/kvstore/src/sim/background.rs  iter_summed(
0  file  crates/kvstore/src/engine.rs  fn generation
# The index is one map keyed head word first, compacted by a stable sort; the ring binary-searches its tokens (§11).
1  code  crates/kvstore/src/engine.rs  BTreeMap<
1  code  crates/kvstore/src/engine.rs  BTreeMap<Key,
0  code  crates/kvstore/src/engine.rs  fn flush( | fn compact( | Tombstone | write_count | read_count
0  code  crates/kvstore/src/engine.rs > pub struct StorageEngine {  segments
0  code  crates/kvstore/src/storage.rs > fn live_frames(  BTreeMap
0  code  crates/kvstore/src/ring.rs  range(
# A fault plan is one list of windows; a SimCluster takes faults through inject; LocalCluster has none (§7).
0  file  crates/netsim/src  FaultStats | fn degrade( | fn jitter(
1  code  crates/netsim/src/fault.rs > pub struct FaultPlan {  Vec<
1  code  crates/netsim/src/fault.rs > pub struct FaultPlan {  Vec<FaultWindow>
0  file  crates/kvstore/src  pub fn crash_at( | pub fn revive_at( | pub fn crash_stop_at( | pub fn restart_at( | pub fn depart_at( | pub fn storage_rot_at( | pub fn storage_stall_at( | pub fn cloud_outage_at( | pub fn ring_outage_at(
0  code  crates/kvstore/src/chaos.rs > pub fn apply(  => | ChaosEvent::[A-Z] | ClusterFault::[A-Z]
0  file  crates/kvstore/src/cluster.rs  pub fn set_down( | pub fn set_up( | pub fn is_down( | pub fn add_node( | pub fn remove_node( | pub fn rebalance( | pub fn anti_entropy(
1  code  library  impl*LocalCluster
1  code  crates/kvstore/src/cluster.rs  impl*LocalCluster
# Replaced designs stay deleted (§11, §15, §17, §18), and the model crate does not depend on the cloud tier (§4).
0  file  everywhere  ChunkStore | FileCatalog | FileId | InMemoryChunkIndex
1  file  crates/cloudstore/src  pub struct *Store
0  file  everywhere  PopChallenge | PopResponse | PopWait | derive_challenge | pop_digest | pop_proven
0  file  crates/kvstore/src  saturating_add(other. | += other. | .max(other.
0  file  crates/core/src  saturating_add(other. | += other. | .max(other.
0  code  crates/cloudstore/src/durable.rs  encode_flat
0  file  crates/erasure/src  fn encode_flat
1  file  everywhere  from_millis(211)
0  file  tests  fn testbed
<=2700  file  tests  *
0  file  crates/core/Cargo.toml  ef-cloudstore
# Few lint escapes (a cfg_attr counts as the one it carries), none wholesale; one unsafe_code escape (§13).
<=76  code  library  [expect( | cfg_attr(
0  file  crates/kvstore/src/node.rs  [expect( | [allow( | cfg_attr(
0  file  crates/kvstore/src/node  [expect( | [allow( | cfg_attr(
0  file  crates/simcore/src/prop.rs  [expect( | [allow( | cfg_attr(
0  file  library  #![expect( | #![allow(
0  file  everywhere  #![allow( | #![cfg_attr(
1  file  everywhere  unsafe_code
1  file  crates/chunking/src/sha256.rs  unsafe_code
";

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
/// This file, which names every tombstone.
const SELF: &str = "crates/core/tests/source_census.rs";
/// What ends the read of non-test code on the line after `#[cfg(test)]`.
const TEST_MODS: [&str; 3] = ["mod ", "pub mod ", "pub(crate) mod "];

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(format!("{ROOT}/{path}")).map_err(|e| format!("{path}: {e}"))
}

/// `(path, text)` of `at`: a file, or every `.rs` file under a directory,
/// under `crates/*/src` and `src` (`library`), or under the crates, `src`,
/// `tests` and `examples` (`everywhere`); this file aside.
fn files(at: &str) -> Result<Vec<(String, String)>, String> {
    let tops = ["crates", "src", "tests", "examples"];
    let mut todo = match at {
        "library" | "everywhere" => tops.map(String::from).into(),
        _ => vec![at.to_string()],
    };
    let mut found = Vec::new();
    while let Some(path) = todo.pop() {
        let Ok(dir) = std::fs::read_dir(format!("{ROOT}/{path}")) else {
            found.extend((path == at || path.ends_with(".rs") && path != SELF).then_some(path));
            continue;
        };
        for entry in dir {
            let name = entry.map_err(|e| e.to_string())?.file_name();
            todo.push(format!("{path}/{}", name.to_string_lossy()));
        }
    }
    let lib = |p: &String| p.starts_with("src/") || p.split('/').nth(2) == Some("src");
    found.retain(|p| at != "library" || lib(p));
    found.sort();
    found.iter().map(|p| Ok((p.clone(), read(p)?))).collect()
}

/// The non-test code of a file, numbered from 1: its lines down to the
/// first `#[cfg(test)]` that gates a `mod` (a test-only field or
/// statement above it does not end the read), comment lines skipped; a
/// `tests.rs` holds none.
fn code<'a>(path: &str, text: &'a str) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    let mut gated = false;
    for (n, line) in text.lines().enumerate() {
        let t = line.trim_start();
        if path.ends_with("/tests.rs") || gated && TEST_MODS.iter().any(|m| t.starts_with(m)) {
            break;
        } else if !t.starts_with("//") {
            gated = t.starts_with("#[cfg(test)]");
            out.push((n + 1, line));
        }
    }
    out
}

/// `path:n: line` of each line of `at` (see [`files`]) that `pat` holds,
/// in whole files or in their non-test [`code`]. `path > head` narrows a
/// file to the item whose first line starts with `head`, down to the
/// closing brace at that line's indentation.
fn grep(at: &str, non_test: bool, pat: impl Fn(&str) -> bool) -> Result<Vec<String>, String> {
    let (at, head) = at.split_once(" > ").unwrap_or((at, ""));
    let mut hits = Vec::new();
    for (path, text) in files(at)? {
        let mut lines = match non_test {
            true => code(&path, &text),
            false => text.lines().enumerate().map(|(n, l)| (n + 1, l)).collect(),
        };
        if !head.is_empty() {
            let first = |(_, l): &(usize, &str)| l.trim_start().starts_with(head);
            let start = lines.iter().position(first);
            lines.drain(..start.ok_or(format!("{path}: no {head}"))?);
            let close = lines[0].1.replace(lines[0].1.trim_start(), "}");
            let end = lines.iter().position(|(_, l)| l.starts_with(&close));
            lines.truncate(end.unwrap_or(lines.len()));
        }
        let found = lines.into_iter().filter(|(_, l)| pat(l));
        hits.extend(found.map(|(n, l)| format!("{path}:{n}: {l}")));
    }
    Ok(hits)
}

/// `needle` in `line`, as [`RULES`] spells needles.
fn holds(line: &str, needle: &str) -> bool {
    if let Some((start, rest)) = needle.split_once('*') {
        let line = line.trim_start();
        return line.starts_with(start) && line[start.len()..].contains(rest);
    }
    let Some(s) = needle.strip_suffix("[A-Z]") else {
        return line.contains(needle);
    };
    let capital = |(i, _): (usize, &str)| line[i + s.len()..].starts_with(char::is_uppercase);
    line.match_indices(s).any(capital)
}

#[test]
fn every_census_rule_holds() -> Result<(), String> {
    let mut broken = Vec::new();
    for rule in RULES.trim().lines().filter(|l| !l.starts_with('#')) {
        let [count, reading, at, needles] = rule.split("  ").collect::<Vec<_>>()[..] else {
            return Err(format!("not a rule: {rule}"));
        };
        let (not, any): (Vec<_>, Vec<_>) = needles.split(" | ").partition(|n| n.starts_with('!'));
        let pat =
            |l: &str| any.iter().any(|n| holds(l, n)) && !not.iter().any(|n| holds(l, &n[1..]));
        let hits = grep(at, reading == "code", pat)?;
        let bound = count.trim_start_matches("<=").parse().unwrap_or(0);
        if hits.len() > bound || hits.len() < bound && !count.starts_with("<=") {
            broken.push(format!("{rule}\n  found:\n  {}", hits.join("\n  ")));
        }
    }
    assert!(broken.is_empty(), "broken rules:\n{}", broken.join("\n"));
    Ok(())
}

/// CHANGES.md is one line per PR, headed `PR n` or `ISSUE n` (a
/// follow-up has a head of its own).
#[test]
fn changes_md_has_one_line_per_pr() -> Result<(), String> {
    let mut heads = BTreeMap::new();
    for line in read("CHANGES.md")?.lines() {
        let Some((kind @ ("PR" | "ISSUE"), rest)) = line.split_once(' ') else {
            continue;
        };
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let follow_up = rest[digits..].starts_with(" follow-up");
        let head = format!("{kind} {} {follow_up}", &rest[..digits]);
        *heads.entry(head).or_insert(0) += usize::from(digits > 0);
    }
    heads.retain(|_, n| *n > 1);
    assert!(heads.is_empty(), "repeated heads: {heads:?}");
    Ok(())
}

/// The reader against the misreadings of the shell censuses it replaced.
mod reader {
    use super::code;

    fn count(text: &str, needle: &str) -> usize {
        let lines = code("src/fixture.rs", text);
        lines.iter().filter(|(_, l)| l.contains(needle)).count()
    }

    /// A test-only statement above the walks ended the old store-walk
    /// census's read there, so it counted 0 walks where there are 2.
    #[test]
    fn a_test_only_field_or_statement_does_not_end_the_read() {
        let text = "\
pub struct S {
    #[cfg(test)]
    probe: u8,
}
fn of() {
    #[cfg(test)]
    note();
    store.iter_summed();
}
fn repairs() {
    store.iter_summed();
}
#[cfg(test)]
mod tests {
    fn t() { store.iter_summed(); }
}
";
        assert_eq!(count(text, "iter_summed("), 2);
    }

    #[test]
    fn a_test_mod_ends_the_read_whatever_its_visibility() {
        for m in [
            "mod tests {",
            "pub mod reference {",
            "pub(crate) mod reference {",
        ] {
            let text = format!("fn a() {{ x.walk(); }}\n#[cfg(test)]\n{m}\n    fn b() {{ x.walk(); }}\n}}\nfn c() {{ x.walk(); }}\n");
            assert_eq!(count(&text, "walk("), 1, "{m}");
        }
        let ungated = "#[cfg(test)]\nconst A: u8 = 0;\nmod m {\n    fn b() { x.walk(); }\n}\n";
        assert_eq!(count(ungated, "walk("), 1);
    }

    #[test]
    fn comment_lines_and_tests_rs_are_not_code() {
        let text = "// x.walk();\n    /// x.walk();\n//! x.walk();\nfn a() { x.walk(); } // code\n";
        assert_eq!(count(text, "walk("), 1);
        assert!(code("crates/kvstore/src/sim/tests.rs", "fn a() { x.walk(); }\n").is_empty());
    }
}
