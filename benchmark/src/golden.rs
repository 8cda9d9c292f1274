//! Golden digests: `benchmark/goldens/<workload>.digest`.
//!
//! One line per blessed scope, `<scope> <16 hex digits>`, where the
//! scope is `any` for workloads whose virtual-time facts do not depend
//! on `--seed` (matrix values never change `T_p`, message or word
//! counts) and the seed number otherwise.  A run whose scope has no
//! line is not compared: it still verifies every product.

use std::fs;
use std::path::Path;

/// Outcome of comparing a run's digest with its golden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Golden {
    /// Same digest.
    Match,
    /// The golden holds another digest: virtual time drifted.
    Mismatch {
        /// Digest on file.
        expected: u64,
    },
    /// No golden line for this scope (another seed, or none blessed).
    Unchecked,
    /// `--bless` wrote the line.
    Blessed,
}

impl Golden {
    /// Short word for reports.
    #[must_use]
    pub fn word(&self) -> &'static str {
        match self {
            Golden::Match => "match",
            Golden::Mismatch { .. } => "MISMATCH",
            Golden::Unchecked => "unchecked",
            Golden::Blessed => "blessed",
        }
    }
}

/// The golden line a run is compared with.
#[must_use]
pub fn scope(seeded: bool, seed: u64, smoke: bool) -> String {
    let shape = if smoke { "smoke-" } else { "" };
    if seeded {
        format!("{shape}{seed}")
    } else {
        format!("{shape}any")
    }
}

fn lines(path: &Path) -> Vec<(String, u64)> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (scope, hex) = l.split_once(' ')?;
            Some((scope.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Compare `digest` with the golden of `workload`, or rewrite its line
/// when `bless` is set.
///
/// # Errors
/// Only when blessing cannot write the file.
pub fn check(
    dir: &Path,
    workload: &str,
    scope: &str,
    digest: u64,
    bless: bool,
) -> std::io::Result<Golden> {
    let path = dir.join(format!("{workload}.digest"));
    let mut known = lines(&path);
    if bless {
        known.retain(|(s, _)| s != scope);
        known.push((scope.to_string(), digest));
        known.sort();
        fs::create_dir_all(dir)?;
        let text: String = known
            .iter()
            .map(|(s, d)| format!("{s} {d:016x}\n"))
            .collect();
        fs::write(&path, text)?;
        return Ok(Golden::Blessed);
    }
    Ok(match known.iter().find(|(s, _)| s == scope) {
        Some(&(_, expected)) if expected == digest => Golden::Match,
        Some(&(_, expected)) => Golden::Mismatch { expected },
        None => Golden::Unchecked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_then_match_then_drift() {
        let dir = std::env::temp_dir().join(format!("ledger-golden-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            check(&dir, "w", &scope(true, 1, false), 0xabc, false).unwrap(),
            Golden::Unchecked
        );
        assert_eq!(
            check(&dir, "w", &scope(true, 1, false), 0xabc, true).unwrap(),
            Golden::Blessed
        );
        assert_eq!(
            check(&dir, "w", &scope(true, 1, false), 0xabc, false).unwrap(),
            Golden::Match
        );
        assert_eq!(
            check(&dir, "w", &scope(true, 1, false), 0xabd, false).unwrap(),
            Golden::Mismatch { expected: 0xabc }
        );
        // Another seed has no line; a seed-independent workload has one scope.
        assert_eq!(
            check(&dir, "w", &scope(true, 2, false), 0xabc, false).unwrap(),
            Golden::Unchecked
        );
        assert_eq!(
            check(&dir, "v", &scope(false, 2, false), 7, true).unwrap(),
            Golden::Blessed
        );
        assert_eq!(
            check(&dir, "v", &scope(false, 99, false), 7, false).unwrap(),
            Golden::Match
        );
        // The smoke shapes have scopes of their own.
        assert_eq!(
            check(&dir, "v", &scope(false, 99, true), 7, false).unwrap(),
            Golden::Unchecked
        );
        // Re-blessing replaces the line instead of appending.
        check(&dir, "w", &scope(true, 1, false), 0xdef, true).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join("w.digest"))
                .unwrap()
                .lines()
                .count(),
            1
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
