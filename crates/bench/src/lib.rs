//! Shared vocabulary of the `bench` reproduction driver: result tables,
//! the parsed command line of a subcommand ([`Args`]), what a
//! subcommand hands back to the runner ([`Report`]) and parallel
//! sweeps.
//!
//! Every table and figure of the paper is one subcommand of the one
//! binary, `cargo run -p bench --release -- <subcommand>` (see
//! DESIGN.md's per-experiment index); the runner in `src/runner.rs`
//! owns argument parsing, `--smoke/--bless/--enforce`, the golden
//! comparison and the exit code.

pub mod cm5_common;
pub mod plot;
pub mod service_common;
pub mod svg;

use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A rectangular results table that renders as aligned text and CSV.
#[derive(Debug, Clone)]
pub struct ResultTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// New table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the column count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Aligned human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let mut header = String::new();
        for (w, c) in widths.iter().zip(&self.columns) {
            let _ = write!(header, "{c:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", header.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// CSV rendering (header + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// `<workspace>/results` (next to the top-level Cargo.toml).
#[must_use]
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
}

/// `crates/bench/goldens`, where the committed golden CSVs live.
#[must_use]
pub fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Exact-bit float formatting for the goldens: decimal is for the
/// human, bits for the byte-identity gate.
#[must_use]
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Format an efficiency / ratio to three decimals, or `-`.
#[must_use]
pub fn fmt_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
}

/// One `--name <value>` option of a subcommand, with its default in
/// the full sweep and under `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    /// The option name, without the leading `--`.
    pub name: &'static str,
    /// Default of the full sweep.
    pub full: &'static str,
    /// Default under `--smoke`.
    pub smoke: &'static str,
}

impl Opt {
    /// An option whose default is the same in both sweeps.
    #[must_use]
    pub const fn new(name: &'static str, default: &'static str) -> Self {
        Self::with_smoke(name, default, default)
    }

    /// An option whose `--smoke` default differs.
    #[must_use]
    pub const fn with_smoke(name: &'static str, full: &'static str, smoke: &'static str) -> Self {
        Self { name, full, smoke }
    }
}

/// What a subcommand takes on its command line besides `--smoke`,
/// `--bless` and `--enforce`.
#[derive(Debug, Clone, Copy)]
pub struct Syntax {
    /// Its `--name <value>` options.
    pub options: &'static [Opt],
    /// Its extra value-less switches (`--sim`).
    pub switches: &'static [&'static str],
    /// Usage of its positional arguments; empty when it takes none.
    pub positional: &'static str,
}

impl Syntax {
    /// No options, switches or positional arguments.
    pub const NONE: Self = Self::options(&[]);

    /// Only `--name <value>` options.
    #[must_use]
    pub const fn options(options: &'static [Opt]) -> Self {
        Self {
            options,
            switches: &[],
            positional: "",
        }
    }

    /// The usage line after `bench <subcommand>`, without the three
    /// shared switches.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = self.positional.to_string();
        for o in self.options {
            let _ = write!(out, " [--{} <{}>]", o.name, o.full);
        }
        for s in self.switches {
            let _ = write!(out, " [--{s}]");
        }
        out
    }
}

/// Why a subcommand produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fail {
    /// A malformed command line: the runner adds the usage text.
    Usage(String),
    /// A broken invariant, which fails the run with or without
    /// `--enforce`.
    Check(String),
}

/// The parsed command line of one subcommand.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--smoke`: the reduced sweep CI runs.
    pub smoke: bool,
    /// `--bless`: rewrite the goldens instead of comparing against them.
    pub bless: bool,
    /// `--enforce`: fail on the subcommand's acceptance gate.
    pub enforce: bool,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    options: &'static [Opt],
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    /// Parse an argument list (without the program and subcommand
    /// names) against a subcommand's syntax.
    ///
    /// # Errors
    /// An undeclared `--name`, a `--name` with no value after it, or a
    /// bare word where the subcommand takes no positional arguments.
    pub fn parse(args: &[String], syntax: &Syntax) -> Result<Self, String> {
        let mut out = Self {
            smoke: false,
            bless: false,
            enforce: false,
            positional: Vec::new(),
            options: syntax.options,
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if syntax.positional.is_empty() {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                out.positional.push(arg.clone());
                continue;
            };
            match name {
                "smoke" => out.smoke = true,
                "bless" => out.bless = true,
                "enforce" => out.enforce = true,
                _ if syntax.switches.contains(&name) => out.switches.push(name.to_string()),
                _ if syntax.options.iter().any(|o| o.name == name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("missing value for --{name}"))?;
                    out.values.push((name.to_string(), value.clone()));
                }
                _ => return Err(format!("unknown option {arg:?}")),
            }
        }
        Ok(out)
    }

    /// Whether the switch `--name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The text of `--name`: the last value given, or the default of
    /// the sweep in force.
    ///
    /// # Panics
    /// Panics if the subcommand does not declare `--name`.
    #[must_use]
    pub fn text(&self, name: &str) -> &str {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or_else(|| self.default(name), |(_, v)| v.as_str())
    }

    fn default(&self, name: &str) -> &'static str {
        let opt = self
            .options
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("--{name} is not declared"));
        if self.smoke {
            opt.smoke
        } else {
            opt.full
        }
    }

    /// The value of `--name`, parsed.
    ///
    /// # Errors
    /// [`Fail::Usage`] when the value does not parse as a `T`.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<T, Fail>
    where
        T::Err: Display,
    {
        self.text(name)
            .parse()
            .map_err(|e| Fail::Usage(format!("--{name}: {e}")))
    }

    /// Whether every option holds its default: the sweep the goldens
    /// pin, and the only one `--bless` may rewrite.
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.values.iter().all(|(n, v)| v == self.default(n))
    }
}

/// What a subcommand hands back to the runner: the text it prints, the
/// files it leaves under `results/`, the goldens it is compared
/// against, and its `--enforce` gate.
#[derive(Debug, Clone)]
pub struct Report {
    /// Printed to stdout.
    pub text: String,
    /// `(file name, contents)` written under `results/`.
    pub files: Vec<(String, String)>,
    /// `(file name, contents)` compared byte for byte against
    /// `crates/bench/goldens/` at the default sweep.
    pub goldens: Vec<(String, String)>,
    /// The acceptance gate, failing the run only under `--enforce`:
    /// what held, or what broke.
    pub gate: Result<String, String>,
}

impl Default for Report {
    fn default() -> Self {
        Self {
            text: String::new(),
            files: Vec::new(),
            goldens: Vec::new(),
            gate: Ok(String::new()),
        }
    }
}

impl Report {
    /// Append one line of printed text.
    pub fn print(&mut self, line: impl Display) {
        let _ = writeln!(self.text, "{line}");
    }

    /// Leave `results/<name>`.
    pub fn file(&mut self, name: impl Into<String>, body: impl Into<String>) {
        self.files.push((name.into(), body.into()));
    }

    /// Compare `body` against the golden `name`.
    pub fn golden(&mut self, name: impl Into<String>, body: impl Into<String>) {
        self.goldens.push((name.into(), body.into()));
    }

    /// Leave `results/<name>.csv` and pin it with the golden of the
    /// same name.
    pub fn pinned(&mut self, name: &str, table: &ResultTable) {
        let csv = table.to_csv();
        self.file(format!("{name}.csv"), csv.clone());
        self.golden(format!("{name}.csv"), csv);
    }
}

/// Run a sweep in parallel across the host's cores, preserving input
/// order.  Each simulation inside stays single-run deterministic; only
/// *independent* runs are parallelised (see DESIGN.md §7).
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(inputs.len().max(1));
    if workers <= 1 {
        return inputs.iter().map(&f).collect();
    }
    // Interleaved work-split over scoped threads: worker w takes inputs
    // w, w + workers, w + 2·workers, …, so long and short simulations
    // spread evenly without a work-stealing queue.
    let mut out: Vec<Option<O>> = Vec::with_capacity(inputs.len());
    out.resize_with(inputs.len(), || None);
    let slots: Vec<(usize, std::sync::Mutex<&mut Option<O>>)> = out
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| (i, std::sync::Mutex::new(slot)))
        .collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let f = &f;
            let inputs = &inputs;
            let slots = &slots;
            scope.spawn(move || {
                for (i, slot) in slots.iter().skip(w).step_by(workers) {
                    let value = f(&inputs[*i]);
                    **slot.lock().expect("sweep slot lock") = Some(value);
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("every sweep slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_csv() {
        let mut t = ResultTable::new("demo", &["n", "E"]);
        t.push_row(vec!["64".into(), "0.5".into()]);
        t.push_row(vec!["128".into(), "0.75".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.render();
        assert!(text.contains("demo"));
        assert!(text.contains("0.75"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().next(), Some("n,E"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row/column mismatch")]
    fn row_length_checked() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let out = parallel_sweep((0..100).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn golden_args_parse_switches_and_named_values() {
        const SYNTAX: Syntax =
            Syntax::options(&[Opt::with_smoke("jobs", "150", "60"), Opt::new("seed", "11")]);
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            Args::parse(&argv, &SYNTAX)
        };
        let a = parse("--smoke --jobs 12 --enforce").unwrap();
        assert!(a.smoke && a.enforce && !a.bless);
        assert_eq!(a.value("jobs"), Ok(12usize));
        assert_eq!(a.value("seed"), Ok(11u64));
        assert!(!a.is_default());
        // Defaults follow the sweep in force; restating one is still
        // the default sweep.
        let smoke = parse("--smoke --seed 11").unwrap();
        assert_eq!(smoke.value("jobs"), Ok(60usize));
        assert!(smoke.is_default());
        assert!(matches!(
            parse("--jobs banana").unwrap().value::<usize>("jobs"),
            Err(Fail::Usage(e)) if e.starts_with("--jobs: ")
        ));
        assert_eq!(parse("--seed").unwrap_err(), "missing value for --seed");
        assert!(parse("--bogus 3").unwrap_err().contains("unknown option"));
        assert!(parse("stray").is_err());
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }
}
