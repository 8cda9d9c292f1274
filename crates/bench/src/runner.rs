//! The one runner behind every subcommand. It owns what the subcommands
//! share: argument parsing and usage text, `--smoke`, `--bless` (on the
//! default sweep only) and `--enforce`, the golden pass and the exit
//! code. A subcommand only returns a [`Report`].

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use bench::{Args, Fail, Report, Syntax};

/// One row of the subcommand table.
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// One line for the subcommand list.
    pub about: &'static str,
    /// What it takes on its command line.
    pub syntax: Syntax,
    /// Whether it is compared against goldens. Only pinned subcommands
    /// take `--bless`, and `all` runs exactly these.
    pub pinned: bool,
    /// The artifact itself.
    pub run: fn(&Args) -> Result<Report, Fail>,
}

/// Where the goldens are read and the results written.
pub struct Dirs {
    /// `crates/bench/goldens`.
    pub goldens: PathBuf,
    /// `results/`, which also receives a mismatching golden's
    /// `<name>.actual`.
    pub results: PathBuf,
}

macro_rules! say {
    ($w:expr, $($arg:tt)*) => {{
        let _ = writeln!($w, $($arg)*);
    }};
}

/// Run `argv` (without the program name) against the subcommand
/// table; returns whether every subcommand run succeeded.
pub fn run(
    commands: &[Command],
    argv: &[String],
    dirs: &Dirs,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> bool {
    let Some((name, rest)) = argv.split_first() else {
        usage(commands, None, "missing subcommand", err);
        return false;
    };
    let all = name == "all";
    let chosen: Vec<&Command> = if all {
        commands.iter().filter(|c| c.pinned).collect()
    } else if let Some(c) = commands.iter().find(|c| c.name == *name) {
        vec![c]
    } else {
        usage(commands, None, &format!("unknown subcommand {name:?}"), err);
        return false;
    };
    // `all` takes only the three shared switches.
    let syntax = if all {
        &Syntax::NONE
    } else {
        &chosen[0].syntax
    };
    if let Err(e) = Args::parse(rest, syntax) {
        usage(commands, (!all).then(|| chosen[0]), &e, err);
        return false;
    }
    let runs: Vec<(&Command, Args)> = chosen
        .into_iter()
        .map(|c| (c, Args::parse(rest, &c.syntax).expect("parsed above")))
        .collect();
    if let Some((c, _)) = runs
        .iter()
        .find(|(c, a)| a.bless && !(c.pinned && a.is_default()))
    {
        say!(
            err,
            "error: --bless rewrites goldens, so it needs a pinned subcommand at its default \
             options (`{}` {})",
            c.name,
            if c.pinned {
                "was given others"
            } else {
                "has none"
            }
        );
        return false;
    }
    let mut failed = Vec::new();
    for (cmd, args) in &runs {
        if all {
            say!(out, "\n################ {} ################\n", cmd.name);
        }
        if !run_one(commands, cmd, args, dirs, out, err) {
            failed.push(cmd.name);
        }
    }
    if !failed.is_empty() {
        say!(err, "\nFAIL: {}", failed.join(", "));
    }
    failed.is_empty()
}

/// Run one subcommand, write its files, compare every golden (no
/// short-circuit: each mismatch is parked) and apply its gate.
fn run_one(
    commands: &[Command],
    cmd: &Command,
    args: &Args,
    dirs: &Dirs,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> bool {
    let report = match (cmd.run)(args) {
        Ok(report) => report,
        Err(Fail::Usage(e)) => {
            usage(commands, Some(cmd), &e, err);
            return false;
        }
        Err(Fail::Check(e)) => {
            say!(err, "{}: FAIL: {e}", cmd.name);
            return false;
        }
    };
    let _ = out.write_all(report.text.as_bytes());
    let mut ok = true;
    for (name, body) in &report.files {
        let path = dirs.results.join(name);
        match fs::create_dir_all(&dirs.results).and_then(|()| fs::write(&path, body)) {
            Ok(()) => say!(out, "wrote {}", path.display()),
            Err(e) => {
                say!(err, "cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if !args.is_default() {
        if !report.goldens.is_empty() {
            say!(out, "golden check skipped (non-default options)");
        }
    } else {
        for (name, body) in &report.goldens {
            // `&=`, not `&&`: every golden is compared after a mismatch.
            ok &= golden(cmd.name, name, body, args.bless, dirs, out, err);
        }
    }
    if args.enforce {
        match &report.gate {
            Ok(held) if !held.is_empty() => say!(out, "enforced: {held}"),
            Ok(_) => {}
            Err(broke) => {
                say!(err, "{}: --enforce: {broke}", cmd.name);
                ok = false;
            }
        }
    }
    ok
}

/// Compare `actual` against the golden `name`, or rewrite it under
/// `--bless`. A mismatching or missing golden parks the actual bytes in
/// `results/<name>.actual`.
fn golden(
    cmd: &str,
    name: &str,
    actual: &str,
    bless: bool,
    dirs: &Dirs,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> bool {
    let path = dirs.goldens.join(name);
    if bless {
        let wrote = fs::create_dir_all(&dirs.goldens).and_then(|()| fs::write(&path, actual));
        match &wrote {
            Ok(()) => say!(out, "blessed {}", path.display()),
            Err(e) => say!(err, "cannot bless {}: {e}", path.display()),
        }
        return wrote.is_ok();
    }
    let problem = match fs::read_to_string(&path) {
        Ok(expected) if expected == actual => {
            say!(out, "golden {name}: byte-identical");
            return true;
        }
        Ok(_) => format!("MISMATCH — {cmd} output drifted"),
        Err(e) => format!("missing {} ({e}); run with --bless", path.display()),
    };
    let park = dirs.results.join(format!("{name}.actual"));
    match fs::create_dir_all(&dirs.results).and_then(|()| fs::write(&park, actual)) {
        Ok(()) => say!(
            err,
            "golden {name}: {problem}; actual parked at {}",
            park.display()
        ),
        Err(e) => say!(err, "golden {name}: {problem}; cannot park the actual: {e}"),
    }
    false
}

/// The error, the subcommand's own usage line when there is one, and
/// the subcommand list.
fn usage(commands: &[Command], cmd: Option<&Command>, msg: &str, err: &mut dyn Write) {
    say!(err, "error: {msg}");
    if let Some(c) = cmd {
        say!(
            err,
            "usage: bench {} {}",
            c.name,
            c.syntax.usage().trim_start()
        );
    }
    say!(
        err,
        "usage: bench <subcommand> [options]\n\nsubcommands (* = pinned by goldens):"
    );
    say!(
        err,
        "  {:<13} every pinned subcommand, in this order",
        "all"
    );
    for c in commands {
        let mark = if c.pinned { '*' } else { ' ' };
        say!(err, "{mark} {:<13} {}", c.name, c.about);
    }
    say!(
        err,
        "\n--smoke runs the reduced sweep, --bless rewrites the goldens (default options \
         only), --enforce fails on the acceptance gate"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::Opt;

    fn two_goldens(_: &Args) -> Result<Report, Fail> {
        let mut r = Report::default();
        r.golden("a.csv", "new\n");
        r.golden("b.csv", "same\n");
        r.golden("c.csv", "fresh\n");
        Ok(r)
    }

    fn gated(_: &Args) -> Result<Report, Fail> {
        let mut r = Report::default();
        r.golden("b.csv", "same\n");
        r.gate = Err("threshold missed".into());
        Ok(r)
    }

    const FAKE: &[Command] = &[
        Command {
            name: "two",
            about: "three goldens",
            syntax: Syntax::options(&[Opt::new("seed", "7")]),
            pinned: true,
            run: two_goldens,
        },
        Command {
            name: "gated",
            about: "a golden and a failing gate",
            syntax: Syntax::NONE,
            pinned: true,
            run: gated,
        },
    ];

    /// Fresh goldens/results directories for one test, removed on drop.
    struct Scratch {
        root: PathBuf,
        dirs: Dirs,
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    fn scratch(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("bench-runner-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let dirs = Dirs {
            goldens: root.join("goldens"),
            results: root.join("results"),
        };
        fs::create_dir_all(&dirs.goldens).unwrap();
        Scratch { root, dirs }
    }

    fn drive(commands: &[Command], line: &str, dirs: &Dirs) -> (bool, String, String) {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let ok = run(commands, &argv, dirs, &mut out, &mut err);
        let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
        (ok, text(out), text(err))
    }

    #[test]
    fn unknown_subcommand_or_flag_fails_and_lists_the_subcommands() {
        let s = scratch("usage");
        let dirs = &s.dirs;
        for line in [
            "",
            "nope",
            "table1 --bogus",
            "resilience --n",
            "all --seed 3",
            "cm5 stray",
        ] {
            let (ok, _, err) = drive(crate::COMMANDS, line, dirs);
            assert!(!ok, "{line:?} must fail");
            for c in crate::COMMANDS {
                assert!(err.contains(c.name), "{line:?}: list lacks {}", c.name);
            }
        }
    }

    #[test]
    fn bless_is_refused_off_the_default_sweep_for_every_pinned_subcommand() {
        let s = scratch("bless");
        let dirs = &s.dirs;
        let mut refused = 0;
        for c in crate::COMMANDS {
            let line = if c.pinned {
                let Some(o) = c.syntax.options.first() else {
                    continue;
                };
                let other = if o.full == "1" { "2" } else { "1" };
                format!("{} --bless --{} {other}", c.name, o.name)
            } else {
                format!("{} --bless", c.name)
            };
            let (ok, _, err) = drive(crate::COMMANDS, &line, dirs);
            assert!(!ok && err.contains("--bless"), "{line:?} must be refused");
            refused += 1;
        }
        assert!(refused >= 8, "only {refused} subcommands checked");
        assert_eq!(fs::read_dir(&dirs.goldens).unwrap().count(), 0);
        assert!(!dirs.results.exists(), "a refused bless ran something");
    }

    #[test]
    fn a_mismatch_is_parked_and_every_other_golden_still_compared() {
        let s = scratch("mismatch");
        let dirs = &s.dirs;
        fs::write(dirs.goldens.join("a.csv"), "old\n").unwrap();
        fs::write(dirs.goldens.join("b.csv"), "same\n").unwrap();
        let (ok, out, err) = drive(FAKE, "two", dirs);
        assert!(!ok);
        assert!(err.contains("golden a.csv: MISMATCH"), "{err}");
        assert!(out.contains("golden b.csv: byte-identical"), "{out}");
        assert!(err.contains("golden c.csv: missing"), "{err}");
        let parked = |n: &str| fs::read_to_string(dirs.results.join(n)).unwrap();
        assert_eq!(parked("a.csv.actual"), "new\n");
        assert_eq!(parked("c.csv.actual"), "fresh\n");
        assert!(!dirs.results.join("b.csv.actual").exists());
        // Off the default sweep the goldens are skipped, not failed.
        let (ok, out, _) = drive(FAKE, "two --seed 8", dirs);
        assert!(ok && out.contains("golden check skipped"));
        // A bless at the default rewrites all three, and they then match.
        assert!(drive(FAKE, "two --bless", dirs).0);
        assert!(drive(FAKE, "two", dirs).0);
    }

    #[test]
    fn an_enforce_gate_failure_fails_even_when_every_golden_matches() {
        let s = scratch("gate");
        let dirs = &s.dirs;
        fs::write(dirs.goldens.join("b.csv"), "same\n").unwrap();
        assert!(
            drive(FAKE, "gated", dirs).0,
            "the gate only binds under --enforce"
        );
        let (ok, out, err) = drive(FAKE, "gated --enforce", dirs);
        assert!(!ok);
        assert!(out.contains("golden b.csv: byte-identical"), "{out}");
        assert!(err.contains("--enforce: threshold missed"), "{err}");
    }
}
