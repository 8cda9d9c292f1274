//! The host-time ledger of the parmm workspace: seven end-to-end
//! workloads, 106 per-layer microbenchmarks and a traced pass, all
//! measured from outside through the crates' public functions.
//!
//! See `benchmark/README.md` for what is measured and why.

pub mod catalog;
pub mod digest;
pub mod golden;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod procfs;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;

/// A command running this same executable with no standard input: the
/// ledger's children, the cold set-up probes and the fresh-process
/// probe all start from here.
///
/// # Errors
/// If the path of the running executable cannot be found.
pub fn own_command() -> Result<std::process::Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.stdin(std::process::Stdio::null());
    Ok(cmd)
}
