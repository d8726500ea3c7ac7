//! Report output: every experiment binary prints a human-readable table to
//! stdout and writes the machine-readable CSV/JSON next to it under
//! `results/`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::Scale;

/// Directory (relative to the workspace root / current directory) where
/// experiment binaries drop their CSV and JSON outputs.
pub const RESULTS_DIR: &str = "results";

/// Writes `contents` to `results/<name>`, creating the directory if needed,
/// and returns the path written.
///
/// # Errors
///
/// Propagates any I/O error from creating the directory or writing the file.
pub fn write_results_file(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Writes a run's JSON report to `results/<results_name>` and, on a
/// [`Scale::Full`] run only, to the evidence file `bench_name` (a
/// `BENCH_*.json`) in the current directory, printing each path written. A
/// `--quick` run leaves the committed full-run record as it is. A failed
/// write does not stop the run: its gates still decide the exit status.
pub fn write_report(scale: Scale, results_name: &str, bench_name: &str, json: &str) {
    if let Ok(path) = write_results_file(results_name, json) {
        println!("wrote {}", path.display());
    }
    if scale == Scale::Full {
        match fs::write(bench_name, json) {
            Ok(()) => println!("wrote {bench_name}"),
            Err(e) => eprintln!("could not write {bench_name}: {e}"),
        }
    }
}

/// The machine a `BENCH_*.json` file was measured on: its core count and
/// the L2 and L3 sizes of CPU 0 as sysfs reports them (`"unknown"` where it
/// does not), the fields the repository benchmark prints as its `host`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Host {
    /// Cores available to the process (`available_parallelism`).
    pub nproc: usize,
    /// Size of CPU 0's L2 data or unified cache, e.g. `"2048K"`.
    pub l2: String,
    /// Size of CPU 0's L3 cache.
    pub l3: String,
}

impl Host {
    /// Reads the current machine.
    pub fn current() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2: cache_size(2),
            l3: cache_size(3),
        }
    }
}

/// Size of CPU 0's data or unified cache at `level`, from
/// `/sys/devices/system/cpu/cpu0/cache`, or `"unknown"`.
fn cache_size(level: u32) -> String {
    let entries = fs::read_dir("/sys/devices/system/cpu/cpu0/cache")
        .into_iter()
        .flatten();
    for dir in entries.flatten().map(|entry| entry.path()) {
        let read = |name: &str| fs::read_to_string(dir.join(name)).map(|s| s.trim().to_string());
        let size = read("size").unwrap_or_default();
        if read("level").is_ok_and(|l| l == level.to_string())
            && read("type").is_ok_and(|t| t != "Instruction")
            && !size.is_empty()
        {
            return size;
        }
    }
    "unknown".to_string()
}

/// The commit the working directory has checked out (`git rev-parse
/// HEAD`), suffixed `-dirty` when tracked files differ from it, or
/// `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let git = |args: &[&str]| Command::new("git").args(args).output().ok();
    match git(&["rev-parse", "HEAD"]) {
        Some(out) if out.status.success() => {
            let commit = String::from_utf8_lossy(&out.stdout).trim().to_string();
            let clean = git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| o.status.success());
            if clean {
                commit
            } else {
                format!("{commit}-dirty")
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Prints a titled section to stdout: a header line, a rule, and the body.
pub fn print_section(title: &str, body: &str) {
    println!("\n== {title} ==");
    println!("{}", "-".repeat(title.len() + 6));
    println!("{body}");
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Mutex;

    /// Serializes the tests that change the process's working directory.
    static CWD: Mutex<()> = Mutex::new(());

    /// Runs `f` inside a fresh temporary directory named after `tag`.
    fn in_temp_dir(tag: &str, f: impl FnOnce()) {
        let _guard = CWD.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("mis-bench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        f();
        std::env::set_current_dir(old).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_into_results_dir() {
        in_temp_dir("report", || {
            let path = write_results_file("unit_test.csv", "a,b\n1,2\n").unwrap();
            assert!(path.ends_with("results/unit_test.csv"));
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        });
    }

    #[test]
    fn only_full_runs_write_the_bench_file() {
        in_temp_dir("bench-file", || {
            write_report(Scale::Quick, "unit_test.json", "BENCH_unit.json", "{}");
            assert_eq!(
                std::fs::read_to_string("results/unit_test.json").unwrap(),
                "{}"
            );
            assert!(!Path::new("BENCH_unit.json").exists());
            write_report(Scale::Full, "unit_test.json", "BENCH_unit.json", "[]");
            assert_eq!(
                std::fs::read_to_string("results/unit_test.json").unwrap(),
                "[]"
            );
            assert_eq!(std::fs::read_to_string("BENCH_unit.json").unwrap(), "[]");
        });
    }

    #[test]
    fn print_section_does_not_panic() {
        print_section("title", "body");
    }
}
