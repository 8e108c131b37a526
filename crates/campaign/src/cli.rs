//! Shared command-line conventions for the campaign binaries.
//!
//! `tartan_run`, `bench_tier1`, `tartan_gen`, and `bench_compare` used to
//! re-implement the same flag loop (and drift: four copies of `--jobs`,
//! three of `--out`, two of `--store`). This module owns the one loop and
//! the two error conventions every binary follows:
//!
//! * **Usage errors** ([`usage_error`], exit [`EXIT_USAGE`] = 2): a bad
//!   or missing flag prints `tool: message` followed by the usage string.
//! * **I/O and input errors** ([`die`], exit 1; [`input_error`], exit
//!   [`EXIT_USAGE`]): single-line `tool: path: reason` diagnostics in the
//!   scenario layer's style — greppable, no backtraces, no panics.
//!
//! Each binary declares which flags it accepts via a [`FlagSet`];
//! [`parse_args`] rejects everything else with the same `unrecognized
//! flag` message, so an unsupported flag fails identically everywhere.

use std::path::{Path, PathBuf};

use tartan_par as par;
use tartan_robots::Scale;

use crate::engine::ProgressMode;

/// Exit code for command-line usage errors, per the repo's convention
/// (0 success, 1 runtime failure, 2 usage).
pub const EXIT_USAGE: i32 = 2;

/// Prints `tool: msg` plus the usage string to stderr and exits with
/// [`EXIT_USAGE`].
pub fn usage_error(tool: &str, usage: &str, msg: &str) -> ! {
    eprintln!("{tool}: {msg}\n{usage}");
    std::process::exit(EXIT_USAGE);
}

/// Single-line I/O failure in the scenario layer's `path: reason` style;
/// exits 1.
pub fn die(tool: &str, path: &Path, reason: impl std::fmt::Display) -> ! {
    eprintln!("{tool}: {}: {reason}", path.display());
    std::process::exit(1);
}

/// Single-line bad-input diagnosis (`tool: path: missing or malformed
/// what`); exits [`EXIT_USAGE`] — the input is wrong, not the run.
pub fn input_error(tool: &str, path: &str, what: &str) -> ! {
    eprintln!("{tool}: {path}: missing or malformed {what}");
    std::process::exit(EXIT_USAGE);
}

/// Which flags a binary accepts. `--jobs N` is always parsed (every
/// campaign binary fans out); everything else is opt-in so an unsupported
/// flag gets the uniform `unrecognized flag` rejection.
#[derive(Debug, Clone, Copy)]
pub struct FlagSet {
    /// `--out DIR`.
    pub out: bool,
    /// Default output directory when `--out` is absent.
    pub default_out: &'static str,
    /// `--scale small|paper`.
    pub scale: bool,
    /// `--store DIR`.
    pub store: bool,
    /// `--resume` and `--verify N` (require `--store`; the binary
    /// enforces that pairing, since only it knows its usage string).
    pub resume_verify: bool,
    /// `--progress[=human|jsonl]`.
    pub progress: bool,
    /// `--batch DIR` (expand to every `*.json` inside, sorted).
    pub batch: bool,
    /// `--help` / `-h`.
    pub help: bool,
    /// Positional (non-flag) arguments accepted; 0 rejects them all.
    pub max_files: usize,
    /// Extra single-value flags the binary parses itself (e.g.
    /// `tartan_gen`'s `--seed`); returned raw in [`ParsedArgs::extras`].
    pub extras: &'static [&'static str],
}

impl FlagSet {
    /// A minimal set: `--jobs` only, no positionals.
    pub fn jobs_only() -> FlagSet {
        FlagSet {
            out: false,
            default_out: "results",
            scale: false,
            store: false,
            resume_verify: false,
            progress: false,
            batch: false,
            help: false,
            max_files: 0,
            extras: &[],
        }
    }
}

/// The parsed command line. Fields for flags a binary did not enable
/// keep their defaults.
#[derive(Debug)]
pub struct ParsedArgs {
    /// Host worker threads (`--jobs`, resolved: absent/0 → all cores).
    pub jobs: usize,
    /// Positional arguments, in order.
    pub files: Vec<String>,
    /// `--out`, or the flag set's default.
    pub out_dir: PathBuf,
    /// `--scale` override.
    pub scale: Option<Scale>,
    /// `--store DIR`.
    pub store: Option<PathBuf>,
    /// `--resume`.
    pub resume: bool,
    /// `--verify N` (0 = off).
    pub verify: usize,
    /// `--progress` mode.
    pub progress: Option<ProgressMode>,
    /// `--batch DIR`.
    pub batch: Option<PathBuf>,
    /// `(flag, value)` pairs for the binary's extra flags, in order.
    pub extras: Vec<(String, String)>,
    /// `--help` / `-h` was given.
    pub help: bool,
}

/// Parses `args` against `flags`.
///
/// # Errors
///
/// A single-line message (no tool prefix — the caller's [`usage_error`]
/// adds it) for a missing value, an unparsable number, an out-of-range
/// count, an unrecognized flag, or too many positional arguments.
pub fn parse_args(args: &[String], flags: &FlagSet) -> Result<ParsedArgs, String> {
    let (jobs, rest) = par::parse_jobs_flag(args)?;
    let mut p = ParsedArgs {
        jobs,
        files: Vec::new(),
        out_dir: PathBuf::from(flags.default_out),
        scale: None,
        store: None,
        resume: false,
        verify: 0,
        progress: None,
        batch: None,
        extras: Vec::new(),
        help: false,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" if flags.out => match it.next() {
                Some(d) => p.out_dir = PathBuf::from(d),
                None => return Err("--out needs a directory".to_string()),
            },
            "--scale" if flags.scale => match it.next().map(String::as_str) {
                Some("small") => p.scale = Some(Scale::small()),
                Some("paper") => p.scale = Some(Scale::paper()),
                Some(other) => return Err(format!("unknown scale {other:?} (small|paper)")),
                None => return Err("--scale needs a preset (small|paper)".to_string()),
            },
            "--store" if flags.store => match it.next() {
                Some(d) => p.store = Some(PathBuf::from(d)),
                None => return Err("--store needs a directory".to_string()),
            },
            "--resume" if flags.resume_verify => p.resume = true,
            "--verify" if flags.resume_verify => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => p.verify = n,
                _ => return Err("--verify needs a sample count".to_string()),
            },
            "--progress" | "--progress=human" if flags.progress => {
                p.progress = Some(ProgressMode::Human)
            }
            "--progress=jsonl" if flags.progress => p.progress = Some(ProgressMode::Jsonl),
            other if flags.progress && other.starts_with("--progress=") => {
                return Err(format!("unknown progress mode {other:?} (human|jsonl)"))
            }
            "--batch" if flags.batch => match it.next() {
                Some(d) => p.batch = Some(PathBuf::from(d)),
                None => return Err("--batch needs a directory".to_string()),
            },
            "--help" | "-h" if flags.help => p.help = true,
            other if flags.extras.contains(&other) => match it.next() {
                Some(v) => p.extras.push((other.to_string(), v.clone())),
                None => return Err(format!("flag {other} needs a value")),
            },
            other if other.starts_with("--") => {
                return Err(format!("unrecognized flag {other}"))
            }
            other => {
                if p.files.len() >= flags.max_files {
                    return Err(if flags.max_files == 0 {
                        format!("unexpected argument {other:?}")
                    } else {
                        format!(
                            "at most {} scenario file(s) expected",
                            flags.max_files
                        )
                    });
                }
                p.files.push(other.to_string());
            }
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn full() -> FlagSet {
        FlagSet {
            default_out: "results",
            out: true,
            scale: true,
            store: true,
            resume_verify: true,
            progress: true,
            batch: true,
            help: false,
            max_files: usize::MAX,
            extras: &[],
        }
    }

    #[test]
    fn usage_errors_exit_with_code_2() {
        assert_eq!(EXIT_USAGE, 2);
    }

    #[test]
    fn bad_flags_are_rejected_with_single_line_messages() {
        let f = full();
        for (args, want) in [
            (vec!["--jobs"], "flag --jobs needs a value"),
            (vec!["--jobs", "lots"], "bad --jobs"),
            (vec!["--out"], "--out needs a directory"),
            (vec!["--scale", "huge"], "unknown scale \"huge\" (small|paper)"),
            (vec!["--scale"], "--scale needs a preset (small|paper)"),
            (vec!["--store"], "--store needs a directory"),
            (vec!["--verify", "many"], "--verify needs a sample count"),
            (vec!["--progress=loud"], "unknown progress mode \"--progress=loud\" (human|jsonl)"),
            (vec!["--batch"], "--batch needs a directory"),
            (vec!["--frobnicate"], "unrecognized flag --frobnicate"),
        ] {
            let err = parse_args(&argv(&args), &f).expect_err(&args.join(" "));
            assert!(
                err.contains(want),
                "args {args:?}: got {err:?}, want substring {want:?}"
            );
            assert!(!err.contains('\n'), "multi-line error for {args:?}: {err:?}");
        }
    }

    #[test]
    fn disabled_flags_fail_as_unrecognized() {
        let f = FlagSet::jobs_only();
        let err = parse_args(&argv(&["--store", "d"]), &f).unwrap_err();
        assert_eq!(err, "unrecognized flag --store");
        let err = parse_args(&argv(&["stray.json"]), &f).unwrap_err();
        assert_eq!(err, "unexpected argument \"stray.json\"");
        // Jobs are deterministic, so no flag set offers retries or a
        // watchdog.
        for flag in ["--retries", "--watchdog"] {
            let err = parse_args(&argv(&[flag, "2"]), &full()).unwrap_err();
            assert_eq!(err, format!("unrecognized flag {flag}"));
        }
    }

    #[test]
    fn full_flag_set_round_trips() {
        let f = full();
        let p = parse_args(
            &argv(&[
                "a.json", "--jobs", "3", "--out", "o", "--scale", "paper", "--store", "s",
                "--resume", "--verify", "2", "--progress=jsonl", "b.json",
            ]),
            &f,
        )
        .unwrap();
        assert_eq!(p.jobs, 3);
        assert_eq!(p.files, ["a.json", "b.json"]);
        assert_eq!(p.out_dir, PathBuf::from("o"));
        assert!(p.scale.is_some());
        assert_eq!(p.store, Some(PathBuf::from("s")));
        assert!(p.resume);
        assert_eq!(p.verify, 2);
        assert_eq!(p.progress, Some(ProgressMode::Jsonl));
    }

    #[test]
    fn extras_are_returned_raw_in_order() {
        let f = FlagSet {
            extras: &["--seed", "--budget"],
            ..FlagSet::jobs_only()
        };
        let p = parse_args(&argv(&["--seed", "9", "--budget", "64"]), &f).unwrap();
        assert_eq!(
            p.extras,
            [
                ("--seed".to_string(), "9".to_string()),
                ("--budget".to_string(), "64".to_string())
            ]
        );
        let err = parse_args(&argv(&["--budget"]), &f).unwrap_err();
        assert_eq!(err, "flag --budget needs a value");
    }
}
