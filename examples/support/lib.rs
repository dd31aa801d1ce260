#![deny(rustdoc::broken_intra_doc_links)]

//! Shared helpers for the runnable examples.
//!
//! The examples themselves live at the repository's `examples/*.rs`:
//!
//! * `quickstart` — five-minute tour of the library on a torus;
//! * `cluster_scheduler` — discrete token balancing as a datacenter job
//!   queue scenario, racing Algorithm 1 against the baselines;
//! * `dynamic_p2p` — a churning peer-to-peer overlay (Section 5 + 6
//!   models, with outage injection);
//! * `proof_explorer` — walks one sequentialized round edge by edge,
//!   printing the Lemma 1 certificates (the paper's proof, live).

/// Renders a small sparkline of a potential trace for terminal output.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-300);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

/// Logarithmic sparkline (clamps at `floor` to keep zeros drawable),
/// downsampled to at most 64 characters.
pub fn log_sparkline(values: &[f64], floor: f64) -> String {
    let logged: Vec<f64> = values.iter().map(|&v| v.max(floor).log10()).collect();
    sparkline(&downsample(&logged, 64))
}

/// Reduces a series to at most `max_len` points by striding (keeps the
/// first and last values).
pub fn downsample(values: &[f64], max_len: usize) -> Vec<f64> {
    assert!(max_len >= 2, "need at least two output points");
    if values.len() <= max_len {
        return values.to_vec();
    }
    let stride = (values.len() - 1) as f64 / (max_len - 1) as f64;
    (0..max_len)
        .map(|i| values[(i as f64 * stride).round() as usize])
        .collect()
}

/// Parses `--flag value`-style overrides out of `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// `--n 128`-style usize override with a default. An unparsable value
/// exits with code 2 and names the flag.
pub fn arg_usize(name: &str, default: usize) -> usize {
    parse_usize(name, arg_value(name).as_deref(), default).unwrap_or_else(|msg| exit_usage(&msg))
}

/// The parsing half of [`arg_usize`]: `value` is the flag's argument, if
/// the flag was given.
pub fn parse_usize(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} must be a non-negative integer, got {v:?}")),
    }
}

/// Runs [`check_flags`] on this process's arguments and exits with code 2
/// on anything the program does not accept.
pub fn require_flags(valued: &[&str], switches: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = check_flags(&args, valued, switches) {
        exit_usage(&msg);
    }
}

/// Prints `msg` to stderr and exits with the usage-error code 2.
fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Checks a command line against the flags a program accepts: `valued`
/// flags consume the next argument, `switches` stand alone. Anything else
/// is an error whose message names the offending arguments and lists
/// every accepted flag, so a typo (or a flag another tool takes) fails
/// loudly instead of being ignored.
pub fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut unknown = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if !switches.contains(&arg.as_str()) {
            unknown.push(arg.as_str());
        }
    }
    if unknown.is_empty() {
        return Ok(());
    }
    let valued: Vec<String> = valued.iter().map(|f| format!("{f} <value>")).collect();
    Err(format!(
        "unknown argument(s): {}\naccepted flags: {}",
        unknown.join(" "),
        valued
            .iter()
            .map(String::as_str)
            .chain(switches.iter().copied())
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn sparkline_constant_input() {
        let s = sparkline(&[2.0, 2.0]);
        assert_eq!(s.chars().count(), 2);
    }

    #[test]
    fn log_sparkline_handles_zero() {
        let s = log_sparkline(&[100.0, 1.0, 0.0], 1e-3);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn downsample_caps_length() {
        let long: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let short = downsample(&long, 64);
        assert_eq!(short.len(), 64);
        assert_eq!(short[0], 0.0);
        assert_eq!(*short.last().unwrap(), 999.0);
        // Short inputs pass through unchanged.
        assert_eq!(downsample(&[1.0, 2.0], 64), vec![1.0, 2.0]);
    }

    #[test]
    fn arg_usize_default() {
        assert_eq!(arg_usize("--definitely-not-passed", 42), 42);
    }

    #[test]
    fn parse_usize_rejects_unparsable_values_by_flag_name() {
        assert_eq!(parse_usize("--n", None, 42), Ok(42));
        assert_eq!(parse_usize("--n", Some("256"), 42), Ok(256));
        for bad in ["abc", "", "-3", "1.5"] {
            let err = parse_usize("--n", Some(bad), 42).expect_err(bad);
            assert!(err.starts_with("--n must be"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn check_flags_rejects_unknown_and_lists_accepted() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (valued, switches) = (&["--name", "--json"][..], &["--list"][..]);
        assert!(check_flags(&args(&["--name", "x", "--list"]), valued, switches).is_ok());
        // A flag's value is never itself taken for a flag.
        assert!(check_flags(&args(&["--json", "--list"]), valued, switches).is_ok());
        let err = check_flags(&args(&["--name", "x", "--stats", "7"]), valued, switches)
            .expect_err("--stats is not accepted");
        assert!(err.contains("unknown argument(s): --stats 7"), "{err}");
        assert!(
            err.contains("--name <value>, --json <value>, --list"),
            "{err}"
        );
    }
}
