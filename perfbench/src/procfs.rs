//! Process cost read from `/proc`, with no help from the program.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_S)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_are_fields_fourteen_and_fifteen() {
        let stat = "42 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_kib().unwrap() > 0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
