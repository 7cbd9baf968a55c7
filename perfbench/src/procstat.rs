//! Std-only readers for the two process-level numbers the benchmark
//! reports: peak resident set size (`VmHWM`) and CPU time
//! (utime + stime).
//!
//! Both come from `/proc/self`, so off Linux they are unavailable and
//! the readers return `None` — never a made-up zero. The parsers take
//! the file text as an argument so they can be tested against fixtures.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. The kernel exports them in `USER_HZ`, which is
/// 100 on every Linux ABI (it is part of the ABI, not the configured
/// `CONFIG_HZ`), so no `sysconf` call — and no libc — is needed.
const USER_HZ: f64 = 100.0;

/// Parse `VmHWM` (peak resident set size) out of the text of
/// `/proc/<pid>/status`, in MiB. `None` when the line is missing or
/// malformed.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// Parse utime + stime out of the text of `/proc/<pid>/stat`, in
/// seconds. The second field (`comm`) may contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are
    // fields 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// CPU seconds (user + system, all threads) this process has used;
/// `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  204800 kB\nVmSize:\t  204800 kB\nVmHWM:\t   94208 kB\n\
        VmRSS:\t   51200 kB\nThreads:\t3\n";

    const STAT: &str = "4242 (bench (mark) x) R 1 4242 4242 0 -1 4194304 9001 0 0 0 \
        1234 66 0 0 20 0 3 0 100 209715200 12800 18446744073709551615 1 1 0 0 0 0 0 0 0 \
        0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    #[test]
    fn vm_hwm_is_read_in_mib() {
        assert_eq!(parse_vm_hwm_mib(STATUS), Some(92.0));
    }

    #[test]
    fn vm_hwm_missing_or_malformed_is_unavailable() {
        assert_eq!(parse_vm_hwm_mib("Name:\tx\nVmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12\n"), None);
        assert_eq!(parse_vm_hwm_mib(""), None);
    }

    #[test]
    fn cpu_seconds_skips_a_comm_with_spaces_and_parens() {
        // utime 1234 + stime 66 ticks at 100 Hz.
        assert_eq!(parse_cpu_seconds(STAT), Some(13.0));
    }

    #[test]
    fn cpu_seconds_truncated_is_unavailable() {
        assert_eq!(parse_cpu_seconds("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parens here"), None);
    }

    #[test]
    fn live_readers_agree_with_the_platform() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
            assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        } else {
            assert_eq!(peak_rss_mib(), None);
            assert_eq!(cpu_seconds(), None);
        }
    }
}
