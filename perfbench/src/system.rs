//! What the benchmark records about the machine and the source tree.

use std::path::Path;

/// The commit checked out under `root`, read from `.git` without running
/// git: `HEAD` directly, or the branch it names (loose ref or
/// `packed-refs`). `None` outside a git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(branch) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(branch)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == branch).then(|| hash.to_string())
    })
}

/// Peak resident set size in MiB from `/proc/self/status` text (`VmHWM`,
/// which the kernel reports in KiB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(512.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t x kB\n"), None);
    }

    #[test]
    fn own_process_reports_a_peak() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn commit_is_read_from_loose_and_packed_refs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("test-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).expect("temp dir");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("write HEAD");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .expect("write packed-refs");
        assert_eq!(git_commit(&dir).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").expect("write ref");
        assert_eq!(git_commit(&dir).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").expect("write detached HEAD");
        assert_eq!(git_commit(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(git_commit(&dir), None);
    }
}
