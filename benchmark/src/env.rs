//! The run's surroundings: the scratch directory every archive lands
//! in, the environment fingerprint recorded beside the numbers, and
//! the process's own memory high-water mark.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A scratch directory inside the checkout, removed again on drop.
///
/// The store writes eight small files per bundle. On the sandbox's
/// ext4 the cost of creating those inodes swings twentyfold with the
/// filesystem's recent history (the same 1000-bundle `write_round`
/// took 0.2 s and 3 s an hour apart), so disk-backed numbers would
/// measure the sandbox, not the program. `/dev/shm` would be the plain
/// answer, but the acceptance driver's contract has a run read and
/// write only inside its checkout. When the process is allowed to, it
/// therefore enters a mount namespace of its own and mounts a tmpfs
/// over the scratch directory: the path stays inside the checkout,
/// nothing outside it is touched, no other process ever sees the
/// mount, and it disappears with the process even after a crash.
/// Where that is refused the plain directory is used, and the
/// fingerprint's `scratch_fs` says which of the two the numbers are
/// from.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    mounted: bool,
}

impl Scratch {
    /// Creates `parent/run-<pid>`; with `private_tmpfs`, tries to back
    /// it with memory. Must then be called before the process spawns
    /// any thread: a mount namespace is per thread, and only threads
    /// started afterwards inherit it.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create(parent: &Path, private_tmpfs: bool) -> std::io::Result<Scratch> {
        let root = parent.join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        // An absolute path survives a later change of directory and is
        // what /proc/self/mounts reports.
        let root = root.canonicalize()?;
        let mounted = private_tmpfs && sys::mount_private_tmpfs(&root);
        Ok(Scratch { root, mounted })
    }

    /// The scratch directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The filesystem type behind the scratch directory, from the
    /// longest matching mount point in `/proc/self/mounts`.
    pub fn fs_type(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|line| {
                let mut fields = line.split(' ');
                let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
                self.root.starts_with(point).then(|| (point.len(), fs.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Errors are ignored: drop must not panic, and a leftover
        // directory is named in .gitignore.
        if self.mounted {
            sys::unmount(&self.root);
        } else if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let _ = std::fs::remove_dir(&self.root);
        if let Some(parent) = self.root.parent() {
            // Succeeds only when no other run is using the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_char, c_int, c_ulong, c_void, CString};
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    const CLONE_NEWNS: c_int = 0x0002_0000;
    const MS_REC: c_ulong = 1 << 14;
    const MS_PRIVATE: c_ulong = 1 << 18;
    const MNT_DETACH: c_int = 2;

    extern "C" {
        fn unshare(flags: c_int) -> c_int;
        fn mount(
            source: *const c_char,
            target: *const c_char,
            fstype: *const c_char,
            flags: c_ulong,
            data: *const c_void,
        ) -> c_int;
        fn umount2(target: *const c_char, flags: c_int) -> c_int;
    }

    fn c_path(path: &Path) -> Option<CString> {
        CString::new(path.as_os_str().as_bytes()).ok()
    }

    /// Enters a private mount namespace and mounts a tmpfs on `target`.
    /// Returns whether the mount is in place.
    pub fn mount_private_tmpfs(target: &Path) -> bool {
        let Some(target) = c_path(target) else { return false };
        // SAFETY: `unshare` takes no pointers. Every pointer passed to
        // `mount` is either null (allowed for the arguments a remount
        // or a tmpfs ignores) or a NUL-terminated string that outlives
        // the call. Marking `/` recursively private first keeps the new
        // mount from propagating back into the namespace we came from.
        unsafe {
            if unshare(CLONE_NEWNS) != 0 {
                return false;
            }
            let private = mount(
                std::ptr::null(),
                c"/".as_ptr(),
                std::ptr::null(),
                MS_REC | MS_PRIVATE,
                std::ptr::null(),
            );
            if private != 0 {
                return false;
            }
            mount(c"tmpfs".as_ptr(), target.as_ptr(), c"tmpfs".as_ptr(), 0, std::ptr::null()) == 0
        }
    }

    /// Detaches the mount on `target`; with it go all files on it.
    pub fn unmount(target: &Path) {
        if let Some(target) = c_path(target) {
            // SAFETY: `target` is a NUL-terminated string that outlives
            // the call.
            unsafe {
                umount2(target.as_ptr(), MNT_DETACH);
            }
        }
    }

    #[cfg(target_env = "gnu")]
    pub fn pin_allocator() -> bool {
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_TOP_PAD: c_int = -2;
        const M_MMAP_THRESHOLD: c_int = -3;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` takes two integers and only adjusts the
        // allocator's tunables; glibc documents it as callable at any
        // time. It returns 1 on success.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
                && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TOP_PAD, 256 << 20) == 1
        }
    }

    #[cfg(not(target_env = "gnu"))]
    pub fn pin_allocator() -> bool {
        false
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::path::Path;

    pub fn mount_private_tmpfs(_target: &Path) -> bool {
        false
    }

    pub fn unmount(_target: &Path) {}

    pub fn pin_allocator() -> bool {
        false
    }
}

/// Tells glibc's allocator to keep freed memory instead of returning it
/// to the kernel: no heap trimming, and blocks up to 32 MiB come from
/// the heap rather than from a fresh mapping each time.
///
/// On the sandbox's VM the price of a first touch of a page swings
/// twofold from run to run (the hypervisor takes freed guest memory
/// back), and a batch re-ingest that frees and re-faults 600 MB per job
/// inherits that swing: ten runs spread 17 % around their median with
/// the default thresholds and under 3 % with them pinned, on identical
/// inputs. Pinning measures the program rather than the hypervisor, at
/// the price that memory a job frees stays counted in `peak_rss_mb`.
/// Returns whether the allocator took the settings (`false` off glibc).
pub fn pin_allocator() -> bool {
    sys::pin_allocator()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers were measured on: everything a reader needs to
/// decide whether two result files are comparable.
pub fn fingerprint(scratch: &Scratch, allocator_pinned: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json!({
        "nproc": nproc,
        "scratch_fs": scratch.fs_type(),
        "allocator_pinned": allocator_pinned,
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        "commit": std::env::var("BENCH_COMMIT")
            .ok()
            .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
            .unwrap_or_else(|| "unknown".into()),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

/// Calls `visit(path, length)` for every regular file under `dir`,
/// directories in name order, so "the first file" is the same on every
/// run. Unreadable entries are skipped: callers count what is there.
pub fn for_each_file(dir: &Path, visit: &mut dyn FnMut(&Path, u64)) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            for_each_file(&entry.path(), visit);
        } else {
            visit(&entry.path(), meta.len());
        }
    }
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse().ok())
        .map_or(0.0, |kb: f64| kb / 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_created_and_removed() {
        let parent = crate::test_dir("env-scratch");
        let root = {
            let scratch = Scratch::create(&parent, false).unwrap();
            std::fs::create_dir_all(scratch.path().join("a/b")).unwrap();
            std::fs::write(scratch.path().join("a/b/file"), "x").unwrap();
            assert_ne!(scratch.fs_type(), "unknown");
            scratch.path().to_path_buf()
        };
        assert!(!root.exists(), "scratch directory must not outlive the run");
        assert!(!parent.exists(), "an empty scratch parent is removed too");
    }

    #[test]
    fn peak_rss_is_positive_and_fingerprint_names_its_fields() {
        assert!(peak_rss_mb() > 1.0);
        let parent = crate::test_dir("env-fingerprint");
        let scratch = Scratch::create(&parent, false).unwrap();
        let fp = fingerprint(&scratch, false);
        for field in ["nproc", "scratch_fs", "allocator_pinned", "rustc", "commit"] {
            assert!(fp.get(field).is_some(), "fingerprint lacks {field}");
        }
    }
}
