//! DVFS backends for the native executor.
//!
//! The runtime only needs one operation — set a core's frequency — but where
//! that lands differs by environment: a real Linux host with the `userspace`
//! cpufreq governor accepts writes to `scaling_setspeed`; CI containers and
//! non-root shells do not. [`DvfsBackend`] abstracts the operation;
//! [`SysfsDvfs::detect`] picks the real backend when the host allows it.

use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};

/// An object that can apply per-core frequency changes.
///
/// Implementations must be cheap to share across worker threads; all methods
/// take `&self`.
pub trait DvfsBackend: Send + Sync {
    /// Requests that core `cpu` run at `khz` kilohertz.
    fn set_speed(&self, cpu: usize, khz: u32) -> io::Result<()>;

    /// Reads back the current requested speed of core `cpu`, if the backend
    /// tracks it.
    fn get_speed(&self, cpu: usize) -> io::Result<u32>;

    /// Number of cores the backend can control.
    fn num_cpus(&self) -> usize;
}

/// The real Linux cpufreq backend: writes
/// `<root>/cpu<i>/cpufreq/scaling_setspeed`, the exact mechanism the paper's
/// runtime uses (§IV: "Nanos++ requests frequency changes to the cpufreq
/// framework by writing to a specific set of files, one per core").
#[derive(Debug, Clone)]
pub struct SysfsDvfs {
    root: PathBuf,
    num_cpus: usize,
}

impl SysfsDvfs {
    /// The standard sysfs mount point for CPU devices.
    pub const DEFAULT_ROOT: &'static str = "/sys/devices/system/cpu";

    /// Creates a backend over an explicit sysfs-like directory tree (tests
    /// point this at a tempdir).
    pub fn with_root(root: impl Into<PathBuf>, num_cpus: usize) -> Self {
        SysfsDvfs {
            root: root.into(),
            num_cpus,
        }
    }

    /// Probes the host: returns a backend iff every requested core exposes a
    /// writable `scaling_setspeed` (i.e. the `userspace` governor is active
    /// and we have permission). Returns `None` otherwise, in which case
    /// callers should fall back to [`MockDvfs`] or [`NullDvfs`].
    pub fn detect(num_cpus: usize) -> Option<Self> {
        let backend = SysfsDvfs::with_root(Self::DEFAULT_ROOT, num_cpus);
        for cpu in 0..num_cpus {
            let p = backend.setspeed_path(cpu);
            let meta = std::fs::metadata(&p).ok()?;
            if meta.permissions().readonly() {
                return None;
            }
        }
        Some(backend)
    }

    fn setspeed_path(&self, cpu: usize) -> PathBuf {
        self.root
            .join(format!("cpu{cpu}"))
            .join("cpufreq")
            .join("scaling_setspeed")
    }

    fn curfreq_path(&self, cpu: usize) -> PathBuf {
        self.root
            .join(format!("cpu{cpu}"))
            .join("cpufreq")
            .join("scaling_cur_freq")
    }

    /// Creates the directory layout under a custom root — used by tests and
    /// by the examples when demonstrating the sysfs protocol without a
    /// privileged host.
    pub fn create_fake_tree(root: &Path, num_cpus: usize, initial_khz: u32) -> io::Result<()> {
        for cpu in 0..num_cpus {
            let dir = root.join(format!("cpu{cpu}")).join("cpufreq");
            std::fs::create_dir_all(&dir)?;
            std::fs::write(dir.join("scaling_setspeed"), format!("{initial_khz}\n"))?;
            std::fs::write(dir.join("scaling_cur_freq"), format!("{initial_khz}\n"))?;
            std::fs::write(dir.join("scaling_governor"), "userspace\n")?;
        }
        Ok(())
    }
}

impl DvfsBackend for SysfsDvfs {
    fn set_speed(&self, cpu: usize, khz: u32) -> io::Result<()> {
        if cpu >= self.num_cpus {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cpu {cpu} out of range (have {})", self.num_cpus),
            ));
        }
        std::fs::write(self.setspeed_path(cpu), format!("{khz}\n"))?;
        // Mirror into scaling_cur_freq so get_speed round-trips on fake
        // trees; on a real host the kernel owns this file and the write is
        // ignored/overwritten, which is fine.
        let _ = std::fs::write(self.curfreq_path(cpu), format!("{khz}\n"));
        Ok(())
    }

    fn get_speed(&self, cpu: usize) -> io::Result<u32> {
        let s = std::fs::read_to_string(self.curfreq_path(cpu))?;
        s.trim()
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad freq: {e}")))
    }

    fn num_cpus(&self) -> usize {
        self.num_cpus
    }
}

/// A recording backend for tests and unprivileged hosts: remembers every
/// `set_speed` call and can inject failures.
#[derive(Debug)]
pub struct MockDvfs {
    state: Mutex<MockState>,
    num_cpus: usize,
}

#[derive(Debug)]
struct MockState {
    speeds: Vec<u32>,
    calls: Vec<(usize, u32)>,
    fail_after: Option<usize>,
    fail_next: usize,
}

impl MockDvfs {
    /// Creates a mock with all cores at `initial_khz`.
    pub fn new(num_cpus: usize, initial_khz: u32) -> Self {
        MockDvfs {
            state: Mutex::new(MockState {
                speeds: vec![initial_khz; num_cpus],
                calls: Vec::new(),
                fail_after: None,
                fail_next: 0,
            }),
            num_cpus,
        }
    }

    /// Makes every `set_speed` call after the first `n` fail with
    /// `PermissionDenied` — failure-injection for the fallback tests.
    pub fn fail_after(&self, n: usize) {
        self.state.lock().fail_after = Some(n);
    }

    /// Makes the next `k` `set_speed` calls fail transiently, then
    /// succeed again — flaky-write injection for retry tests.
    pub fn fail_next(&self, k: usize) {
        self.state.lock().fail_next = k;
    }

    /// All recorded `(cpu, khz)` calls, in order.
    pub fn calls(&self) -> Vec<(usize, u32)> {
        self.state.lock().calls.clone()
    }

    /// Number of recorded calls.
    pub fn call_count(&self) -> usize {
        self.state.lock().calls.len()
    }
}

impl DvfsBackend for MockDvfs {
    fn set_speed(&self, cpu: usize, khz: u32) -> io::Result<()> {
        let mut st = self.state.lock();
        if cpu >= self.num_cpus {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cpu out of range",
            ));
        }
        if st.fail_next > 0 {
            st.fail_next -= 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient cpufreq failure",
            ));
        }
        if let Some(limit) = st.fail_after {
            if st.calls.len() >= limit {
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    "injected cpufreq failure",
                ));
            }
        }
        st.speeds[cpu] = khz;
        st.calls.push((cpu, khz));
        Ok(())
    }

    fn get_speed(&self, cpu: usize) -> io::Result<u32> {
        self.state
            .lock()
            .speeds
            .get(cpu)
            .copied()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "cpu out of range"))
    }

    fn num_cpus(&self) -> usize {
        self.num_cpus
    }
}

/// A backend that accepts and discards everything — for pure-scheduling runs
/// where frequency control is unavailable and irrelevant.
#[derive(Debug, Clone, Copy)]
pub struct NullDvfs {
    num_cpus: usize,
}

impl NullDvfs {
    /// Creates the null backend.
    pub fn new(num_cpus: usize) -> Self {
        NullDvfs { num_cpus }
    }
}

impl DvfsBackend for NullDvfs {
    fn set_speed(&self, _cpu: usize, _khz: u32) -> io::Result<()> {
        Ok(())
    }

    fn get_speed(&self, _cpu: usize) -> io::Result<u32> {
        Ok(0)
    }

    fn num_cpus(&self) -> usize {
        self.num_cpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_records_calls_in_order() {
        let m = MockDvfs::new(4, 1_000_000);
        m.set_speed(0, 2_000_000).unwrap();
        m.set_speed(3, 1_000_000).unwrap();
        assert_eq!(m.calls(), vec![(0, 2_000_000), (3, 1_000_000)]);
        assert_eq!(m.get_speed(0).unwrap(), 2_000_000);
        assert_eq!(m.get_speed(1).unwrap(), 1_000_000);
    }

    #[test]
    fn mock_injects_failures() {
        let m = MockDvfs::new(2, 1_000_000);
        m.fail_after(1);
        m.set_speed(0, 2_000_000).unwrap();
        let err = m.set_speed(1, 2_000_000).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(m.call_count(), 1);
    }

    #[test]
    fn mock_rejects_out_of_range() {
        let m = MockDvfs::new(2, 1_000_000);
        assert!(m.set_speed(5, 1).is_err());
        assert!(m.get_speed(5).is_err());
    }

    #[test]
    fn sysfs_round_trips_on_fake_tree() {
        let dir = std::env::temp_dir().join(format!("cata-cpufreq-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SysfsDvfs::create_fake_tree(&dir, 2, 1_000_000).unwrap();
        let b = SysfsDvfs::with_root(&dir, 2);
        assert_eq!(b.get_speed(0).unwrap(), 1_000_000);
        b.set_speed(0, 2_000_000).unwrap();
        assert_eq!(b.get_speed(0).unwrap(), 2_000_000);
        assert!(b.set_speed(7, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn null_backend_accepts_everything() {
        let n = NullDvfs::new(8);
        n.set_speed(0, 123).unwrap();
        assert_eq!(n.num_cpus(), 8);
    }
}
