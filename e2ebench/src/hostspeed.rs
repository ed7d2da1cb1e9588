//! Host speed correction for campaign-replay's timed loop.
//!
//! The benchmark's host is a small share of a shared machine: the same
//! `lab` invocation runs up to 1.8x slower on one vCPU than on the other,
//! and each vCPU's speed changes over minutes as other tenants load the
//! cores under it, with CPU time rising with wall time. Raw walls of one
//! workload spread by 26-47% over 30 s windows; averaging inside a run
//! cannot remove that. So the timed loop runs on one vCPU (the fastest
//! at its start), a fixed calibration kernel runs on that vCPU between
//! consecutive timed invocations, and each invocation's time is scaled by
//! `CALIBRATION_REF_S` over the mean of the kernel times either side of
//! it: the time the invocation would take on a host that runs the kernel
//! in `CALIBRATION_REF_S`. The kernel is the benchmark's own code, so a
//! change to the program moves the scaled times as much as the raw ones.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

mod sys {
    /// glibc's `cpu_set_t`: 1024 CPU bits.
    #[repr(C)]
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct CpuSet(pub [u64; 16]);

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

use sys::CpuSet;

/// Calibration kernel time of the fast vCPU of the benchmark's reference
/// host (2-vCPU Intel Xeon guest), seconds.
pub const CALIBRATION_REF_S: f64 = 0.12;

/// Words of the kernel's random-access buffer (8 MiB: beyond L2, like
/// the ledger rows a replay pass decodes).
const WALK_WORDS: usize = 1 << 20;

fn affinity() -> io::Result<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized local and the
    // size passed is its size; pid 0 names the calling thread.
    let r = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if r == 0 {
        Ok(set)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set_affinity(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` points to a live `cpu_set_t`-sized value of the size
    // passed; pid 0 names the calling thread.
    let r = unsafe { sys::sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    if r == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

fn only(cpu: usize) -> CpuSet {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    set
}

/// The calling thread pinned to one vCPU, with the calibration kernel's
/// buffer. Dropping it restores the thread's former CPU set. Children
/// spawned from the thread meanwhile inherit the pin.
pub struct HostSpeed {
    saved: CpuSet,
    pub cpu: usize,
    walk: Vec<u64>,
    /// Every kernel time since pinning, seconds; the last one brackets
    /// the next timed invocation.
    pub kernel_s: Vec<f64>,
}

impl HostSpeed {
    /// Pins the calling thread to the allowed vCPU on which the kernel
    /// runs fastest (best of three runs each).
    pub fn pin_fastest() -> io::Result<Self> {
        let saved = affinity()?;
        let mut hs =
            Self { saved, cpu: 0, walk: (0..WALK_WORDS as u64).collect(), kernel_s: Vec::new() };
        let mut best = f64::INFINITY;
        for cpu in (0..1024).filter(|&c| saved.0[c / 64] >> (c % 64) & 1 == 1) {
            set_affinity(&only(cpu))?;
            let t = (0..3).map(|_| hs.calibrate()).fold(f64::INFINITY, f64::min);
            if t < best {
                (best, hs.cpu) = (t, cpu);
            }
        }
        set_affinity(&only(hs.cpu))?;
        let t = hs.calibrate();
        hs.kernel_s.push(t);
        Ok(hs)
    }

    /// Runs the kernel and returns the factor that scales a time measured
    /// since the previous kernel run to the reference host.
    pub fn rescale(&mut self) -> f64 {
        let before = *self.kernel_s.last().expect("pinning runs the kernel once");
        let after = self.calibrate();
        self.kernel_s.push(after);
        scale(before, after)
    }

    /// Runs the calibration kernel once and returns its wall time in
    /// seconds: a random walk with swaps over an 8 MiB buffer, eight
    /// independent multiply chains plus a floating-point recurrence, and
    /// 150k ordered-map inserts of formatted strings with a sort. The
    /// work is the same on every call.
    fn calibrate(&mut self) -> f64 {
        let start = Instant::now();
        let n = self.walk.len();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for r in 0..6 {
            for i in 0..n {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(self.walk[i] ^ r);
                self.walk.swap(i, (x >> 44) as usize & (n - 1));
            }
        }
        let mut acc = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let words: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        for r in 0..2000 {
            for (i, &w) in words.iter().enumerate() {
                let k = i & 7;
                acc[k] = acc[k].wrapping_mul(w | 1).wrapping_add(r) ^ (acc[(k + 1) & 7] >> 5);
            }
        }
        let mut f = [1.0f64; 4];
        for i in 0..8_000_000usize {
            f[i & 3] = f[i & 3] * 0.999_999 + (i as f64).sqrt();
        }
        let mut map = BTreeMap::new();
        let mut y = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..150_000 {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            map.insert(y % 250_000, format!("{y:x}"));
        }
        let mut keys: Vec<f64> = map.keys().map(|&k| (k as f64).sin()).collect();
        keys.sort_by(f64::total_cmp);
        let chars: usize = map.values().map(String::len).sum();
        std::hint::black_box((x, acc, f, keys, chars));
        start.elapsed().as_secs_f64()
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        let _ = set_affinity(&self.saved);
    }
}

/// The factor that scales a time measured between two kernel runs of
/// `before` and `after` seconds to the reference host.
fn scale(before: f64, after: f64) -> f64 {
    CALIBRATION_REF_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_the_mean_kernel_time() {
        assert_eq!(scale(CALIBRATION_REF_S, CALIBRATION_REF_S), 1.0);
        assert!((scale(0.1, 0.3) - CALIBRATION_REF_S / 0.2).abs() < 1e-12);
    }

    #[test]
    fn pinning_restores_the_cpu_set_on_drop() {
        let before = affinity().unwrap();
        let mut hs = HostSpeed::pin_fastest().unwrap();
        assert!(affinity().unwrap() == only(hs.cpu));
        assert!(hs.rescale() > 0.0);
        assert_eq!(hs.kernel_s.len(), 2);
        drop(hs);
        assert!(affinity().unwrap() == before);
    }
}
