//! Moving the measuring thread from CPU to CPU between passes.
//!
//! On the shared measuring machine each CPU's speed for memory-bound work
//! (building a chaos `World`, a fresh `Superpod`) swings by up to 1.4×
//! from one stretch of seconds to the next, and the CPUs swing
//! independently of each other. An end-to-end run pins each pass to the
//! next CPU the process may use, in turn, so that every segment and op is
//! timed on every CPU and its fastest time (see [`crate::metrics::Fastest`])
//! comes from whichever CPU was fast at the time. One thread runs at a
//! time, so rates stay per core.

/// Pins the calling thread to each allowed CPU in turn; restores the
/// allowed set when dropped.
#[derive(Debug)]
pub struct Rotation {
    allowed: Vec<usize>,
    turn: usize,
}

impl Rotation {
    /// The rotation over the CPUs the calling thread may run on (none
    /// where they cannot be read, which makes [`Rotation::next`] a no-op).
    pub fn new() -> Rotation {
        Rotation {
            allowed: sys::allowed(),
            turn: 0,
        }
    }

    /// CPUs in the rotation (1 where they cannot be read).
    pub fn count(&self) -> usize {
        self.allowed.len().max(1)
    }

    /// Pins the calling thread to the next CPU in turn.
    pub fn next(&mut self) {
        if self.allowed.len() > 1 {
            sys::pin(&[self.allowed[self.turn % self.allowed.len()]]);
            self.turn += 1;
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.turn > 0 {
            sys::pin(&self.allowed);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a `cpu_set_t` (1,024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; false if the kernel refused.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_each_allowed_cpu_and_restores_the_set() {
        let before = sys::allowed();
        let mut r = Rotation::new();
        for &cpu in &before {
            r.next();
            if before.len() > 1 {
                assert_eq!(sys::allowed(), [cpu]);
            }
        }
        drop(r);
        assert_eq!(sys::allowed(), before);
    }
}
