//! A single-server disk service model.
//!
//! Each simulated disk serves one request at a time: a request issued while
//! the disk is busy queues behind the in-flight work. Service time is
//! `access_latency + bytes / bandwidth`, with sequential transfers paying a
//! reduced access cost. This simple M/D/1-flavoured model is enough to
//! reproduce the phenomena the paper measures: log-flush-bound commit
//! latency, checkpoint write bursts depressing foreground throughput, and
//! archive copies competing for spindles.

use crate::time::{SimDuration, SimTime};

/// Static performance characteristics of a simulated disk.
///
/// The defaults model the paper's testbed class (year-2000 7200 rpm SCSI
/// disks on a Pentium III server): 8 ms average access, 20 MB/s transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Average positioning (seek + rotational) latency for a random access.
    pub access: SimDuration,
    /// Positioning latency when the access is sequential with the previous
    /// request (track-to-track).
    pub sequential_access: SimDuration,
    /// Sustained transfer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl DiskProfile {
    /// A year-2000 server-class spindle: 8 ms access, 20 MB/s transfer.
    pub fn server_2000() -> Self {
        DiskProfile {
            access: SimDuration::from_micros(8_000),
            sequential_access: SimDuration::from_micros(800),
            bandwidth_bytes_per_sec: 20 * 1024 * 1024,
        }
    }

    /// Service time for a single transfer of `bytes`.
    pub fn service_time(&self, bytes: u64, sequential: bool) -> SimDuration {
        let seek = if sequential { self.sequential_access } else { self.access };
        let transfer_micros = bytes.saturating_mul(1_000_000) / self.bandwidth_bytes_per_sec.max(1);
        seek + SimDuration::from_micros(transfer_micros)
    }
}

impl Default for DiskProfile {
    fn default() -> Self {
        Self::server_2000()
    }
}

/// Cumulative per-disk counters, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of read requests served.
    pub reads: u64,
    /// Number of write requests served.
    pub writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total microseconds the disk spent busy.
    pub busy_micros: u64,
}

/// Whether a request is a read or a write (for accounting only; the service
/// model treats them identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Data flows from the disk.
    Read,
    /// Data flows to the disk.
    Write,
}

/// A simulated disk.
///
/// ```
/// use recobench_sim::{Disk, DiskProfile, SimTime};
/// use recobench_sim::disk::IoKind;
///
/// let mut d = Disk::new(DiskProfile::server_2000());
/// let t0 = SimTime::ZERO;
/// let done1 = d.submit(t0, IoKind::Write, 8192, false);
/// let done2 = d.submit(t0, IoKind::Write, 8192, false);
/// assert!(done2 > done1, "second request queues behind the first");
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    profile: DiskProfile,
    busy_until: SimTime,
    stats: DiskStats,
}

impl Disk {
    /// Creates an idle disk with the given profile.
    pub fn new(profile: DiskProfile) -> Self {
        Disk { profile, busy_until: SimTime::ZERO, stats: DiskStats::default() }
    }

    /// Submits a transfer of `bytes` at instant `now` and returns its
    /// completion time. The request queues behind any in-flight work.
    pub fn submit(&mut self, now: SimTime, kind: IoKind, bytes: u64, sequential: bool) -> SimTime {
        let start = now.max(self.busy_until);
        let service = self.profile.service_time(bytes, sequential);
        let done = start + service;
        self.busy_until = done;
        self.stats.busy_micros += service.as_micros();
        match kind {
            IoKind::Read => {
                self.stats.reads += 1;
                self.stats.bytes_read += bytes;
            }
            IoKind::Write => {
                self.stats.writes += 1;
                self.stats.bytes_written += bytes;
            }
        }
        done
    }

    /// The instant at which all submitted work completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Cumulative counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The disk's static profile.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }

    /// Forgets all queued work and counters (used when a machine is
    /// power-cycled in a simulation).
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.stats = DiskStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_includes_seek_and_transfer() {
        let p = DiskProfile::server_2000();
        let t = p.service_time(20 * 1024 * 1024, false);
        // 8 ms seek + 1 s transfer.
        assert_eq!(t.as_micros(), 8_000 + 1_000_000);
    }

    #[test]
    fn sequential_access_is_cheaper() {
        let p = DiskProfile::server_2000();
        assert!(p.service_time(8192, true) < p.service_time(8192, false));
    }

    #[test]
    fn requests_queue() {
        let mut d = Disk::new(DiskProfile::server_2000());
        let a = d.submit(SimTime::ZERO, IoKind::Read, 0, false);
        let b = d.submit(SimTime::ZERO, IoKind::Read, 0, false);
        assert_eq!(a.as_micros(), 8_000);
        assert_eq!(b.as_micros(), 16_000);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut d = Disk::new(DiskProfile::server_2000());
        let a = d.submit(SimTime::ZERO, IoKind::Write, 0, false);
        // Next request arrives long after the first completes.
        let late = SimTime::from_secs(10);
        let b = d.submit(late, IoKind::Write, 0, false);
        assert_eq!(a.as_micros(), 8_000);
        assert_eq!(b, late + SimDuration::from_micros(8_000));
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Disk::new(DiskProfile::server_2000());
        d.submit(SimTime::ZERO, IoKind::Read, 100, false);
        d.submit(SimTime::ZERO, IoKind::Write, 200, true);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.bytes_written, 200);
        assert!(s.busy_micros > 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Disk::new(DiskProfile::server_2000());
        d.submit(SimTime::ZERO, IoKind::Write, 4096, false);
        d.reset();
        assert_eq!(d.busy_until(), SimTime::ZERO);
        assert_eq!(d.stats(), DiskStats::default());
    }
}
