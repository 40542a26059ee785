//! Synthetic stand-ins for the paper's datasets.
//!
//! The paper evaluates Coral-Pie on 1000 frames of campus security video
//! (≈ 67 s at 15 FPS, vehicles dwelling ≈ 10 s in the field of view),
//! time-shifted to downstream cameras for 20 000 frames total, and BodyPix
//! on 1000 images from the 3DPeople dataset. The MicroEdge data plane is
//! content-oblivious — only frame cadence, count, and resolution influence
//! any measured quantity — so these descriptors carry exactly those facts,
//! plus a seeded vehicle-visit generator used by the vehicle-tracking
//! example to produce plausible re-identification events.

use serde::{Deserialize, Serialize};

use microedge_sim::rng::DetRng;
use microedge_sim::time::{SimDuration, SimTime};

/// A recorded video segment replayed at fixed FPS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VideoSegment {
    frames: u64,
    fps: f64,
}

impl VideoSegment {
    /// Creates a segment.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or `fps` is not strictly positive.
    #[must_use]
    pub fn new(frames: u64, fps: f64) -> Self {
        assert!(frames > 0, "a segment needs frames");
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        VideoSegment { frames, fps }
    }

    /// The paper's campus security video: 1000 frames at 15 FPS (≈ 67 s).
    #[must_use]
    pub fn campus_video() -> Self {
        VideoSegment::new(1000, 15.0)
    }

    /// Number of frames.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Playback rate.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Wall-clock duration of the segment.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.frames as f64 / self.fps)
    }
}

/// One vehicle's pass through a camera's field of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VehicleVisit {
    /// Synthetic vehicle identity (consistent across cameras).
    pub vehicle: u32,
    /// When the vehicle enters the field of view.
    pub enters: SimTime,
    /// When it leaves.
    pub leaves: SimTime,
}

impl VehicleVisit {
    /// Dwell time in the field of view.
    #[must_use]
    pub fn dwell(&self) -> SimDuration {
        self.leaves.saturating_since(self.enters)
    }
}

/// Seeded generator of vehicle visits matching the paper's description:
/// a vehicle takes ≈ 10 s to traverse the field of view, and several
/// vehicles pass during the 67 s segment.
///
/// # Examples
///
/// ```
/// use microedge_workloads::dataset::{campus_vehicle_visits, VideoSegment};
///
/// let visits = campus_vehicle_visits(VideoSegment::campus_video(), 42);
/// assert!(visits.len() >= 3, "several vehicles traverse the segment");
/// assert!(visits.iter().all(|v| v.dwell().as_secs_f64() > 5.0));
/// ```
#[must_use]
pub fn campus_vehicle_visits(segment: VideoSegment, seed: u64) -> Vec<VehicleVisit> {
    let mut rng = DetRng::seed_from(seed);
    let mut visits = Vec::new();
    let end = segment.duration();
    let mut cursor = SimDuration::ZERO;
    let mut vehicle = 0;
    loop {
        // Gap between vehicle arrivals: exponential, mean 8 s.
        cursor += rng.exponential_duration(SimDuration::from_secs(8));
        if cursor >= end {
            break;
        }
        let dwell = rng.normal_duration(SimDuration::from_secs(10), SimDuration::from_secs(2));
        let dwell = dwell.max(SimDuration::from_secs(6));
        let enters = SimTime::ZERO + cursor;
        visits.push(VehicleVisit {
            vehicle,
            enters,
            leaves: enters + dwell,
        });
        vehicle += 1;
    }
    visits
}

/// Time-shifts visits for a downstream camera — the paper's ground-truth
/// construction replays the same frames shifted so a vehicle seen upstream
/// re-appears downstream after `shift`.
#[must_use]
pub fn time_shifted(visits: &[VehicleVisit], shift: SimDuration) -> Vec<VehicleVisit> {
    visits
        .iter()
        .map(|v| VehicleVisit {
            vehicle: v.vehicle,
            enters: v.enters + shift,
            leaves: v.leaves + shift,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_video_matches_paper() {
        let seg = VideoSegment::campus_video();
        assert_eq!(seg.frames(), 1000);
        assert_eq!(seg.fps(), 15.0);
        let secs = seg.duration().as_secs_f64();
        assert!((secs - 66.67).abs() < 0.01, "≈ 67 seconds, got {secs}");
    }

    #[test]
    fn visits_are_deterministic_per_seed() {
        let seg = VideoSegment::campus_video();
        assert_eq!(campus_vehicle_visits(seg, 7), campus_vehicle_visits(seg, 7));
        assert_ne!(campus_vehicle_visits(seg, 7), campus_vehicle_visits(seg, 8));
    }

    #[test]
    fn visits_fit_segment_and_dwell_about_10s() {
        let seg = VideoSegment::campus_video();
        let visits = campus_vehicle_visits(seg, 1);
        assert!(!visits.is_empty());
        for v in &visits {
            assert!(v.enters < SimTime::ZERO + seg.duration());
            let dwell = v.dwell().as_secs_f64();
            assert!((6.0..=20.0).contains(&dwell), "dwell {dwell}");
        }
        // Vehicle ids are unique and ordered.
        for (i, v) in visits.iter().enumerate() {
            assert_eq!(v.vehicle as usize, i);
        }
    }

    #[test]
    fn time_shift_preserves_identity_and_dwell() {
        let seg = VideoSegment::campus_video();
        let visits = campus_vehicle_visits(seg, 3);
        let shifted = time_shifted(&visits, SimDuration::from_secs(12));
        assert_eq!(visits.len(), shifted.len());
        for (a, b) in visits.iter().zip(&shifted) {
            assert_eq!(a.vehicle, b.vehicle);
            assert_eq!(a.dwell(), b.dwell());
            assert_eq!(b.enters.saturating_since(a.enters).as_secs_f64(), 12.0);
        }
    }

    #[test]
    #[should_panic(expected = "needs frames")]
    fn empty_segment_rejected() {
        let _ = VideoSegment::new(0, 15.0);
    }
}
