//! Sensor-node protocol state for the `robonet` workspace.
//!
//! Implements the sensor side of *Replacing Failed Sensor Nodes by
//! Mobile Robots* (Mei et al., ICDCS 2006):
//!
//! - the exponential failure process of paper §2(a)
//!   ([`failure::FailureProcess`]),
//! - per-sensor protocol state ([`SensorState`]): the beacon-maintained
//!   neighbour table, the guardian/guardee relationship (§3.1), the
//!   failure-detection timers ("three beaconing periods in our study"),
//!   the sensor's current manager (`myrobot`) and flood deduplication
//!   state,
//! - coverage accounting ([`coverage`]) to quantify the holes that
//!   failed sensors leave and replacement repairs.
//!
//! Everything here is per-node decision logic; the event-driven
//! composition lives in `robonet-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod failure;
mod sensor;

pub use sensor::{GuardianEvent, RobotTable, SensorState};
