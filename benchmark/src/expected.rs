//! Simulated outcomes recorded from the unmodified program. A run on a
//! recorded seed whose outcome differs fails its output checks.

use crate::fleet::FleetOutcome;

/// Schedules in the bounded space of `extended_uav_spec()` at horizon
/// 40 with up to 3 environment changes.
pub const CHECK_EXTENDED_SCHEDULES: u64 = 644_599;

/// The recorded outcome of a fleet workload on `seed`, if one exists.
///
/// A quiet fleet has no stimuli, so on every seed nothing reconfigures
/// and nothing is journaled. fleet-stimulated is recorded for seeds
/// 0 to 10: (reconfigurations, restricted frames, reconfiguration-latency
/// histogram, journal events, journal digest).
pub fn fleet(stimulated: bool, seed: u64) -> Option<FleetOutcome> {
    if !stimulated {
        return Some(FleetOutcome {
            reconfigs: 0,
            restricted_frames: 0,
            latency: "n=0 sum=0 min=0 max=0 []".to_owned(),
            journal_events: 0,
            journal_digest: crate::stats::fnv1a(&[]),
        });
    }
    let (reconfigs, restricted_frames, latency, journal_events, journal_digest) = match seed {
        0 => (
            48127,
            144381,
            "n=48127 sum=192508 min=4 max=4 [4-7:48127]",
            36655,
            0x5e6173bda1df35b1,
        ),
        1 => (
            48017,
            144051,
            "n=48017 sum=192068 min=4 max=4 [4-7:48017]",
            37201,
            0xbc42111d77e69271,
        ),
        2 => (
            47963,
            143889,
            "n=47963 sum=191852 min=4 max=4 [4-7:47963]",
            37055,
            0xc0b12aded1f4a9f1,
        ),
        3 => (
            48035,
            144105,
            "n=48035 sum=192140 min=4 max=4 [4-7:48035]",
            37565,
            0x3c8e812ac533fc10,
        ),
        4 => (
            48002,
            144006,
            "n=48002 sum=192008 min=4 max=4 [4-7:48002]",
            37929,
            0xbeecfbbb47316973,
        ),
        5 => (
            48191,
            144573,
            "n=48191 sum=192764 min=4 max=4 [4-7:48191]",
            38033,
            0xfa4d9994cb499f29,
        ),
        6 => (
            48058,
            144174,
            "n=48058 sum=192232 min=4 max=4 [4-7:48058]",
            36521,
            0xb172570aca0dde92,
        ),
        7 => (
            47770,
            143310,
            "n=47770 sum=191080 min=4 max=4 [4-7:47770]",
            36785,
            0x382c08813d96bcfd,
        ),
        8 => (
            47893,
            143679,
            "n=47893 sum=191572 min=4 max=4 [4-7:47893]",
            37091,
            0x95cf5bab6b34e9ae,
        ),
        9 => (
            47849,
            143547,
            "n=47849 sum=191396 min=4 max=4 [4-7:47849]",
            37443,
            0xd24a8d6baf234574,
        ),
        10 => (
            47746,
            143238,
            "n=47746 sum=190984 min=4 max=4 [4-7:47746]",
            37051,
            0xb7269f7dc68ef332,
        ),
        _ => return None,
    };
    Some(FleetOutcome {
        reconfigs,
        restricted_frames,
        latency: latency.to_owned(),
        journal_events,
        journal_digest,
    })
}
