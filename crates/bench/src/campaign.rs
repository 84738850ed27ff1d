//! The fault-campaign fixture shared by `exp_chaos_soak` and `exp_dst`:
//! one spec shape and one replay loop.

use arfs_core::chaos::{ChaosDefense, FaultPlan};
use arfs_core::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::system::System;
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;

/// Three service levels (`full`, `mid`, `safe`) of one app on one
/// processor, chosen by a `power` factor. The choice function can point
/// at "mid" while the safe-state fallback lands in "safe", which SP2
/// distinguishes — the shape a fallback needs to be observable — and
/// it is cheap enough for hundreds of seeded replays.
pub fn three_level_spec(min_dwell_frames: u64) -> ReconfigSpec {
    let mut b = ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("power", ["good", "degraded", "bad"])
        .app(
            AppDecl::new("a")
                .spec(FunctionalSpec::new("full"))
                .spec(FunctionalSpec::new("reduced"))
                .spec(FunctionalSpec::new("minimal")),
        )
        .min_dwell_frames(min_dwell_frames);
    let configs = [("full", "full"), ("mid", "reduced"), ("safe", "minimal")];
    for (i, (name, spec)) in configs.iter().enumerate() {
        let mut config = Configuration::new(*name)
            .assign("a", *spec)
            .place("a", ProcessorId::new(0));
        if i == configs.len() - 1 {
            config = config.safe();
        }
        b = b.config(config);
    }
    for (from, _) in &configs {
        for (to, _) in &configs {
            if from != to {
                b = b.transition(*from, *to, Ticks::new(600));
            }
        }
    }
    b.choose_when("power", "good", "full")
        .choose_when("power", "degraded", "mid")
        .choose_when("power", "bad", "safe")
        .initial_config("full")
        .initial_env([("power", "good")])
        .build()
        .expect("three-level spec is structurally valid")
}

/// Replays `(frame, factor, value)` events under a fault plan and
/// defense on a fresh, fully observed system to `horizon` frames.
pub fn replay(
    spec: &ReconfigSpec,
    plan: &FaultPlan,
    defense: ChaosDefense,
    schedule: &[(u64, String, String)],
    horizon: u64,
) -> System {
    let mut system = System::builder(spec.clone())
        .fault_plan(plan.clone())
        .chaos_defense(defense)
        .build()
        .expect("validated spec builds");
    let mut events = schedule.iter().peekable();
    for frame in 0..horizon {
        while let Some((f, factor, value)) = events.peek() {
            if *f == frame {
                system.set_env(factor, value).expect("enumerated values");
                events.next();
            } else {
                break;
            }
        }
        system.run_frame();
    }
    system
}
