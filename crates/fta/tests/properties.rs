//! Property-based tests of fault-tolerant actions: the S&S recovery
//! argument over arbitrary fault plans.

use arfs_failstop::{FaultPlan, ProcessorId, ProcessorPool, Program};
use arfs_fta::{Fta, FtaExecutor, FtaOutcome, RecoveryProtocol};
use proptest::prelude::*;

/// An idempotent action: recompute from committed state, write once.
fn idempotent_action() -> Program {
    let mut p = Program::new("accumulate");
    p.push("read", |ctx| {
        let n = ctx.stable.get_u64("total").unwrap_or(0);
        ctx.volatile.set_u64("next", n + 5);
        Ok(())
    });
    p.push("write", |ctx| {
        let v = ctx.volatile.get_u64("next").ok_or("volatile lost")?;
        ctx.stable.stage_u64("total", v);
        Ok(())
    });
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For ANY fault plan over the processors, an idempotent FTA with
    /// enough spares either completes with exactly the reference result,
    /// or reports spare exhaustion — never a wrong result.
    #[test]
    fn fta_is_all_or_nothing(
        plans in proptest::collection::vec(
            proptest::collection::btree_set(1u64..6, 0..3),
            1..5
        ),
    ) {
        let n = plans.len() as u32;
        let mut pool = ProcessorPool::with_processors(n);
        for (i, plan) in plans.iter().enumerate() {
            pool.processor_mut(ProcessorId::new(i as u32))
                .unwrap()
                .set_fault_plan(FaultPlan::at_instructions(plan.iter().copied()));
        }
        pool.assign("job", ProcessorId::new(0)).unwrap();
        let fta = Fta::new("job", idempotent_action())
            .with_postcondition(|s| s.get_u64("total") == Some(5));
        let mut exec = FtaExecutor::new();
        match exec.execute(&mut pool, "job", &fta) {
            FtaOutcome::Completed { recoveries } => {
                let host = pool.assignment("job").unwrap();
                let snap = pool.poll_stable(host).unwrap();
                prop_assert_eq!(snap.get_u64("total"), Some(5));
                // Each recovery consumed exactly one failed processor.
                prop_assert_eq!(recoveries as usize, pool.failed_ids().count());
            }
            FtaOutcome::Unrecoverable { reason } => {
                prop_assert!(reason.contains("no spare"), "{}", reason);
                // Exhaustion only happens when every processor failed or
                // is occupied; with one task that means all failed.
                prop_assert_eq!(pool.failed_ids().count(), n as usize);
            }
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    /// The reconfigure protocol NEVER consumes a spare, for any failure
    /// timing: masking hardware is exactly what reconfiguration avoids
    /// spending.
    #[test]
    fn reconfigure_recovery_never_consumes_spares(fail_at in 1u64..3) {
        let mut pool = ProcessorPool::with_processors(3);
        pool.processor_mut(ProcessorId::new(0))
            .unwrap()
            .set_fault_plan(FaultPlan::at_instructions([fail_at]));
        pool.assign("job", ProcessorId::new(0)).unwrap();
        let fta = Fta::new("job", idempotent_action()).with_recovery(
            RecoveryProtocol::Reconfigure {
                reason: "degrade instead of mask".into(),
            },
        );
        let mut exec = FtaExecutor::new();
        let outcome = exec.execute(&mut pool, "job", &fta);
        let requested =
            matches!(outcome, FtaOutcome::ReconfigureRequested { failures: 1, .. });
        prop_assert!(requested);
        // The spares are untouched and the assignment unchanged.
        prop_assert!(pool.is_alive(ProcessorId::new(1)));
        prop_assert!(pool.is_alive(ProcessorId::new(2)));
        prop_assert_eq!(pool.assignment("job"), Some(ProcessorId::new(0)));
    }

    /// A sequence of FTAs over a fault-free pool accumulates exactly
    /// (sequence length) x 5.
    #[test]
    fn fta_sequences_accumulate(len in 1usize..10) {
        let mut pool = ProcessorPool::with_processors(1);
        pool.assign("job", ProcessorId::new(0)).unwrap();
        let ftas: Vec<Fta> = (0..len).map(|_| Fta::new("job", idempotent_action())).collect();
        let mut exec = FtaExecutor::new();
        let outcomes = exec.execute_sequence(&mut pool, "job", &ftas);
        prop_assert_eq!(outcomes.len(), len);
        let all_completed = outcomes
            .iter()
            .all(|o| matches!(o, FtaOutcome::Completed { .. }));
        prop_assert!(all_completed);
        let snap = pool.poll_stable(ProcessorId::new(0)).unwrap();
        prop_assert_eq!(snap.get_u64("total"), Some(len as u64 * 5));
    }
}
