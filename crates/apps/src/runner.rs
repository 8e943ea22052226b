//! Launch helpers: run a benchmark kernel on either runtime and collect a
//! uniform outcome record for the harnesses.

use std::time::Duration;

use ace_core::{run_ace_with, CostModel, MachineBuilder, MachineTrace, OpCounters, Spmd};
use ace_crl::run_crl_with;

use crate::dsm::{AceDsm, CrlDsm};

/// Everything a harness needs from one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The app's deterministic verification value (node 0's copy).
    pub verification: f64,
    /// Simulated completion time in nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock duration of the simulation.
    pub wall: Duration,
    /// Total logical messages across all nodes (one per `send` call).
    pub msgs: u64,
    /// Total wire envelopes across all nodes; `<= msgs`, with the gap
    /// being the sends that coalescing batched into shared envelopes.
    pub wire_msgs: u64,
    /// Total payload bytes across all nodes.
    pub bytes: u64,
    /// Machine-wide aggregated operation counters.
    pub counters: OpCounters,
    /// Total conformance violations recorded across all nodes (always 0
    /// unless the run was launched with a [`ace_core::CheckMode`]).
    pub violations: u64,
    /// Merged event trace, when the run was launched with tracing on.
    pub trace: Option<MachineTrace>,
}

impl RunOutcome {
    /// Simulated time in milliseconds (the unit the tables print).
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }
}

/// Run `f` on the Ace runtime and collect the outcome.
pub fn launch_ace<F>(nprocs: usize, cost: CostModel, f: F) -> RunOutcome
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    launch_ace_with(Spmd::builder().nprocs(nprocs).cost(cost), f)
}

/// Run `f` on the Ace runtime with a fully-configured machine (tracing,
/// watchdog, backend, transport, ...).
pub fn launch_ace_with<F>(builder: MachineBuilder, f: F) -> RunOutcome
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    let r = run_ace_with(builder, |rt| {
        let d = AceDsm::new(rt);
        let v = f(&d);
        (v, rt.counters())
    });
    collect(r)
}

/// Run `f` on the CRL baseline and collect the outcome.
pub fn launch_crl<F>(nprocs: usize, cost: CostModel, f: F) -> RunOutcome
where
    F: Fn(&CrlDsm) -> f64 + Sync,
{
    launch_crl_with(Spmd::builder().nprocs(nprocs).cost(cost), f)
}

/// Run `f` on the CRL baseline with a fully-configured machine.
pub fn launch_crl_with<F>(builder: MachineBuilder, f: F) -> RunOutcome
where
    F: Fn(&CrlDsm) -> f64 + Sync,
{
    let r = run_crl_with(builder, |crl| {
        let d = CrlDsm::new(crl);
        let v = f(&d);
        (v, crl.counters())
    });
    collect(r)
}

fn collect(r: ace_core::SpmdResult<(f64, OpCounters)>) -> RunOutcome {
    let mut counters = OpCounters::default();
    for (_, c) in &r.results {
        counters.merge(c);
    }
    RunOutcome {
        verification: r.results[0].0,
        sim_ns: r.sim_ns,
        wall: r.wall,
        msgs: r.stats.total_msgs(),
        wire_msgs: r.stats.total_wire_msgs(),
        bytes: r.stats.total_bytes(),
        counters,
        violations: r.stats.total_violations(),
        trace: r.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::Dsm;
    use ace_core::TraceConfig;

    #[test]
    fn outcomes_carry_stats() {
        let out = launch_ace(2, CostModel::cm5(), |d| {
            let s = d.new_space(ace_protocols::ProtoSpec::Sc);
            d.barrier(s);
            42.0
        });
        assert_eq!(out.verification, 42.0);
        assert!(out.msgs > 0, "barrier exchanges messages");
        assert!(out.sim_ns > 0);
        assert_eq!(out.counters.barriers, 2);
        assert!(out.trace.is_none(), "tracing is off by default");
    }

    #[test]
    fn traced_launch_carries_trace() {
        let b = Spmd::builder().nprocs(2).cost(CostModel::cm5()).trace(TraceConfig::on());
        let out = launch_ace_with(b, |d| {
            let s = d.new_space(ace_protocols::ProtoSpec::Sc);
            d.barrier(s);
            1.0
        });
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.send_count(), out.wire_msgs, "one Send event per wire envelope");
        assert_eq!(trace.logical_send_count(), out.msgs);
        assert!(out.wire_msgs <= out.msgs);
        assert!(trace.event_count() > 0);
    }
}
