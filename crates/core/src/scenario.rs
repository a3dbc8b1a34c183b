//! Validated scenario construction.

use std::error::Error;
use std::fmt;

use fading_channel::ChannelError;
use fading_geom::Deployment;
use fading_protocols::ProtocolKind;
use fading_sim::faults::{FaultError, FaultPlan};
use fading_sim::{montecarlo, RunResult, Simulation, TraceLevel};

use crate::ChannelKind;

/// Errors from building or validating a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// No deployment was supplied.
    MissingDeployment,
    /// No channel was supplied.
    MissingChannel,
    /// No protocol was supplied.
    MissingProtocol,
    /// The deployment violates the paper's single-hop admissibility
    /// condition under the chosen SINR parameters.
    NotSingleHop(ChannelError),
    /// The fault plan does not fit the deployment (e.g. a churn event
    /// names a node outside it).
    InvalidFaultPlan(FaultError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::MissingDeployment => write!(f, "scenario needs a deployment"),
            ScenarioError::MissingChannel => write!(f, "scenario needs a channel"),
            ScenarioError::MissingProtocol => write!(f, "scenario needs a protocol"),
            ScenarioError::NotSingleHop(e) => write!(f, "deployment is not single-hop: {e}"),
            ScenarioError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::NotSingleHop(e) => Some(e),
            ScenarioError::InvalidFaultPlan(e) => Some(e),
            _ => None,
        }
    }
}

/// A fully specified, validated experiment unit: deployment × channel ×
/// protocol × seed.
///
/// Build via [`Scenario::builder`]. Validation enforces the paper's model
/// assumptions — in particular, SINR scenarios must satisfy the single-hop
/// condition `P > 4·β·N·(longest link)^α`; use
/// [`SinrParams::with_power_for`](fading_channel::SinrParams::with_power_for)
/// to auto-scale power when sweeping deployment sizes.
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone)]
pub struct Scenario {
    deployment: Deployment,
    channel: ChannelKind,
    protocol: ProtocolKind,
    seed: u64,
    trace_level: TraceLevel,
    fault_plan: Option<FaultPlan>,
}

impl Scenario {
    /// Starts building a scenario.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The deployment under test.
    #[must_use]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The channel configuration.
    #[must_use]
    pub fn channel(&self) -> ChannelKind {
        self.channel
    }

    /// The protocol configuration.
    #[must_use]
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault plan attached to every simulation built from this
    /// scenario, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Builds a fresh simulation (cheap; positions are copied once).
    #[must_use]
    pub fn simulation(&self) -> Simulation {
        self.simulation_with_seed(self.seed)
    }

    /// Builds a fresh simulation with an explicit seed (used by Monte-Carlo
    /// sweeps; all other configuration is shared).
    #[must_use]
    pub fn simulation_with_seed(&self, seed: u64) -> Simulation {
        let protocol = self.protocol;
        let mut sim = Simulation::new(
            self.deployment.clone(),
            self.channel.build(),
            seed,
            move |id| protocol.build(id),
        );
        if let Some(plan) = &self.fault_plan {
            if sim.set_fault_plan(plan.clone()).is_err() {
                unreachable!("plan validated at scenario build time")
            }
        }
        sim.set_trace_level(self.trace_level);
        sim
    }

    /// Runs to resolution (or the round budget) and returns the result.
    #[must_use]
    pub fn run(&self, max_rounds: u64) -> RunResult {
        self.simulation().run_until_resolved(max_rounds)
    }

    /// Runs `trials` seeded trials (seeds `seed, seed+1, …`) in parallel on
    /// `threads` workers, returning per-trial results in seed order.
    #[must_use]
    pub fn montecarlo(&self, trials: usize, threads: usize, max_rounds: u64) -> Vec<RunResult> {
        montecarlo::run_trials(trials, threads, self.seed, |seed| {
            self.simulation_with_seed(seed)
                .run_until_resolved(max_rounds)
        })
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    deployment: Option<Deployment>,
    channel: Option<ChannelKind>,
    protocol: Option<ProtocolKind>,
    seed: u64,
    trace_level: TraceLevel,
    fault_plan: Option<FaultPlan>,
}

impl ScenarioBuilder {
    /// Sets the deployment.
    pub fn deployment(&mut self, deployment: Deployment) -> &mut Self {
        self.deployment = Some(deployment);
        self
    }

    /// Uses the SINR channel with the given parameters.
    pub fn sinr(&mut self, params: fading_channel::SinrParams) -> &mut Self {
        self.channel = Some(ChannelKind::Sinr(params));
        self
    }

    /// Uses the classical radio channel.
    pub fn radio(&mut self) -> &mut Self {
        self.channel = Some(ChannelKind::Radio);
        self
    }

    /// Uses the collision-detection radio channel.
    pub fn radio_cd(&mut self) -> &mut Self {
        self.channel = Some(ChannelKind::RadioCd);
        self
    }

    /// Uses an explicit channel kind.
    pub fn channel(&mut self, kind: ChannelKind) -> &mut Self {
        self.channel = Some(kind);
        self
    }

    /// Sets the protocol.
    pub fn protocol(&mut self, kind: ProtocolKind) -> &mut Self {
        self.protocol = Some(kind);
        self
    }

    /// Sets the master seed (default 0).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the trace level for simulations built from the scenario.
    pub fn trace_level(&mut self, level: TraceLevel) -> &mut Self {
        self.trace_level = level;
        self
    }

    /// Attaches a fault plan (jammers, noise bursts, churn, burst loss) to
    /// every simulation built from the scenario. Validated against the
    /// deployment at [`ScenarioBuilder::build`] time.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Validates and produces the scenario.
    ///
    /// # Errors
    ///
    /// * [`ScenarioError::MissingDeployment`] / [`ScenarioError::MissingChannel`] /
    ///   [`ScenarioError::MissingProtocol`] if a component is unset.
    /// * [`ScenarioError::NotSingleHop`] if a SINR-family channel's power is
    ///   insufficient for the deployment's longest link.
    /// * [`ScenarioError::InvalidFaultPlan`] if an attached fault plan does
    ///   not fit the deployment.
    pub fn build(&self) -> Result<Scenario, ScenarioError> {
        let deployment = self
            .deployment
            .clone()
            .ok_or(ScenarioError::MissingDeployment)?;
        let channel = self.channel.ok_or(ScenarioError::MissingChannel)?;
        let protocol = self.protocol.ok_or(ScenarioError::MissingProtocol)?;
        if let Some(params) = channel.sinr_params() {
            params
                .admits_single_hop(&deployment)
                .map_err(ScenarioError::NotSingleHop)?;
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate_for(deployment.len())
                .map_err(ScenarioError::InvalidFaultPlan)?;
        }
        Ok(Scenario {
            deployment,
            channel,
            protocol,
            seed: self.seed,
            trace_level: self.trace_level,
            fault_plan: self.fault_plan.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::SinrParams;

    fn small_deployment() -> Deployment {
        Deployment::uniform_square(16, 10.0, 1)
    }

    #[test]
    fn builder_requires_all_components() {
        let err = Scenario::builder().build().unwrap_err();
        assert_eq!(err, ScenarioError::MissingDeployment);
        let err = Scenario::builder()
            .deployment(small_deployment())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::MissingChannel);
        let err = Scenario::builder()
            .deployment(small_deployment())
            .radio()
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::MissingProtocol);
    }

    #[test]
    fn sinr_scenario_validates_single_hop() {
        let weak = SinrParams::builder().power(1.0).build().unwrap();
        let err = Scenario::builder()
            .deployment(small_deployment())
            .sinr(weak)
            .protocol(ProtocolKind::fkn_default())
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::NotSingleHop(_)));
    }

    #[test]
    fn radio_scenario_skips_single_hop_check() {
        let s = Scenario::builder()
            .deployment(small_deployment())
            .radio()
            .protocol(ProtocolKind::DecayClassic)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(s.seed(), 5);
        assert_eq!(s.channel().label(), "radio");
    }

    #[test]
    fn run_resolves_and_montecarlo_is_seed_ordered() {
        let s = Scenario::builder()
            .deployment(small_deployment())
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .seed(100)
            .build()
            .unwrap();
        let r = s.run(10_000);
        assert!(r.resolved());
        let batch = s.montecarlo(4, 2, 10_000);
        assert_eq!(batch.len(), 4);
        // Trial 0 uses the scenario seed itself.
        assert_eq!(batch[0].resolved_at(), r.resolved_at());
    }

    /// Only the engine that serves is built: up to
    /// `FARFIELD_AUTO_THRESHOLD` nodes the exact scan serves FKN/SINR
    /// trials, so neither far-field engine exists before or after a full
    /// run.
    #[test]
    fn sinr_scenario_at_the_exact_tier_ceiling_builds_no_engine() {
        let d = Deployment::uniform_density(fading_sim::FARFIELD_AUTO_THRESHOLD, 0.25, 7);
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let s = Scenario::builder()
            .deployment(d)
            .sinr(params)
            .protocol(ProtocolKind::fkn_default())
            .seed(1)
            .build()
            .unwrap();
        let mut sim = s.simulation();
        assert!(sim.farfield_engine().is_none());
        assert!(sim.hierarchical_engine().is_none());
        assert!(sim.run_until_resolved(10_000).resolved());
        assert!(sim.farfield_engine().is_none());
        assert!(sim.hierarchical_engine().is_none());
        assert_eq!(sim.engine_counters().exact_rounds, sim.round());
    }

    #[test]
    fn trace_level_propagates() {
        let s = Scenario::builder()
            .deployment(small_deployment())
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .trace_level(TraceLevel::Counts)
            .build()
            .unwrap();
        let r = s.run(10_000);
        assert!(!r.trace().is_empty());
    }

    #[test]
    fn error_display_and_source() {
        let e = ScenarioError::MissingChannel;
        assert!(e.to_string().contains("channel"));
        let weak = SinrParams::builder().power(1.0).build().unwrap();
        let nested = weak.admits_single_hop(&small_deployment()).unwrap_err();
        let e = ScenarioError::NotSingleHop(nested);
        assert!(e.source().is_some());
        let e = ScenarioError::InvalidFaultPlan(FaultError::RoundZero);
        assert!(e.to_string().contains("fault plan"));
        assert!(e.source().is_some());
    }

    #[test]
    fn fault_plan_is_validated_against_the_deployment() {
        use fading_sim::faults::ChurnEvent;
        let plan = FaultPlan::new().with_churn(ChurnEvent::crash(2, 99).unwrap());
        let err = Scenario::builder()
            .deployment(small_deployment()) // 16 nodes — node 99 is out of range
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .fault_plan(plan)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidFaultPlan(FaultError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn fault_plan_propagates_to_simulations() {
        use fading_sim::faults::ChurnEvent;
        let plan = FaultPlan::new().with_churn(ChurnEvent::crash(1, 3).unwrap());
        let s = Scenario::builder()
            .deployment(small_deployment())
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .fault_plan(plan.clone())
            .build()
            .unwrap();
        assert_eq!(s.fault_plan(), Some(&plan));
        let mut sim = s.simulation();
        assert_eq!(sim.fault_plan(), Some(&plan));
        sim.step();
        assert!(!sim.is_active(3), "scheduled crash must fire in round 1");
    }
}
