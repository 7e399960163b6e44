//! Container instances and their lifecycle.
//!
//! An instance is one running container of a service, pinned to a host. Its
//! lifecycle follows the Cloud Run container contract (Section 2.2 and
//! Experiment 1):
//!
//! ```text
//! Active ──(disconnect)──▶ Idle ──(reaper SIGTERM)──▶ Terminated
//!    ▲                       │
//!    └──────(new request)────┘
//! ```
//!
//! Active time is billed; idle time is not (which is why the paper's attack
//! is cheap). On termination the orchestrator delivers SIGTERM, which the
//! paper's probe catches to timestamp terminations (Figure 6).

use eaao_simcore::time::{SimDuration, SimTime};

use crate::ids::{AccountId, HostId, InstanceId, ServiceId};
use crate::sandbox::Sandbox;
use crate::service::{ContainerSize, Generation};

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Serving a connection; CPU allocated and billed.
    Active,
    /// No connection; preserved for reuse, minimally billed.
    Idle,
    /// Destroyed by the orchestrator (or its host).
    Terminated,
}

/// A container instance.
#[derive(Debug, Clone)]
pub struct ContainerInstance {
    id: InstanceId,
    service: ServiceId,
    owner: AccountId,
    host: HostId,
    size: ContainerSize,
    generation: Generation,
    sandbox: Sandbox,
    state: InstanceState,
    created_at: SimTime,
    /// When the current activity period started (if active).
    active_since: Option<SimTime>,
    /// When the instance last went idle (if idle).
    idle_since: Option<SimTime>,
    /// Total billed active time.
    active_total: SimDuration,
    /// SIGTERM delivery time, recorded at termination.
    sigterm_at: Option<SimTime>,
}

impl ContainerInstance {
    /// Creates an instance in the `Active` state (it starts by serving the
    /// request that triggered its creation).
    #[allow(
        clippy::too_many_arguments,
        reason = "one-shot constructor mirroring the record"
    )]
    pub fn new(
        id: InstanceId,
        service: ServiceId,
        owner: AccountId,
        host: HostId,
        size: ContainerSize,
        generation: Generation,
        sandbox: Sandbox,
        now: SimTime,
    ) -> Self {
        ContainerInstance {
            id,
            service,
            owner,
            host,
            size,
            generation,
            sandbox,
            state: InstanceState::Active,
            created_at: now,
            active_since: Some(now),
            idle_since: None,
            active_total: SimDuration::ZERO,
            sigterm_at: None,
        }
    }

    /// The instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The service this instance belongs to.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// The owning account.
    pub fn owner(&self) -> AccountId {
        self.owner
    }

    /// The host this instance runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The container size.
    pub fn size(&self) -> ContainerSize {
        self.size
    }

    /// The execution environment generation.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The current lifecycle state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// Creation time.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// When the instance went idle, if it is idle.
    pub fn idle_since(&self) -> Option<SimTime> {
        self.idle_since
    }

    /// When SIGTERM was delivered, if terminated.
    pub fn sigterm_at(&self) -> Option<SimTime> {
        self.sigterm_at
    }

    /// Whether the instance is alive (active or idle).
    pub fn is_alive(&self) -> bool {
        self.state != InstanceState::Terminated
    }

    /// Mutable access to the sandbox, for running attacker code inside.
    ///
    /// # Panics
    ///
    /// Panics if the instance is terminated — there is no container to run
    /// code in.
    pub fn sandbox_mut(&mut self) -> &mut Sandbox {
        assert!(
            self.is_alive(),
            "instance {} is terminated; cannot execute code",
            self.id
        );
        &mut self.sandbox
    }

    /// Shared access to the sandbox.
    pub fn sandbox(&self) -> &Sandbox {
        &self.sandbox
    }

    /// Total billed active time so far (including the open period at `now`).
    pub fn billed_active_time(&self, now: SimTime) -> SimDuration {
        match self.active_since {
            Some(start) => self.active_total + now.duration_since(start),
            None => self.active_total,
        }
    }

    /// The currently open active period at `now`, if the instance is
    /// active — time already consumed but not yet settled into billing.
    pub fn open_active_period(&self, now: SimTime) -> Option<SimDuration> {
        self.active_since.map(|start| now.duration_since(start))
    }

    /// Transitions to idle at `now` (connection closed). Returns the length
    /// of the active period that just closed, for billing.
    ///
    /// # Panics
    ///
    /// Panics unless the instance is active.
    pub fn go_idle(&mut self, now: SimTime) -> SimDuration {
        assert_eq!(
            self.state,
            InstanceState::Active,
            "instance {} cannot go idle from {:?}",
            self.id,
            self.state
        );
        let start = self
            .active_since
            .take()
            .expect("active instances track start");
        let period = now.duration_since(start);
        self.active_total += period;
        self.state = InstanceState::Idle;
        self.idle_since = Some(now);
        period
    }

    /// Transitions back to active at `now` (warm reuse by a new request).
    ///
    /// # Panics
    ///
    /// Panics unless the instance is idle.
    pub fn reactivate(&mut self, now: SimTime) {
        assert_eq!(
            self.state,
            InstanceState::Idle,
            "instance {} cannot reactivate from {:?}",
            self.id,
            self.state
        );
        self.state = InstanceState::Active;
        self.active_since = Some(now);
        self.idle_since = None;
    }

    /// Terminates the instance at `now`, delivering SIGTERM. Returns the
    /// active period that was still open, if any, for billing.
    ///
    /// Safe to call from any live state (hosts going down terminate active
    /// instances too); terminating twice panics.
    ///
    /// # Panics
    ///
    /// Panics if already terminated.
    pub fn terminate(&mut self, now: SimTime) -> Option<SimDuration> {
        assert_ne!(
            self.state,
            InstanceState::Terminated,
            "instance {} terminated twice",
            self.id
        );
        let closed = self
            .active_since
            .take()
            .map(|start| now.duration_since(start));
        if let Some(period) = closed {
            self.active_total += period;
        }
        self.state = InstanceState::Terminated;
        self.sigterm_at = Some(now);
        self.idle_since = None;
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModelId;
    use crate::host::{Host, HostGenConfig};
    use crate::sandbox::Gen1Sandbox;
    use eaao_simcore::rng::SimRng;
    use eaao_tsc::freq::TscFrequency;

    fn test_instance(now: SimTime) -> ContainerInstance {
        let mut rng = SimRng::seed_from(1);
        let host = Host::generate(
            HostId::from_raw(0),
            CpuModelId::from_index(0),
            TscFrequency::from_ghz(2.0),
            1.0,
            SimTime::ZERO,
            &HostGenConfig::default(),
            &mut rng,
        );
        let model = crate::cpu::CpuModel::new(
            "Intel(R) Xeon(R) CPU @ 2.00GHz",
            TscFrequency::from_ghz(2.0),
            crate::cpu::CacheGeometry {
                l1d_kib: 32,
                l2_kib: 1_024,
                l3_kib: 39 * 1_024,
            },
        );
        let cpuid = std::sync::Arc::new(model.cpuid_info());
        let sandbox = Sandbox::Gen1(Gen1Sandbox::for_instance(&host, cpuid, now, &mut rng));
        ContainerInstance::new(
            InstanceId::from_raw(1),
            ServiceId::from_raw(2),
            AccountId::from_raw(3),
            HostId::from_raw(0),
            ContainerSize::Small,
            Generation::Gen1,
            sandbox,
            now,
        )
    }

    #[test]
    fn starts_active_with_accessors() {
        let t0 = SimTime::from_secs(100);
        let i = test_instance(t0);
        assert_eq!(i.state(), InstanceState::Active);
        assert!(i.is_alive());
        assert_eq!(i.id(), InstanceId::from_raw(1));
        assert_eq!(i.service(), ServiceId::from_raw(2));
        assert_eq!(i.owner(), AccountId::from_raw(3));
        assert_eq!(i.host(), HostId::from_raw(0));
        assert_eq!(i.size(), ContainerSize::Small);
        assert_eq!(i.generation(), Generation::Gen1);
        assert_eq!(i.created_at(), t0);
        assert!(i.idle_since().is_none());
        assert!(i.sigterm_at().is_none());
    }

    #[test]
    fn billing_accrues_only_while_active() {
        let t0 = SimTime::from_secs(0);
        let mut i = test_instance(t0);
        // 30 s active.
        let closed = i.go_idle(SimTime::from_secs(30));
        assert_eq!(closed, SimDuration::from_secs(30));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(100)),
            SimDuration::from_secs(30)
        );
        // Reactivate for 10 more seconds.
        i.reactivate(SimTime::from_secs(100));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(110)),
            SimDuration::from_secs(40)
        );
        i.terminate(SimTime::from_secs(110));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(500)),
            SimDuration::from_secs(40)
        );
    }

    #[test]
    fn idle_then_terminate_records_sigterm() {
        let mut i = test_instance(SimTime::ZERO);
        i.go_idle(SimTime::from_secs(5));
        assert_eq!(i.state(), InstanceState::Idle);
        assert_eq!(i.idle_since(), Some(SimTime::from_secs(5)));
        i.terminate(SimTime::from_secs(300));
        assert_eq!(i.state(), InstanceState::Terminated);
        assert_eq!(i.sigterm_at(), Some(SimTime::from_secs(300)));
        assert!(!i.is_alive());
    }

    #[test]
    fn terminate_while_active_is_allowed() {
        let mut i = test_instance(SimTime::ZERO);
        let closed = i.terminate(SimTime::from_secs(3));
        assert_eq!(closed, Some(SimDuration::from_secs(3)));
        assert_eq!(
            i.billed_active_time(SimTime::from_secs(9)),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    #[should_panic(expected = "cannot go idle")]
    fn go_idle_from_idle_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.go_idle(SimTime::from_secs(1));
        i.go_idle(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot reactivate")]
    fn reactivate_from_active_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.reactivate(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.terminate(SimTime::from_secs(1));
        i.terminate(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot execute code")]
    fn sandbox_of_terminated_panics() {
        let mut i = test_instance(SimTime::ZERO);
        i.terminate(SimTime::from_secs(1));
        let _ = i.sandbox_mut();
    }

    #[test]
    fn instance_record_stays_compact() {
        // The instance arena holds one record per instance ever created;
        // Gen 1 sandboxes share their model's cpuid surface instead of
        // carrying a copy of it.
        assert!(
            std::mem::size_of::<ContainerInstance>() <= 280,
            "ContainerInstance grew to {} B",
            std::mem::size_of::<ContainerInstance>()
        );
    }

    #[test]
    fn sandbox_shared_access() {
        let i = test_instance(SimTime::ZERO);
        assert!(matches!(i.sandbox(), Sandbox::Gen1(_)));
    }
}
