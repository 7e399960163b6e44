//! Data centers: populations of physical hosts.
//!
//! A data center owns its CPU catalog and host pool. Hosts differ in CPU
//! model, boot time, crystal error, clock noise, and *popularity* — the
//! weight the orchestrator's scoring function gives them. Popularity follows
//! a Zipf-like law: a minority of hosts serves the bulk of the fleet's
//! container instances, which is why an attacker covering ~59% of a data
//! center's hosts can still cover ~98% of victim *instances* (Section 5.2).
//!
//! # Lazy sharded materialization
//!
//! Generating a host (boot-time waves, crystal error, refinement, noise
//! profile) costs the better part of a microsecond, which at region scale
//! dominates world construction. The pool is therefore materialized
//! *lazily*: [`DataCenter::generate`] records only a genesis
//! description — the generation config, the shuffled popularity ranks, and
//! one keyed RNG stream base — and hosts come into existence per fixed-size
//! shard on first touch. Host `i` draws from the order-free stream
//! `SimRng::keyed(stream_base, i)`, so a host's parameters are a pure
//! function of the seed and its id: touch order, shard boundaries, and
//! whether other hosts were ever materialized cannot change a single byte
//! of it. The differential oracle pins this (lazy-vs-eager equality).
//!
//! Popularity is likewise closed-form: rank `r` weighs
//! [`Zipf::weight_of`]`(r, s)`, so popularity lanes and sampler weights are
//! computable for the whole pool without materializing any host.
//!
//! # Copy-on-write shards
//!
//! Shards are stored as `Arc`s: cloning a data center (see
//! `World::branch`) shares every materialized shard, and
//! [`DataCenter::host_mut`] breaks sharing per shard on first write. A
//! branch therefore costs O(shards touched), not O(hosts).
//!
//! # Struct-of-arrays lanes
//!
//! Each materialized shard also carries contiguous per-host lanes
//! ([`HostLanes`]: boot ns, crystal error, refined kHz, popularity) for
//! bulk readers of the fingerprint state behind Eq. 4.1/4.2. The lanes
//! mirror the host structs exactly — [`DataCenter::reboot_host`] is the one
//! lane-mutating operation and refreshes the affected row.

use std::cell::OnceCell;
use std::sync::Arc;

use eaao_simcore::dist::Zipf;
use eaao_simcore::rng::SimRng;
use eaao_simcore::time::SimTime;
use eaao_simcore::wsample::{fenwick_tree, fixed_weight};
use rand::RngCore;

use crate::cpu::{default_catalog, CpuModel, CpuModelId, CpuidInfo};
use crate::host::{Host, HostGenConfig};
use crate::ids::{HostId, InstanceId};

/// Hosts per materialization shard. Small enough that a sparse workload
/// touching a few hundred scattered hosts generates thousands, not
/// millions; large enough to amortize the per-shard allocation.
const SHARD_SIZE: usize = 64;

/// The immutable generation-time description the lazy pool is derived
/// from: everything needed to materialize any host on demand.
#[derive(Debug)]
struct Genesis {
    config: HostGenConfig,
    popularity_exponent: f64,
    /// Catalog entries with their sampling weights.
    catalog_weighted: Vec<(CpuModel, f64)>,
    /// The bare-hardware `cpuid` surface of each catalog model, built once
    /// and shared by every Gen 1 sandbox on a host of that model.
    cpuid: Vec<Arc<CpuidInfo>>,
    /// Popularity rank of host `i` (a shuffled permutation of `0..n`).
    ranks: Vec<u32>,
    /// Base of the per-host keyed RNG streams.
    stream_base: u64,
}

/// Contiguous struct-of-arrays lanes over one shard's hosts: the
/// fingerprint-bearing state of Eq. 4.1/4.2 plus the popularity weight,
/// one entry per host in id order within the shard.
#[derive(Debug, Clone, Default)]
pub struct HostLanes {
    /// Host boot time in nanoseconds (Eq. 4.1 ground truth).
    pub boot_ns: Vec<i64>,
    /// Signed crystal error ε in Hz (Eq. 4.2 ground truth).
    pub epsilon_hz: Vec<f64>,
    /// Kernel-refined frequency in kHz (the Gen 2 fingerprint).
    pub refined_khz: Vec<f64>,
    /// Orchestrator popularity weight.
    pub popularity: Vec<f64>,
}

impl HostLanes {
    fn push(&mut self, host: &Host) {
        self.boot_ns.push(host.boot_time().as_nanos());
        self.epsilon_hz.push(host.epsilon_hz());
        self.refined_khz
            .push(host.refined_frequency().as_khz() as f64);
        self.popularity.push(host.popularity());
    }

    fn refresh(&mut self, offset: usize, host: &Host) {
        self.boot_ns[offset] = host.boot_time().as_nanos();
        self.epsilon_hz[offset] = host.epsilon_hz();
        self.refined_khz[offset] = host.refined_frequency().as_khz() as f64;
        self.popularity[offset] = host.popularity();
    }
}

/// One materialized block of hosts plus its struct-of-arrays lanes.
#[derive(Debug, Clone)]
struct Shard {
    hosts: Vec<Host>,
    lanes: HostLanes,
}

/// A population of physical hosts sharing a region.
#[derive(Debug)]
pub struct DataCenter {
    name: String,
    catalog: Vec<CpuModel>,
    genesis: Arc<Genesis>,
    shards: Vec<OnceCell<Arc<Shard>>>, // tidy:allow(cow-aliasing) -- genesis lane: each cell fills exactly once with data derived purely from the construction seed, so every branch that races to fill it computes the same shard.
    /// Cached fixed-point popularity lane for the whole pool (sampler
    /// weights), computed from ranks alone — no host materialization.
    pop_fixed: OnceCell<Arc<Vec<u64>>>, // tidy:allow(cow-aliasing) -- genesis lane: fills once from the rank permutation fixed at construction; identical in every branch.
    /// Cached inverse rank permutation (hosts in popularity order).
    by_rank: OnceCell<Arc<Vec<HostId>>>, // tidy:allow(cow-aliasing) -- genesis lane: fills once from the rank permutation fixed at construction; identical in every branch.
    /// Cached Fenwick tree over `pop_fixed`, shared by every
    /// popularity-weighted sampler built over this pool.
    pop_tree: OnceCell<Arc<Vec<u64>>>, // tidy:allow(cow-aliasing) -- genesis lane: a pure function of `pop_fixed`, which is itself fixed at construction; identical in every branch.
}

impl Clone for DataCenter {
    // Written by hand so the share-vs-detach decision per field is explicit
    // (the fork-coverage contract): every lane here is genesis data —
    // immutable once filled and derived purely from the construction seed —
    // so branches share the backing Arcs rather than detaching.
    fn clone(&self) -> Self {
        DataCenter {
            name: self.name.clone(),
            catalog: self.catalog.clone(),
            genesis: Arc::clone(&self.genesis),
            shards: self.shards.clone(),
            pop_fixed: self.pop_fixed.clone(),
            by_rank: self.by_rank.clone(),
            pop_tree: self.pop_tree.clone(),
        }
    }
}

impl DataCenter {
    /// Generates a data center with `host_count` hosts.
    ///
    /// `popularity_exponent` is the Zipf exponent of the host-popularity
    /// law (0 = uniform; ~1 = strongly concentrated).
    ///
    /// Construction is O(`host_count`) in cheap arithmetic (the rank
    /// shuffle) but generates no hosts: they materialize per shard on
    /// first touch.
    ///
    /// # Panics
    ///
    /// Panics if `host_count` is zero.
    pub fn generate(
        name: impl Into<String>,
        host_count: usize,
        host_config: &HostGenConfig,
        popularity_exponent: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(host_count > 0, "a data center needs hosts");
        let mut generate_span = eaao_obs::span("cloudsim.datacenter.generate");
        generate_span.u64_field("hosts", host_count as u64);
        let catalog_weighted = default_catalog();
        let catalog: Vec<CpuModel> = catalog_weighted.iter().map(|(m, _)| m.clone()).collect();
        let cpuid = catalog.iter().map(|m| Arc::new(m.cpuid_info())).collect();

        // Popularity ranks: shuffle so rank is independent of host id.
        let mut ranks: Vec<u32> = (0..host_count as u32).collect();
        rng.shuffle(&mut ranks);
        // One draw anchors every per-host stream; host i derives
        // SimRng::keyed(stream_base, i) when (if ever) it is first touched.
        let stream_base = rng.next_u64();

        DataCenter {
            name: name.into(),
            catalog,
            genesis: Arc::new(Genesis {
                config: *host_config,
                popularity_exponent,
                catalog_weighted,
                cpuid,
                ranks,
                stream_base,
            }),
            shards: vec![OnceCell::new(); host_count.div_ceil(SHARD_SIZE)],
            pop_fixed: OnceCell::new(),
            by_rank: OnceCell::new(),
            pop_tree: OnceCell::new(),
        }
    }

    fn sample_model(catalog: &[(CpuModel, f64)], rng: &mut SimRng) -> usize {
        let target = rng.unit_f64();
        let mut cumulative = 0.0;
        for (i, (_, w)) in catalog.iter().enumerate() {
            cumulative += w;
            if target < cumulative {
                return i;
            }
        }
        catalog.len() - 1
    }

    /// Materializes host `i` from its order-free keyed stream.
    fn generate_host(&self, i: usize) -> Host {
        let genesis = &*self.genesis;
        let mut rng = SimRng::keyed(genesis.stream_base, i as u64);
        let model_idx = Self::sample_model(&genesis.catalog_weighted, &mut rng);
        let nominal = self.catalog[model_idx].nominal_frequency();
        Host::generate(
            HostId::from_raw(i as u32),
            CpuModelId::from_index(model_idx),
            nominal,
            Zipf::weight_of(genesis.ranks[i] as usize, genesis.popularity_exponent),
            SimTime::ZERO,
            &genesis.config,
            &mut rng,
        )
    }

    fn shard_of(id: HostId) -> (usize, usize) {
        let i = id.as_usize();
        (i / SHARD_SIZE, i % SHARD_SIZE)
    }

    // tidy:allow(panic-reachability) -- `index` comes from shard_of on ids below `len`, and `shards` was sized to cover the whole pool at construction.
    fn shard(&self, index: usize) -> &Arc<Shard> {
        self.shards[index].get_or_init(|| {
            let lo = index * SHARD_SIZE;
            let hi = (lo + SHARD_SIZE).min(self.len());
            eaao_obs::count("cloudsim.hosts_generated", (hi - lo) as u64);
            let hosts: Vec<Host> = (lo..hi).map(|i| self.generate_host(i)).collect();
            let mut lanes = HostLanes::default();
            for host in &hosts {
                lanes.push(host);
            }
            Arc::new(Shard { hosts, lanes })
        })
    }

    fn shard_mut(&mut self, index: usize) -> &mut Shard {
        self.shard(index);
        let arc = self.shards[index]
            .get_mut()
            .expect("shard was just materialized");
        Arc::make_mut(arc)
    }

    /// The region name (e.g. `"us-east1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.genesis.ranks.len()
    }

    /// Whether the data center has no hosts (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.genesis.ranks.is_empty()
    }

    /// Borrows a host, materializing its shard on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn host(&self, id: HostId) -> &Host {
        let (shard, offset) = Self::shard_of(id);
        &self.shard(shard).hosts[offset]
    }

    /// Mutably borrows a host, materializing its shard on first touch and
    /// breaking copy-on-write sharing with any branches.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        let (shard, offset) = Self::shard_of(id);
        &mut self.shard_mut(shard).hosts[offset]
    }

    /// Iterates all hosts in id order.
    ///
    /// Materializes the entire pool: meant for tests, small worlds, and
    /// the eager reference path — production index construction uses the
    /// genesis accessors ([`DataCenter::popularity_weights`],
    /// [`DataCenter::host_capacity`]) instead.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        (0..self.len()).map(move |i| self.host(HostId::from_raw(i as u32)))
    }

    /// All host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.len()).map(|i| HostId::from_raw(i as u32))
    }

    /// The CPU model record for a catalog id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cpu_model(&self, id: CpuModelId) -> &CpuModel {
        &self.catalog[id.index()]
    }

    /// The bare-hardware `cpuid` surface of `host`'s CPU model, shared
    /// with every other host of that model.
    ///
    /// # Panics
    ///
    /// Panics if the host's model is not in this data center's catalog.
    pub fn cpuid_of(&self, host: &Host) -> Arc<CpuidInfo> {
        Arc::clone(&self.genesis.cpuid[host.cpu_model().index()])
    }

    /// Reboots a host for maintenance; returns the displaced instances
    /// (the caller must terminate them).
    ///
    /// This is the lane-preserving reboot entry: the host's fingerprint
    /// row in [`HostLanes`] is refreshed alongside the struct.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn reboot_host(&mut self, host: HostId, now: SimTime) -> Vec<InstanceId> {
        eaao_obs::count("cloudsim.host_reboots", 1);
        let (shard, offset) = Self::shard_of(host);
        let shard = self.shard_mut(shard);
        let displaced = shard.hosts[offset].reboot(now);
        let host = &shard.hosts[offset];
        shard.lanes.refresh(offset, host);
        displaced
    }

    /// Total instances currently resident across all hosts.
    ///
    /// Only materialized shards are scanned: a host that was never touched
    /// cannot have residents.
    pub fn resident_instances(&self) -> usize {
        self.shards
            .iter()
            .filter_map(OnceCell::get)
            .map(|shard| shard.hosts.iter().map(Host::resident_count).sum::<usize>())
            .sum()
    }

    /// The uniform per-host instance capacity (a genesis parameter; no
    /// materialization).
    pub fn host_capacity(&self) -> usize {
        self.genesis.config.capacity
    }

    /// The popularity rank of a host (0 = most popular; a genesis
    /// parameter; no materialization).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn popularity_rank(&self, host: HostId) -> usize {
        self.genesis.ranks[host.as_usize()] as usize
    }

    /// The popularity weight of a host, computed closed-form from its rank
    /// (no materialization). Bit-identical to `self.host(host).popularity()`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn popularity_of(&self, host: HostId) -> f64 {
        Zipf::weight_of(
            self.genesis.ranks[host.as_usize()] as usize,
            self.genesis.popularity_exponent,
        )
    }

    /// The fixed-point popularity lane for the whole pool — the sampler
    /// weight of host `i` at index `i` — computed once from ranks alone
    /// and shared by every index built over this pool (and, via `Arc`, by
    /// every branch).
    pub fn popularity_weights(&self) -> Arc<Vec<u64>> {
        Arc::clone(self.pop_fixed.get_or_init(|| {
            let genesis = &*self.genesis;
            Arc::new(
                genesis
                    .ranks
                    .iter()
                    .map(|&r| {
                        fixed_weight(Zipf::weight_of(r as usize, genesis.popularity_exponent))
                    })
                    .collect(),
            )
        }))
    }

    /// All host ids in popularity order (most popular first): the inverse
    /// of the rank permutation, computed once from genesis (no
    /// materialization) and shared by every index built over this pool
    /// (and, via `Arc`, by every branch).
    ///
    /// Distinct ranks give strictly decreasing weights for any positive
    /// exponent, so this is exactly the popularity-descending,
    /// id-tiebroken order a sort over the materialized pool would produce;
    /// at exponent 0 (uniform weights) rank order is the canonical order.
    // tidy:allow(panic-reachability) -- `genesis.ranks` is a permutation of `0..len` by construction (`DataCenter::generate` deals ranks from a shuffled deck), so every rank indexes within `order`.
    pub fn hosts_by_popularity(&self) -> Arc<Vec<HostId>> {
        Arc::clone(self.by_rank.get_or_init(|| {
            let ranks = &self.genesis.ranks;
            let mut order = vec![HostId::from_raw(0); ranks.len()];
            for (i, &rank) in ranks.iter().enumerate() {
                order[rank as usize] = HostId::from_raw(i as u32);
            }
            Arc::new(order)
        }))
    }

    /// The Fenwick tree over [`DataCenter::popularity_weights`], built
    /// once and shared (with the weight lane) by every popularity
    /// sampler over this pool — see
    /// [`FenwickSampler::from_shared`](eaao_simcore::wsample::FenwickSampler::from_shared).
    pub fn popularity_fenwick_tree(&self) -> Arc<Vec<u64>> {
        Arc::clone(
            self.pop_tree
                .get_or_init(|| Arc::new(fenwick_tree(&self.popularity_weights()))),
        )
    }

    /// Materializes every shard (the eager path: reference-engine worlds
    /// and differential tests).
    pub fn materialize_all(&self) {
        for index in 0..self.shards.len() {
            self.shard(index);
        }
    }

    /// Number of hosts currently materialized.
    pub fn materialized_hosts(&self) -> usize {
        self.shards
            .iter()
            .filter_map(OnceCell::get)
            .map(|shard| shard.hosts.len())
            .sum()
    }

    /// Iterates the materialized shards' struct-of-arrays lanes as
    /// `(first_host_id, lanes)` pairs, in id order.
    pub fn materialized_lanes(&self) -> impl Iterator<Item = (HostId, &HostLanes)> {
        self.shards.iter().enumerate().filter_map(|(index, cell)| {
            cell.get()
                .map(|shard| (HostId::from_raw((index * SHARD_SIZE) as u32), &shard.lanes))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(seed: u64, hosts: usize) -> DataCenter {
        let mut rng = SimRng::seed_from(seed);
        DataCenter::generate("us-test1", hosts, &HostGenConfig::default(), 1.0, &mut rng)
    }

    #[test]
    fn generation_produces_population() {
        let dc = dc(1, 100);
        assert_eq!(dc.name(), "us-test1");
        assert_eq!(dc.len(), 100);
        assert!(!dc.is_empty());
        assert_eq!(dc.host_ids().count(), 100);
        assert_eq!(dc.resident_instances(), 0);
    }

    #[test]
    fn construction_is_lazy_until_touched() {
        let dc = dc(1, 1_000);
        assert_eq!(dc.materialized_hosts(), 0);
        // Genesis accessors stay lazy.
        let _ = dc.popularity_of(HostId::from_raw(500));
        let _ = dc.popularity_weights();
        let _ = dc.hosts_by_popularity();
        assert_eq!(dc.host_capacity(), 160);
        assert_eq!(dc.materialized_hosts(), 0);
        // Touching one host materializes exactly one shard.
        let _ = dc.host(HostId::from_raw(500));
        assert_eq!(dc.materialized_hosts(), SHARD_SIZE);
        dc.materialize_all();
        assert_eq!(dc.materialized_hosts(), 1_000);
    }

    #[test]
    fn touch_order_does_not_change_hosts() {
        // Byte-identical hosts no matter which shard is touched first —
        // the keyed-stream property the lazy pool is built on.
        let a = dc(11, 300);
        let b = dc(11, 300);
        let ids = [250u32, 3, 299, 64, 0];
        for &i in &ids {
            let _ = a.host(HostId::from_raw(i));
        }
        b.materialize_all();
        for (ha, hb) in a.hosts().zip(b.hosts()) {
            assert_eq!(ha.boot_time(), hb.boot_time());
            assert_eq!(ha.actual_frequency(), hb.actual_frequency());
            assert_eq!(ha.refined_frequency(), hb.refined_frequency());
            assert_eq!(ha.cpu_model(), hb.cpu_model());
        }
    }

    #[test]
    fn clone_shares_shards_and_writes_unshare() {
        let mut a = dc(12, 200);
        let _ = a.host(HostId::from_raw(0));
        let mut b = a.clone();
        // The clone sees the already-materialized shard without work.
        assert_eq!(b.materialized_hosts(), SHARD_SIZE);
        // A write to the branch never perturbs the parent.
        b.host_mut(HostId::from_raw(0))
            .admit(InstanceId::from_raw(1));
        assert_eq!(b.resident_instances(), 1);
        assert_eq!(a.resident_instances(), 0);
        // And vice versa.
        a.host_mut(HostId::from_raw(0))
            .admit(InstanceId::from_raw(2));
        assert!(b
            .host(HostId::from_raw(0))
            .hosts_instance(InstanceId::from_raw(1)));
        assert!(!b
            .host(HostId::from_raw(0))
            .hosts_instance(InstanceId::from_raw(2)));
    }

    #[test]
    fn genesis_accessors_match_materialized_hosts() {
        let dc = dc(13, 150);
        let order = dc.hosts_by_popularity();
        assert_eq!(order.len(), 150);
        let weights = dc.popularity_weights();
        for id in dc.host_ids() {
            let host = dc.host(id);
            assert_eq!(dc.popularity_of(id), host.popularity(), "host {id}");
            assert_eq!(
                weights[id.as_usize()],
                fixed_weight(host.popularity()),
                "host {id}"
            );
            assert_eq!(host.capacity(), dc.host_capacity());
        }
        // Popularity order is strictly descending at a positive exponent.
        for pair in order.windows(2) {
            assert!(dc.popularity_of(pair[0]) > dc.popularity_of(pair[1]));
        }
    }

    #[test]
    fn lanes_mirror_host_structs_through_reboot() {
        let mut dc = dc(14, 100);
        dc.materialize_all();
        dc.reboot_host(HostId::from_raw(42), SimTime::from_secs(60));
        let mut seen = 0;
        for (base, lanes) in dc.materialized_lanes() {
            for offset in 0..lanes.boot_ns.len() {
                let id = HostId::from_raw(base.as_raw() + offset as u32);
                let host = dc.host(id);
                assert_eq!(lanes.boot_ns[offset], host.boot_time().as_nanos());
                assert_eq!(lanes.epsilon_hz[offset], host.epsilon_hz());
                assert_eq!(
                    lanes.refined_khz[offset],
                    host.refined_frequency().as_khz() as f64
                );
                assert_eq!(lanes.popularity[offset], host.popularity());
                seen += 1;
            }
        }
        assert_eq!(seen, 100);
    }

    #[test]
    fn hosts_span_multiple_models() {
        let dc = dc(2, 200);
        let mut models: Vec<usize> = dc.hosts().map(|h| h.cpu_model().index()).collect();
        models.sort_unstable();
        models.dedup();
        assert!(
            models.len() >= 4,
            "only {} models in 200 hosts",
            models.len()
        );
        // Model metadata resolves.
        let h0 = HostId::from_raw(0);
        let model = dc.cpu_model(dc.host(h0).cpu_model());
        assert!(model.name().contains("GHz"));
        assert_eq!(*dc.cpuid_of(dc.host(h0)), model.cpuid_info());
        // Host frequency is anchored near its model's nominal.
        let diff =
            (dc.host(h0).actual_frequency().as_hz() - model.nominal_frequency().as_hz()).abs();
        assert!(diff < 10e6, "ε too large: {diff}");
    }

    #[test]
    fn popularity_is_heterogeneous() {
        let dc = dc(3, 100);
        let pops: Vec<f64> = dc.hosts().map(Host::popularity).collect();
        let max = pops.iter().cloned().fold(f64::MIN, f64::max);
        let min = pops.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 10.0, "Zipf(1.0) should spread by >10x");
    }

    #[test]
    fn boot_times_are_diverse() {
        let dc = dc(4, 100);
        let mut boots: Vec<i64> = dc.hosts().map(|h| h.boot_time().as_nanos()).collect();
        boots.sort_unstable();
        boots.dedup();
        assert!(boots.len() > 90, "boot times should mostly differ");
    }

    #[test]
    fn reboot_host_routes_to_host() {
        let mut dc = dc(5, 10);
        let id = HostId::from_raw(3);
        dc.host_mut(id).admit(InstanceId::from_raw(77));
        assert_eq!(dc.resident_instances(), 1);
        let displaced = dc.reboot_host(id, SimTime::from_secs(60));
        assert_eq!(displaced, vec![InstanceId::from_raw(77)]);
        assert_eq!(dc.host(id).boot_time(), SimTime::from_secs(60));
        assert_eq!(dc.resident_instances(), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dc(6, 50);
        let b = dc(6, 50);
        for (ha, hb) in a.hosts().zip(b.hosts()) {
            assert_eq!(ha.boot_time(), hb.boot_time());
            assert_eq!(ha.actual_frequency(), hb.actual_frequency());
            assert_eq!(ha.refined_frequency(), hb.refined_frequency());
        }
    }

    #[test]
    #[should_panic(expected = "a data center needs hosts")]
    fn rejects_empty() {
        let mut rng = SimRng::seed_from(7);
        DataCenter::generate("x", 0, &HostGenConfig::default(), 1.0, &mut rng);
    }
}
