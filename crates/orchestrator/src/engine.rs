//! Pluggable placement/launch engine backends.
//!
//! The hot path of [`World::launch`](crate::world::World::launch) asks two
//! questions millions of times per simulated day: *pick a host weighted by
//! popularity* and *how much free capacity is left (here / in this cell /
//! overall)*. [`Engine`] bundles the data structures that answer them:
//!
//! * [`OptimizedEngine`] — the production backend: a Fenwick-tree sampler
//!   ([`FenwickSampler`]) and [`IncrementalCapacity`], a free-slot index
//!   maintained incrementally on every instance create/terminate and host
//!   reboot. Per-launch cost depends on the launch size, not the pool size.
//! * `ReferenceEngine` (in the `eaao-oracle` crate) — the naive backend:
//!   linear weighted sampling and full-scan capacity lookups, kept as the
//!   differential-oracle ground truth.
//!
//! Both backends speak the sampling protocol of
//! [`eaao_simcore::wsample`]: integer weights, one `rng.below(total)` draw
//! per pick. Because `World` and `CloudRunPolicy` are generic over the
//! engine and share all control flow, two worlds built from the same seed
//! with different engines consume identical RNG streams and must produce
//! identical trajectories — any divergence is a bug in one backend's
//! bookkeeping, which is exactly what the oracle suite hunts for.

use std::fmt;
use std::sync::Arc;

use eaao_cloudsim::datacenter::DataCenter;
use eaao_cloudsim::ids::HostId;
use eaao_simcore::rng::SimRng;
use eaao_simcore::wsample::{FenwickSampler, IndexSampler};

/// A placement/launch backend: the sampler and capacity index types the
/// generic `World`/`CloudRunPolicy` machinery instantiates.
///
/// The `Clone` bounds on both associated types are what make
/// `World::branch` (copy-on-write snapshots) possible for every engine.
pub trait Engine: fmt::Debug + 'static {
    /// Weighted host sampler (see [`IndexSampler`]).
    type Sampler: IndexSampler + Clone;
    /// Free-capacity index (see [`CapacityIndex`]).
    type Capacity: CapacityIndex + Clone;

    /// Whether worlds built on this engine materialize the full host pool
    /// at construction time.
    ///
    /// The optimized engine leaves this `false`: its indices are built
    /// from genesis parameters (uniform capacity, closed-form popularity)
    /// and hosts materialize per shard on first touch. The reference
    /// engine overrides it to `true` — the naive eager build is the
    /// baseline the differential oracle compares the lazy path against.
    const EAGER_BUILD: bool = false;

    /// Materializes the hosts of one scheduling cell.
    ///
    /// `World` invokes this per cell at build time when
    /// [`EAGER_BUILD`](Engine::EAGER_BUILD) is set; lazy engines never pay
    /// it and instead let [`DataCenter`] materialize shards transparently
    /// on first touch. The hook exists so an eager backend can pin the
    /// all-hosts-up-front construction order as an oracle baseline.
    fn materialize_cell(_dc: &DataCenter, _hosts: &[HostId]) {}

    /// Builds the popularity-weighted sampler over `dc`'s whole pool.
    ///
    /// The default copies the genesis weight lane — O(n) per sampler,
    /// which is what the naive reference baseline should pay. The
    /// optimized engine overrides this to share the data center's cached
    /// weight lane and Fenwick tree, so the pool-sized popularity index
    /// is built once per data center no matter how many policies and
    /// capacity indices sit on top of it. Both constructions hold the
    /// same weights, so they sample identically draw for draw.
    fn popularity_sampler(dc: &DataCenter) -> Self::Sampler {
        Self::Sampler::from_weights(dc.popularity_weights().as_ref().clone())
    }
}

/// The production engine: Fenwick sampling + incremental capacity index.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizedEngine;

impl Engine for OptimizedEngine {
    type Sampler = FenwickSampler;
    type Capacity = IncrementalCapacity;

    fn popularity_sampler(dc: &DataCenter) -> Self::Sampler {
        // O(1): shares the data center's cached weight lane and Fenwick
        // tree; the sampler unshares copy-on-write on first update.
        FenwickSampler::from_shared(dc.popularity_weights(), dc.popularity_fenwick_tree())
    }
}

/// Free-capacity bookkeeping for one data center.
///
/// `World` notifies the index on every residency change
/// ([`on_admit_n`](CapacityIndex::on_admit_n),
/// [`on_evict`](CapacityIndex::on_evict),
/// [`on_host_reboot`](CapacityIndex::on_host_reboot)); the placement
/// policy consumes it through a *planning session*: [`begin_plan`]
/// overlays tentative slot consumption on top of the committed state,
/// [`plan_take`]/[`plan_spill_pick`] allocate against the overlay, and
/// [`end_plan`] discards it (the real admissions follow through
/// `on_admit_n` once the plan is committed).
///
/// The spill pick is popularity-weighted over hosts with free slots left
/// in the overlayed view, and must follow the one-draw protocol of
/// [`eaao_simcore::wsample`] so backends are interchangeable.
///
/// [`begin_plan`]: CapacityIndex::begin_plan
/// [`plan_take`]: CapacityIndex::plan_take
/// [`plan_spill_pick`]: CapacityIndex::plan_spill_pick
/// [`end_plan`]: CapacityIndex::end_plan
pub trait CapacityIndex: fmt::Debug {
    /// Builds the index for `dc`. `cell_of_host[h]` is the scheduling cell
    /// of host `h`; `cell_count` the number of cells.
    ///
    /// The pool is untouched at build time (every host empty), so an
    /// implementation may derive initial free counts from genesis
    /// parameters without materializing hosts.
    fn new(dc: &DataCenter, cell_of_host: Vec<u32>, cell_count: usize) -> Self
    where
        Self: Sized;

    /// `n` instances were admitted to `host`.
    fn on_admit_n(&mut self, host: HostId, n: usize, dc: &DataCenter);

    /// One instance was evicted from `host`.
    fn on_evict(&mut self, host: HostId, dc: &DataCenter);

    /// `host` rebooted, displacing `displaced` instances (it is now empty).
    fn on_host_reboot(&mut self, host: HostId, displaced: usize, dc: &DataCenter);

    /// Total free slots across the data center.
    fn total_free(&self, dc: &DataCenter) -> u64;

    /// Free slots in one scheduling cell.
    ///
    /// # Panics
    ///
    /// May panic if `cell >= cell_count()`.
    fn cell_free(&self, cell: usize, dc: &DataCenter) -> u64;

    /// Number of scheduling cells.
    fn cell_count(&self) -> usize;

    /// Starts a planning session with an empty overlay.
    fn begin_plan(&mut self);

    /// Free slots of `host` net of overlay consumption.
    fn plan_free(&self, host: HostId, dc: &DataCenter) -> usize;

    /// Consumes one slot of `host` in the overlay; `false` if none left.
    fn plan_take(&mut self, host: HostId, dc: &DataCenter) -> bool;

    /// Popularity-weighted pick over hosts with overlay-free slots,
    /// consuming one slot of the picked host. Exactly one
    /// `rng.below(total)` draw on success; `None` (no draw) when the
    /// data center is full in the overlayed view.
    fn plan_spill_pick(&mut self, dc: &DataCenter, rng: &mut SimRng) -> Option<HostId>;

    /// Ends the planning session, discarding the overlay.
    fn end_plan(&mut self);
}

/// The optimized capacity index.
///
/// Committed state (free slots per host/cell/total and a
/// popularity-masked-by-availability Fenwick sampler) is updated in O(1)
/// / O(log n) on each residency change. Planning sessions consume slots
/// in place and keep an undo log of the hosts they touched, so a launch
/// never scans the pool and ending the session undoes only what it took.
#[derive(Debug)]
pub struct IncrementalCapacity {
    /// Free slots per host: committed, net of the open planning session's
    /// takes (none between sessions). Copy-on-write: branches share the
    /// lane until the first write after a clone.
    free: Arc<Vec<u32>>,
    /// Committed free slots, summed.
    total_free: u64,
    /// Committed free slots per scheduling cell.
    cell_free: Vec<u64>,
    /// Scheduling cell of each host (immutable after build, so branches
    /// alias it).
    cell_of_host: Arc<Vec<u32>>,
    /// Fixed-point popularity of each host (constant after construction;
    /// the data center's shared genesis lane, so branches alias it).
    pop_fixed: Arc<Vec<u64>>,
    /// Sampler with weight `pop_fixed[h]` iff `free[h]` is positive.
    avail: FenwickSampler,
    /// Undo log: one entry per slot taken this planning session, naming
    /// its host; `end_plan` gives each slot back.
    plan_taken: Vec<usize>,
    /// Hosts whose `avail` weight was zeroed by this session's takes only.
    plan_suppressed: Vec<usize>,
}

impl Clone for IncrementalCapacity {
    // Written by hand so the share-vs-detach decision per field is
    // explicit (the fork-coverage contract): the three Arc lanes are
    // shared — `free` is copy-on-write (the first write after a clone
    // unshares it), `cell_of_host` and `pop_fixed` are immutable after
    // build — the sampler's own manual Clone spells out its lanes, and the
    // plan's undo log is copied by value (it is empty between planning
    // sessions).
    fn clone(&self) -> Self {
        IncrementalCapacity {
            free: Arc::clone(&self.free),
            total_free: self.total_free,
            cell_free: self.cell_free.clone(),
            cell_of_host: Arc::clone(&self.cell_of_host),
            pop_fixed: Arc::clone(&self.pop_fixed),
            avail: self.avail.clone(),
            plan_taken: self.plan_taken.clone(),
            plan_suppressed: self.plan_suppressed.clone(),
        }
    }
}

impl IncrementalCapacity {
    fn take_at(&mut self, host: usize) -> bool {
        if self.free[host] == 0 {
            return false;
        }
        Arc::make_mut(&mut self.free)[host] -= 1;
        self.plan_taken.push(host);
        if self.free[host] == 0 && self.avail.weight(host) > 0 {
            self.avail.set_weight(host, 0);
            self.plan_suppressed.push(host);
        }
        true
    }
}

impl CapacityIndex for IncrementalCapacity {
    fn new(dc: &DataCenter, cell_of_host: Vec<u32>, cell_count: usize) -> Self {
        assert_eq!(cell_of_host.len(), dc.len(), "cell map covers every host");
        // Built over an untouched pool: every host starts empty, so free
        // slots are the uniform genesis capacity and the whole index comes
        // from genesis lanes — no host is materialized here.
        debug_assert_eq!(dc.resident_instances(), 0, "index built over a fresh pool");
        let capacity = dc.host_capacity() as u32;
        let free = Arc::new(vec![capacity; dc.len()]);
        let pop_fixed = dc.popularity_weights();
        let total_free = dc.len() as u64 * u64::from(capacity);
        let mut cell_free = vec![0u64; cell_count];
        for &cell in &cell_of_host {
            cell_free[cell as usize] += u64::from(capacity);
        }
        // Every host starts with free slots, so the availability sampler
        // starts as the popularity sampler itself: share the data
        // center's cached lane and tree instead of rebuilding them.
        let avail = if capacity > 0 {
            FenwickSampler::from_shared(Arc::clone(&pop_fixed), dc.popularity_fenwick_tree())
        } else {
            FenwickSampler::from_weights(vec![0; dc.len()])
        };
        IncrementalCapacity {
            free,
            total_free,
            cell_free,
            cell_of_host: Arc::new(cell_of_host),
            pop_fixed,
            avail,
            plan_taken: Vec::new(),
            plan_suppressed: Vec::new(),
        }
    }

    fn on_admit_n(&mut self, host: HostId, n: usize, _dc: &DataCenter) {
        let h = host.as_usize();
        let n32 = n as u32;
        assert!(
            self.free[h] >= n32,
            "admitting past capacity on host {host}"
        );
        Arc::make_mut(&mut self.free)[h] -= n32;
        self.total_free -= n as u64;
        self.cell_free[self.cell_of_host[h] as usize] -= n as u64;
        if self.free[h] == 0 {
            self.avail.set_weight(h, 0);
        }
    }

    // tidy:allow(panic-reachability) -- `h` and its cell come from a HostId previously admitted into these lanes, which were sized to the fleet at construction.
    fn on_evict(&mut self, host: HostId, _dc: &DataCenter) {
        let h = host.as_usize();
        Arc::make_mut(&mut self.free)[h] += 1;
        self.total_free += 1;
        self.cell_free[self.cell_of_host[h] as usize] += 1;
        if self.free[h] == 1 {
            self.avail.set_weight(h, self.pop_fixed[h]);
        }
    }

    // tidy:allow(panic-reachability) -- `h` and its cell come from a HostId of the same fleet these lanes were sized to at construction.
    fn on_host_reboot(&mut self, host: HostId, displaced: usize, dc: &DataCenter) {
        let h = host.as_usize();
        debug_assert_eq!(dc.host(host).resident_count(), 0, "reboot empties the host");
        let was_free = self.free[h];
        Arc::make_mut(&mut self.free)[h] = dc.host(host).capacity() as u32;
        debug_assert_eq!(u64::from(self.free[h] - was_free), displaced as u64);
        self.total_free += displaced as u64;
        self.cell_free[self.cell_of_host[h] as usize] += displaced as u64;
        if was_free == 0 && self.free[h] > 0 {
            self.avail.set_weight(h, self.pop_fixed[h]);
        }
    }

    fn total_free(&self, _dc: &DataCenter) -> u64 {
        self.total_free
    }

    fn cell_free(&self, cell: usize, _dc: &DataCenter) -> u64 {
        self.cell_free[cell]
    }

    fn cell_count(&self) -> usize {
        self.cell_free.len()
    }

    fn begin_plan(&mut self) {
        debug_assert!(self.plan_taken.is_empty() && self.plan_suppressed.is_empty());
    }

    fn plan_free(&self, host: HostId, _dc: &DataCenter) -> usize {
        self.free[host.as_usize()] as usize
    }

    fn plan_take(&mut self, host: HostId, _dc: &DataCenter) -> bool {
        self.take_at(host.as_usize())
    }

    fn plan_spill_pick(&mut self, _dc: &DataCenter, rng: &mut SimRng) -> Option<HostId> {
        let h = self.avail.pick(rng)?;
        let took = self.take_at(h);
        debug_assert!(took, "sampled host must have an overlay-free slot");
        Some(HostId::from_raw(h as u32))
    }

    // tidy:allow(panic-reachability) -- `plan_taken` and `plan_suppressed` hold indices previously admitted into these fleet-sized lanes by plan_take/plan_spill_pick.
    fn end_plan(&mut self) {
        if !self.plan_taken.is_empty() {
            let free = Arc::make_mut(&mut self.free);
            for h in self.plan_taken.drain(..) {
                free[h] += 1;
            }
        }
        for h in self.plan_suppressed.drain(..) {
            // Suppressed by the plan only: the committed view still has
            // free slots here, so the weight comes back.
            if self.free[h] > 0 {
                self.avail.set_weight(h, self.pop_fixed[h]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eaao_cloudsim::host::HostGenConfig;

    fn small_dc(seed: u64, hosts: usize, capacity: usize) -> DataCenter {
        let mut rng = SimRng::seed_from(seed);
        let config = HostGenConfig {
            capacity,
            ..HostGenConfig::default()
        };
        DataCenter::generate("test", hosts, &config, 0.9, &mut rng)
    }

    fn index_for(dc: &DataCenter, cells: usize) -> IncrementalCapacity {
        let map: Vec<u32> = (0..dc.len()).map(|h| (h % cells) as u32).collect();
        IncrementalCapacity::new(dc, map, cells)
    }

    /// Committed free counts must always equal a full scan of the DC.
    fn assert_mirrors(cap: &IncrementalCapacity, dc: &DataCenter) {
        let scan: u64 = dc.hosts().map(|h| h.free_slots() as u64).sum();
        assert_eq!(cap.total_free(dc), scan);
        let cells: u64 = (0..cap.cell_count()).map(|c| cap.cell_free(c, dc)).sum();
        assert_eq!(cells, scan);
        for (h, host) in dc.hosts().enumerate() {
            assert_eq!(cap.free[h] as usize, host.free_slots(), "host {h}");
        }
    }

    #[test]
    fn tracks_admit_evict_reboot() {
        use eaao_cloudsim::ids::InstanceId;
        use eaao_simcore::time::SimTime;
        let mut dc = small_dc(1, 12, 4);
        let mut cap = index_for(&dc, 3);
        assert_mirrors(&cap, &dc);

        let h = HostId::from_raw(5);
        for i in 0..4 {
            dc.host_mut(h).admit(InstanceId::from_raw(i));
        }
        cap.on_admit_n(h, 4, &dc);
        assert_mirrors(&cap, &dc);
        assert_eq!(cap.avail.weight(5), 0, "full host drops out of sampling");

        dc.host_mut(h).evict(InstanceId::from_raw(0));
        cap.on_evict(h, &dc);
        assert_mirrors(&cap, &dc);
        assert!(cap.avail.weight(5) > 0, "freed host is sampleable again");

        let displaced = dc.reboot_host(h, SimTime::from_secs(10));
        cap.on_host_reboot(h, displaced.len(), &dc);
        assert_mirrors(&cap, &dc);
    }

    #[test]
    fn plan_overlay_is_discarded_by_end_plan() {
        let dc = small_dc(2, 6, 2);
        let mut cap = index_for(&dc, 2);
        let h = HostId::from_raw(0);
        cap.begin_plan();
        assert_eq!(cap.plan_free(h, &dc), 2);
        assert!(cap.plan_take(h, &dc));
        assert!(cap.plan_take(h, &dc));
        assert!(!cap.plan_take(h, &dc), "overlay exhausted");
        assert_eq!(cap.plan_free(h, &dc), 0);
        assert_eq!(cap.avail.weight(0), 0, "exhausted in overlay");
        cap.end_plan();
        // Committed state untouched.
        assert_eq!(cap.plan_free(h, &dc), 2);
        assert!(cap.avail.weight(0) > 0);
        assert_mirrors(&cap, &dc);
    }

    #[test]
    fn spill_pick_respects_overlay_capacity() {
        let dc = small_dc(3, 4, 2);
        let mut cap = index_for(&dc, 1);
        let mut rng = SimRng::seed_from(4);
        cap.begin_plan();
        // 4 hosts × 2 slots: exactly 8 picks succeed, then None.
        let mut per_host = std::collections::BTreeMap::new();
        for _ in 0..8 {
            let h = cap.plan_spill_pick(&dc, &mut rng).expect("slots left");
            *per_host.entry(h).or_insert(0u32) += 1;
        }
        assert!(cap.plan_spill_pick(&dc, &mut rng).is_none());
        assert!(per_host.values().all(|&c| c <= 2), "capacity respected");
        cap.end_plan();
        assert_eq!(cap.total_free(&dc), 8, "overlay never committed");
    }

    #[test]
    fn planning_on_a_branch_leaves_both_sides_committed() {
        use eaao_cloudsim::ids::InstanceId;
        let mut dc = small_dc(5, 8, 3);
        let mut cap = index_for(&dc, 2);
        // One host nearly full, one full, before the fork.
        let (near, full) = (HostId::from_raw(1), HostId::from_raw(6));
        for i in 0..2 {
            dc.host_mut(near).admit(InstanceId::from_raw(i));
        }
        cap.on_admit_n(near, 2, &dc);
        for i in 2..5 {
            dc.host_mut(full).admit(InstanceId::from_raw(i));
        }
        cap.on_admit_n(full, 3, &dc);
        let weights = |c: &IncrementalCapacity| -> Vec<u64> {
            (0..dc.len()).map(|h| c.avail.weight(h)).collect()
        };
        let parent_weights = weights(&cap);

        let mut branch = cap.clone();
        let mut rng = SimRng::seed_from(6);
        branch.begin_plan();
        assert!(branch.plan_take(near, &dc));
        assert!(!branch.plan_take(near, &dc), "near host exhausted");
        assert!(!branch.plan_take(full, &dc));
        for _ in 0..10 {
            branch.plan_spill_pick(&dc, &mut rng).expect("slots left");
        }
        // Mid-plan, the parent still reads the committed state.
        assert_mirrors(&cap, &dc);
        assert_eq!(weights(&cap), parent_weights);
        branch.end_plan();
        assert_mirrors(&branch, &dc);
        assert_mirrors(&cap, &dc);
        assert_eq!(weights(&branch), parent_weights);

        // And the other way round: the parent plans while the branch
        // shares its lane again.
        let branch = cap.clone();
        cap.begin_plan();
        for _ in 0..12 {
            cap.plan_spill_pick(&dc, &mut rng).expect("slots left");
        }
        assert_mirrors(&branch, &dc);
        cap.end_plan();
        assert_mirrors(&cap, &dc);
        assert_eq!(weights(&cap), parent_weights);
    }
}
