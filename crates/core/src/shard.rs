//! The **region-sharded** diagnosis engine: partitioned propagation with
//! boundary-value and boundary-nogood exchange.
//!
//! Large hierarchical boards break the flat engine's economics: every
//! [`Env`] over an N-component vocabulary costs `⌈N/64⌉` words, so a
//! 5 000-component board pays ~80 words per environment copy, union and
//! subset test — even though almost every derivation only ever mentions
//! a handful of electrically local assumptions. Sharding fixes the
//! *vocabulary*, not (just) the work distribution: each shard interns
//! only its own region group's assumptions, so on a single core its env
//! operations run on bitsets an order of magnitude narrower.
//!
//! The design mirrors distributed ATMS architectures (and the paper's
//! §6.2 one-model/many-boards split):
//!
//! * [`ShardedModel`] — compile-once: a region partition
//!   ([`RegionPartition`]) over the extracted network, one filtered
//!   sub-network + restricted schedule per shard (full global quantity
//!   list, so `QuantityId`s are shared; only the shard's constraints),
//!   a global assumption vocabulary for rendering, per-shard local↔global
//!   [`ShardMap`]s, and per-shard *base states* with the board-independent
//!   seed/prediction fixpoint — including the build-time boundary
//!   exchange — already propagated.
//! * [`ShardedSession`] — serve-many: restores the base states, takes
//!   board measurements, and runs rounds of *propagate locally, exchange
//!   boundary entries and nogoods globally* until joint quiescence.
//!   Exchange is canonical (ascending boundary quantity, source shard,
//!   entry order, target shard), and re-delivered entries are rejected
//!   by the same dominance rules as internal derivations, so rounds
//!   converge.
//! * [`ShardReport`] — the merged diagnosis: per-point consistencies,
//!   globally renamed nogoods merged into one Pareto-minimal
//!   [`FuzzyAtms`] store, and ranked candidates over the union of
//!   shard conflicts. Pareto minimality and the candidate ranking are
//!   order-invariant over the nogood *set*, which is why the ranked
//!   output does not depend on the shard count — the workspace gates
//!   assert byte-identical reports for 1/2/4/8 shards.

use crate::engine::{Candidate, PointReport};
use crate::propagation::{CompiledSchedule, PropState, Propagator, PropagatorConfig};
use crate::Result;
use flames_atms::{Env, FuzzyAtms, RankedDiagnosis, ShardMap};
use flames_circuit::compile::RegionPartition;
use flames_circuit::constraint::{Network, QuantityId};
use flames_circuit::predict::TestPoint;
use flames_circuit::Netlist;
use flames_fuzzy::{Consistency, FuzzyInterval};

/// Hard cap on exchange rounds — a backstop against a non-converging
/// exchange loop (dominance rejection of re-delivered entries makes the
/// loop terminate long before this in practice).
const MAX_EXCHANGE_ROUNDS: usize = 200;

/// The merged diagnosis snapshot of a [`ShardedSession`] — the sharded
/// analogue of [`crate::Report`] (minus the Dc-refinement column, which
/// is a flat-engine feature).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// One entry per test point.
    pub points: Vec<PointReport>,
    /// Merged nogoods as (rendered global member set, degree),
    /// strongest first.
    pub nogoods: Vec<(String, f64)>,
    /// Ranked candidates over the merged store.
    pub candidates: Vec<Candidate>,
}

/// One shard's compile-once parts.
#[derive(Debug)]
struct Shard {
    /// The filtered sub-network: all global quantities, only this
    /// shard's constraints/seeds/specs.
    network: Network,
    /// The restricted schedule (local assumption vocabulary).
    schedule: CompiledSchedule,
}

/// The compile-once half of the sharded engine. See the module docs.
#[derive(Debug)]
pub struct ShardedModel {
    netlist: Netlist,
    network: Network,
    /// Global vocabulary: names every merged env in reports and defines
    /// the global assumption ids the [`ShardMap`]s translate to.
    global: CompiledSchedule,
    test_points: Vec<TestPoint>,
    predictions: Vec<FuzzyInterval>,
    point_quantities: Vec<QuantityId>,
    /// Shards hosting each test point's quantity.
    point_shards: Vec<Vec<usize>>,
    /// `(boundary quantity, hosting shards)` in ascending quantity order
    /// — the canonical exchange schedule.
    routes: Vec<(QuantityId, Vec<usize>)>,
    shards: Vec<Shard>,
    /// Per-shard seed/prediction fixpoint (after build-time exchange).
    base_states: Vec<PropState>,
    /// Per-shard local↔global renaming at base-state capture.
    base_maps: Vec<ShardMap>,
    config: PropagatorConfig,
}

impl ShardedModel {
    /// Compiles the sharded model: partitions the extracted `network` by
    /// `comp_region`, builds one filtered sub-network and restricted
    /// schedule per shard, seeds the test-point `predictions` into every
    /// hosting shard, and runs the board-independent fixpoint (local
    /// propagation + boundary exchange) once, capturing per-shard base
    /// states.
    ///
    /// `predictions` are taken explicitly (like
    /// [`crate::Diagnoser::from_network`]) — hierarchical generators
    /// compute them compositionally, since corner-solving a 5 000-net
    /// board per component is not an option.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero, if `test_points` and
    /// `predictions` disagree in length, or if `comp_region` does not
    /// map every component.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // model + partition + shard count + config is the build
    pub fn new(
        netlist: Netlist,
        network: Network,
        test_points: Vec<TestPoint>,
        predictions: Vec<FuzzyInterval>,
        comp_region: &[u32],
        region_count: usize,
        shard_count: usize,
        config: PropagatorConfig,
    ) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        assert_eq!(test_points.len(), predictions.len());
        let partition = RegionPartition::new(&netlist, &network, comp_region, region_count);
        let global = CompiledSchedule::build(&netlist, &network, config);
        let point_quantities: Vec<QuantityId> = test_points
            .iter()
            .map(|tp| network.voltage_quantity(tp.net))
            .collect();

        // Region → shard, then quantity → hosting shards.
        let region_shard = RegionPartition::shard_of_regions(region_count, shard_count);
        let hosts = |q: QuantityId| -> Vec<usize> {
            let mut ss: Vec<usize> = partition
                .quantity_regions(q)
                .iter()
                .map(|&r| region_shard[r as usize] as usize)
                .collect();
            ss.sort_unstable();
            ss.dedup();
            if ss.is_empty() {
                ss.push(0);
            }
            ss
        };
        let point_shards: Vec<Vec<usize>> = point_quantities.iter().map(|&q| hosts(q)).collect();
        let routes: Vec<(QuantityId, Vec<usize>)> = partition
            .boundary()
            .iter()
            .map(|&q| (q, hosts(q)))
            .filter(|(_, ss)| ss.len() >= 2)
            .collect();

        let shards: Vec<Shard> = (0..shard_count)
            .map(|s| {
                let flags = RegionPartition::shard_flags(
                    region_count,
                    shard_count,
                    u32::try_from(s).expect("shard fits u32"),
                );
                let sub = partition.shard_network(&network, &flags);
                let include = partition.comp_in_shard(&flags);
                let schedule = CompiledSchedule::build_restricted(&netlist, &sub, &include);
                Shard {
                    network: sub,
                    schedule,
                }
            })
            .collect();

        // Base local↔global maps: components in netlist order, then the
        // shard's Kirchhoff connection assumptions in its own interning
        // order — exactly the dense local id order of build_restricted.
        let base_maps: Vec<ShardMap> = shards
            .iter()
            .map(|shard| {
                let mut map = ShardMap::new(global.pool().len());
                for (id, _) in netlist.components() {
                    let local = shard.schedule.component_assumption(id.index());
                    if local.0 != u32::MAX {
                        map.bind(local, global.component_assumption(id.index()));
                    }
                }
                for &net in shard.schedule.compiled().conn_nets() {
                    let local = shard
                        .schedule
                        .connection_assumption(net)
                        .expect("shard KCL net has a local connection assumption");
                    let g = global
                        .connection_assumption(net)
                        .expect("shard KCL nets are global KCL nets");
                    map.bind(local, g);
                }
                map
            })
            .collect();

        // Board-independent fixpoint: seed predictions into every
        // hosting shard, propagate, exchange, repeat — then snapshot.
        let (base_states, base_maps) = {
            let mut props: Vec<Propagator<'_>> = shards
                .iter()
                .map(|sh| Propagator::with_schedule(&sh.network, &sh.schedule, config))
                .collect();
            let mut maps = base_maps;
            for (idx, (tp, pred)) in test_points.iter().zip(&predictions).enumerate() {
                let q = point_quantities[idx];
                let global_env = Env::from_assumptions(
                    tp.support
                        .iter()
                        .map(|c| global.component_assumption(c.index())),
                );
                for &s in &point_shards[idx] {
                    let local = localize_into(&mut maps[s], &mut props[s], &global_env);
                    props[s]
                        .insert_external(q, *pred, local, 1.0, false)
                        .expect("test-point quantities exist in every shard network");
                }
            }
            exchange_to_quiescence(&mut props, &mut maps, &routes);
            (props.iter().map(Propagator::snapshot_state).collect(), maps)
        };

        Self {
            netlist,
            network,
            global,
            test_points,
            predictions,
            point_quantities,
            point_shards,
            routes,
            shards,
            base_states,
            base_maps,
            config,
        }
    }

    /// The netlist the model was compiled from.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The global (unsharded) constraint network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The declared test points.
    #[must_use]
    pub fn test_points(&self) -> &[TestPoint] {
        &self.test_points
    }

    /// Number of boundary-cut quantities actually exchanged between
    /// shards (cut size at this shard count).
    #[must_use]
    pub fn boundary_len(&self) -> usize {
        self.routes.len()
    }

    /// Opens a warm session against this model.
    #[must_use]
    pub fn session(&self) -> ShardedSession<'_> {
        flames_obs::metrics().sessions_opened.incr();
        let props: Vec<Propagator<'_>> = self
            .shards
            .iter()
            .zip(&self.base_states)
            .map(|(sh, base)| {
                let mut p = Propagator::with_schedule(&sh.network, &sh.schedule, self.config);
                p.restore_state(base);
                p
            })
            .collect();
        ShardedSession {
            model: self,
            props,
            maps: self.base_maps.clone(),
            measured: vec![None; self.test_points.len()],
        }
    }
}

/// Renames a global env into a shard's vocabulary, interning unseen
/// assumptions into the shard's session ATMS (reports name them through
/// the global vocabulary).
fn localize_into(map: &mut ShardMap, prop: &mut Propagator<'_>, env: &Env) -> Env {
    map.localize(env, |_| prop.register_assumption())
}

/// Runs every shard to local quiescence, then exchanges boundary value
/// entries and nogoods in canonical order, repeating until a full round
/// changes nothing. Returns total constraint applications.
fn exchange_to_quiescence(
    props: &mut [Propagator<'_>],
    maps: &mut [ShardMap],
    routes: &[(QuantityId, Vec<usize>)],
) -> usize {
    let metrics = flames_obs::metrics();
    let mut steps = 0usize;
    for _ in 0..MAX_EXCHANGE_ROUNDS {
        for prop in props.iter_mut() {
            steps += prop.run();
            metrics.shard_waves.incr();
        }
        let mut changed = false;
        // Boundary value entries: ascending quantity, ascending source
        // shard, source entry order, ascending target shard. Re-exported
        // entries are dominance-rejected by the target's store, so this
        // re-delivery is idempotent.
        for (q, hosting) in routes {
            for &src in hosting {
                let entries = props[src]
                    .entries(*q)
                    .expect("boundary quantities exist in every shard network");
                for entry in &entries {
                    let global_env = maps[src].globalize(&entry.env);
                    for &dst in hosting {
                        if dst == src {
                            continue;
                        }
                        let local = localize_into(&mut maps[dst], &mut props[dst], &global_env);
                        let inserted = props[dst]
                            .insert_external(*q, entry.value, local, entry.degree, entry.measured)
                            .expect("boundary quantity ids are global");
                        if inserted {
                            changed = true;
                            metrics.shard_boundary_envs.incr();
                        }
                    }
                }
            }
        }
        // Nogoods: globalize each shard's store, deliver everywhere
        // else. Duplicate deliveries are subsumed (no epoch change).
        let all: Vec<Vec<(Env, f64)>> = props
            .iter()
            .zip(maps.iter())
            .map(|(p, m)| {
                p.atms()
                    .nogoods()
                    .iter()
                    .map(|n| (m.globalize(&n.env), n.degree))
                    .collect()
            })
            .collect();
        for (src, batch) in all.iter().enumerate() {
            for (env, degree) in batch {
                for dst in 0..props.len() {
                    if dst == src {
                        continue;
                    }
                    let before = props[dst].atms().nogood_epoch();
                    let local = localize_into(&mut maps[dst], &mut props[dst], env);
                    props[dst].add_nogood(&local, *degree);
                    if props[dst].atms().nogood_epoch() != before {
                        changed = true;
                        metrics.shard_cross_nogoods.incr();
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    steps
}

/// One diagnosis run of a (possibly faulty) board against a
/// [`ShardedModel`].
#[derive(Debug)]
pub struct ShardedSession<'m> {
    model: &'m ShardedModel,
    props: Vec<Propagator<'m>>,
    maps: Vec<ShardMap>,
    measured: Vec<Option<FuzzyInterval>>,
}

impl ShardedSession<'_> {
    /// Clears the per-board state and restores every shard's base state
    /// (and base renaming). A reset session reports byte-identically to
    /// a freshly opened one.
    pub fn reset(&mut self) {
        flames_obs::metrics().session_resets.incr();
        for (prop, base) in self.props.iter_mut().zip(&self.model.base_states) {
            prop.restore_state(base);
        }
        for (map, base) in self.maps.iter_mut().zip(&self.model.base_maps) {
            map.clone_from(base);
        }
        for m in &mut self.measured {
            *m = None;
        }
    }

    /// Records a measurement at a test point, by name.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] for an unknown point.
    pub fn measure(&mut self, point: &str, value: FuzzyInterval) -> Result<()> {
        let idx = self
            .model
            .test_points
            .iter()
            .position(|tp| tp.name == point)
            .ok_or_else(|| crate::CoreError::UnknownName {
                name: point.to_owned(),
            })?;
        self.measure_point(idx, value)
    }

    /// Records a measurement at a test point, by index — delivered to
    /// every shard hosting the point's quantity (measurements carry the
    /// empty environment, so no renaming is involved).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] for an out-of-range
    /// index.
    pub fn measure_point(&mut self, idx: usize, value: FuzzyInterval) -> Result<()> {
        if idx >= self.model.test_points.len() {
            return Err(crate::CoreError::UnknownName {
                name: format!("test point #{idx}"),
            });
        }
        let q = self.model.point_quantities[idx];
        for &s in &self.model.point_shards[idx] {
            self.props[s].observe(q, value)?;
        }
        self.measured[idx] = Some(value);
        Ok(())
    }

    /// Runs partitioned propagation to joint quiescence: local waves per
    /// shard, boundary-entry and nogood exchange between rounds. Returns
    /// the total number of constraint applications across shards.
    pub fn propagate(&mut self) -> usize {
        exchange_to_quiescence(&mut self.props, &mut self.maps, &self.model.routes)
    }

    /// The merged, globally renamed nogood store (Pareto-minimal).
    #[must_use]
    pub fn merged_nogoods(&self) -> FuzzyAtms {
        let mut merged = FuzzyAtms::new();
        for (prop, map) in self.props.iter().zip(&self.maps) {
            for n in prop.atms().nogoods() {
                merged.add_nogood(&map.globalize(&n.env), n.degree);
            }
        }
        merged
    }

    /// Builds the merged diagnosis snapshot.
    #[must_use]
    pub fn report(&self) -> ShardReport {
        let model = self.model;
        // Grade every measured point in one batch through the 4-wide Dc
        // kernel (tail pairs take the identical splatted lane math), the
        // same grading as the flat engine's report.
        let mut vms = Vec::with_capacity(self.measured.len());
        let mut vns = Vec::with_capacity(self.measured.len());
        for (idx, m) in self.measured.iter().enumerate() {
            if let Some(m) = m {
                vms.push(*m);
                vns.push(model.predictions[idx]);
            }
        }
        let mut dcs = Vec::new();
        Consistency::between_batch(&vms, &vns, &mut dcs);
        let mut graded = dcs.iter().copied();
        let points = model
            .test_points
            .iter()
            .enumerate()
            .map(|(idx, tp)| PointReport {
                name: tp.name.clone(),
                predicted: model.predictions[idx],
                measured: self.measured[idx],
                consistency: self.measured[idx]
                    .map(|_| graded.next().expect("one grade per measured point")),
            })
            .collect();
        let merged = self.merged_nogoods();
        let pool = model.global.pool();
        let nogoods = merged
            .sorted_nogoods()
            .into_iter()
            .map(|n| (pool.render(n.env.iter()), n.degree))
            .collect();
        let candidates = merged
            .ranked_diagnoses(3, 64)
            .into_iter()
            .map(|RankedDiagnosis { env, degree }| Candidate {
                members: env
                    .iter()
                    .map(|a| pool.name(a).unwrap_or("?").to_owned())
                    .collect(),
                env,
                degree,
            })
            .collect();
        ShardReport {
            points,
            nogoods,
            candidates,
        }
    }

    /// The model this session runs against.
    #[must_use]
    pub fn model(&self) -> &ShardedModel {
        self.model
    }

    /// Per-shard propagators (labels, coincidences, local ATMS stores).
    #[must_use]
    pub fn shard_propagators(&self) -> &[Propagator<'_>] {
        &self.props
    }
}
