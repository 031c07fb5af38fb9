//! DIANA-style crisp propagation and conflict recognition.
//!
//! The baseline engine mirrors the fuzzy propagator of `flames-core`, but
//! values are plain intervals and conflicts are **boolean**: a coincidence
//! either has a non-empty intersection (consistent — no matter how thin
//! the overlap) or an empty one (a nogood with no degree). This is the
//! behaviour the FLAMES paper demonstrates against in §4.2: slight
//! parametric faults whose effects stay inside the propagated interval
//! walls are silently masked.

use crate::interval::Interval;
use flames_atms::{Assumption, AssumptionPool, Atms, Env};
use flames_circuit::compile::{CompiledNetwork, CompiledRelation};
use flames_circuit::constraint::{Network, QuantityId};
use flames_circuit::{Net, Netlist};
use std::collections::VecDeque;

/// A crisp value for a quantity with its assumption environment.
#[derive(Debug, Clone, PartialEq)]
pub struct CrispEntry {
    /// The interval value.
    pub value: Interval,
    /// Assumptions the derivation rests on.
    pub env: Env,
}

/// Tuning knobs of the crisp engine (a subset of the fuzzy engine's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrispConfig {
    /// Maximum value entries kept per quantity.
    pub max_entries: usize,
    /// Minimum relative width tightening for a refined value to count.
    pub min_tightening: f64,
    /// Upper bound on constraint applications per [`CrispPropagator::run`].
    pub max_steps: usize,
}

impl Default for CrispConfig {
    fn default() -> Self {
        Self {
            max_entries: 8,
            min_tightening: 0.01,
            max_steps: 20_000,
        }
    }
}

/// The crisp (DIANA-style) propagation engine.
///
/// # Example
///
/// ```
/// use flames_circuit::constraint::{extract, ExtractOptions};
/// use flames_circuit::{Net, Netlist};
/// use flames_crisp::{CrispConfig, CrispPropagator, Interval};
///
/// # fn main() {
/// let mut nl = Netlist::new();
/// let vin = nl.add_net("vin");
/// let mid = nl.add_net("mid");
/// nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
/// nl.add_resistor("R1", vin, mid, 1000.0, 0.05).unwrap();
/// nl.add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05).unwrap();
/// let network = extract(&nl, ExtractOptions::default());
/// let mut prop = CrispPropagator::new(&nl, &network, CrispConfig::default());
/// // A mildly shifted reading stays inside the interval walls: masked.
/// prop.observe(network.voltage_quantity(mid), Interval::new(5.2, 5.3));
/// prop.run();
/// assert!(prop.atms().nogoods().is_empty());
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrispPropagator<'n> {
    network: &'n Network,
    config: CrispConfig,
    entries: Vec<Vec<CrispEntry>>,
    atms: Atms,
    pool: AssumptionPool,
    comp_assumptions: Vec<Assumption>,
    conn_assumptions: Vec<Option<Assumption>>,
    conflicts: usize,
    /// Per-constraint support environment, built once at construction.
    constraint_envs: Vec<Env>,
    /// The compiled application schedule (inversion directions, fanout
    /// adjacency, connection-net order) — the same schedule the fuzzy
    /// engine runs on, so the two baselines cannot drift apart.
    compiled: CompiledNetwork,
}

impl<'n> CrispPropagator<'n> {
    /// Builds the engine over an extracted network, flattening every
    /// fuzzy seed to its support interval.
    #[must_use]
    pub fn new(netlist: &Netlist, network: &'n Network, config: CrispConfig) -> Self {
        let compiled = CompiledNetwork::compile(network);
        let mut atms = Atms::new();
        let mut pool = AssumptionPool::new();
        let mut comp_assumptions = Vec::with_capacity(netlist.component_count());
        for (_, comp) in netlist.components() {
            let a = atms.add_assumption(comp.name());
            // The intern must run in release builds too — the pool is what
            // names every env in reports.
            let interned = pool.intern(comp.name());
            debug_assert_eq!(a, interned);
            comp_assumptions.push(a);
        }
        let mut conn_assumptions = vec![None; netlist.net_count()];
        for &net in compiled.conn_nets() {
            let name = format!("conn:{}", netlist.net_name(net));
            let a = atms.add_assumption(&name);
            let interned = pool.intern(&name);
            debug_assert_eq!(a, interned);
            conn_assumptions[net.index()] = Some(a);
        }
        let constraint_envs: Vec<Env> = network
            .constraints()
            .iter()
            .map(|c| {
                let mut env =
                    Env::from_assumptions(c.support.iter().map(|s| comp_assumptions[s.index()]));
                if let Some(net) = c.conn {
                    if let Some(a) = conn_assumptions[net.index()] {
                        env = env.with(a);
                    }
                }
                env
            })
            .collect();
        let mut prop = Self {
            network,
            config,
            entries: vec![Vec::new(); network.quantity_count()],
            atms,
            pool,
            comp_assumptions,
            conn_assumptions,
            conflicts: 0,
            constraint_envs,
            compiled,
        };
        for seed in network.seeds() {
            let env = Env::from_assumptions(
                seed.support
                    .iter()
                    .map(|c| prop.comp_assumptions[c.index()]),
            );
            prop.insert(seed.quantity, Interval::from(seed.value), env);
        }
        prop
    }

    /// The classic ATMS holding the (boolean) nogoods.
    #[must_use]
    pub fn atms(&self) -> &Atms {
        &self.atms
    }

    /// The assumption vocabulary.
    #[must_use]
    pub fn pool(&self) -> &AssumptionPool {
        &self.pool
    }

    /// The assumption standing for a component (by netlist index).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range component index.
    #[must_use]
    pub fn component_assumption(&self, comp_index: usize) -> Assumption {
        self.comp_assumptions[comp_index]
    }

    /// The connection assumption of a net, when it has a Kirchhoff
    /// constraint.
    #[must_use]
    pub fn connection_assumption(&self, net: Net) -> Option<Assumption> {
        self.conn_assumptions.get(net.index()).copied().flatten()
    }

    /// Number of empty-intersection conflicts detected so far.
    #[must_use]
    pub fn conflict_count(&self) -> usize {
        self.conflicts
    }

    /// Current value entries of a quantity (empty slice for foreign ids).
    #[must_use]
    pub fn entries(&self, q: QuantityId) -> &[CrispEntry] {
        self.entries.get(q.index()).map_or(&[], Vec::as_slice)
    }

    /// The tightest value of a quantity, if any.
    #[must_use]
    pub fn best_value(&self, q: QuantityId) -> Option<&CrispEntry> {
        self.entries
            .get(q.index())?
            .iter()
            .min_by(|a, b| a.value.width().total_cmp(&b.value.width()))
    }

    /// Enters a measurement (premise environment).
    pub fn observe(&mut self, q: QuantityId, value: Interval) {
        if q.index() < self.entries.len() {
            self.insert(q, value, Env::empty());
        }
    }

    /// Enters a predicted value under component-correctness assumptions.
    pub fn predict(&mut self, q: QuantityId, value: Interval, support: &[flames_circuit::CompId]) {
        if q.index() < self.entries.len() {
            let env =
                Env::from_assumptions(support.iter().map(|c| self.comp_assumptions[c.index()]));
            self.insert(q, value, env);
        }
    }

    /// Candidate diagnoses: minimal hitting sets of the boolean nogoods
    /// (all tied at full strength — the baseline cannot rank them).
    #[must_use]
    pub fn candidates(&self, max_size: usize, max_count: usize) -> Vec<Env> {
        flames_atms::hitting::minimal_hitting_sets(self.atms.nogoods(), max_size, max_count)
            .into_iter()
            .filter(|env| !env.is_empty())
            .collect()
    }

    /// Runs propagation to quiescence; returns the number of constraint
    /// applications. Spec conditions are checked crisply: only a value
    /// entirely outside the condition's support raises a nogood.
    pub fn run(&mut self) -> usize {
        let mut steps = 0usize;
        let n = self.compiled.constraint_count();
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut queued: Vec<bool> = vec![true; n];
        let mut wake: Vec<u32> = Vec::new();
        while let Some(ci) = queue.pop_front() {
            queued[ci] = false;
            if steps >= self.config.max_steps {
                break;
            }
            steps += 1;
            let changed = self.apply_constraint(ci);
            if !changed.is_empty() {
                // Requeue exactly the consumers of the changed quantities,
                // in constraint-index order (matching a full rescan).
                wake.clear();
                for &qi in &changed {
                    wake.extend_from_slice(&self.compiled.consumers()[qi]);
                }
                wake.sort_unstable();
                wake.dedup();
                for &cj in &wake {
                    let cj = cj as usize;
                    if !queued[cj] {
                        queue.push_back(cj);
                        queued[cj] = true;
                    }
                }
            }
        }
        self.check_specs();
        steps
    }

    // ----- internals -------------------------------------------------

    fn apply_constraint(&mut self, ci: usize) -> Vec<usize> {
        // Disjoint field borrows: the compiled schedule and cached
        // environments are read while the label stores, the ATMS, and the
        // conflict counter mutate.
        let Self {
            ref compiled,
            ref constraint_envs,
            ref mut entries,
            ref mut atms,
            ref mut conflicts,
            config,
            ..
        } = *self;
        let base_env = &constraint_envs[ci];
        let mut changed = Vec::new();
        match *compiled.relation(ci) {
            CompiledRelation::Linear {
                bias,
                ref directions,
            } => {
                let mut derived: Vec<(Interval, Env)> = Vec::new();
                for dir in directions {
                    derived.clear();
                    {
                        let out = &mut derived;
                        Self::each_combo(entries, &dir.quantities, |row| {
                            let mut sum = Interval::point(bias);
                            let mut env = base_env.clone();
                            for (&(coef, _), entry) in dir.others.iter().zip(row) {
                                sum = sum + entry.value.scaled(coef);
                                env.union_with(&entry.env);
                            }
                            out.push((sum.scaled(dir.neg_inv_coef), env));
                        });
                    }
                    for (value, env) in derived.drain(..) {
                        if Self::insert_entry(
                            entries, atms, conflicts, config, dir.target, value, env,
                        ) {
                            changed.push(dir.target.index());
                        }
                    }
                }
            }
            CompiledRelation::Product { p, x, y } => {
                // p = x · y, x = p / y and y = p / x.
                let mut derive =
                    |target: QuantityId,
                     a: QuantityId,
                     b: QuantityId,
                     op: &dyn Fn(Interval, Interval) -> Option<Interval>| {
                        let mut derived: Vec<(Interval, Env)> = Vec::new();
                        Self::each_combo(entries, &[a, b], |row| {
                            if let Some(value) = op(row[0].value, row[1].value) {
                                let mut env = base_env.clone();
                                env.union_with(&row[0].env);
                                env.union_with(&row[1].env);
                                derived.push((value, env));
                            }
                        });
                        for (value, env) in derived {
                            if Self::insert_entry(
                                entries, atms, conflicts, config, target, value, env,
                            ) {
                                changed.push(target.index());
                            }
                        }
                    };
                derive(p, x, y, &|a, b| Some(a.mul(b)));
                derive(x, p, y, &|a, b| a.div(b));
                derive(y, p, x, &|a, b| a.div(b));
            }
        }
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// Invokes `f` on each cartesian combination of the current entries of
    /// `qs` — by reference, no entry cloning. Combinations enumerate in
    /// lexicographic order with the last quantity varying fastest, capped
    /// at `COMBO_CAP` rows. With `qs` empty, `f` sees one empty row.
    fn each_combo<'s>(
        entries: &'s [Vec<CrispEntry>],
        qs: &[QuantityId],
        mut f: impl FnMut(&[&'s CrispEntry]),
    ) {
        const COMBO_CAP: usize = 64;
        let lists: Vec<&[CrispEntry]> = qs.iter().map(|q| entries[q.index()].as_slice()).collect();
        if lists.iter().any(|l| l.is_empty()) {
            return;
        }
        let mut idx = vec![0usize; lists.len()];
        let mut row: Vec<&CrispEntry> = lists.iter().map(|l| &l[0]).collect();
        for _ in 0..COMBO_CAP {
            f(&row);
            // Odometer increment, last position fastest.
            let mut k = lists.len();
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < lists[k].len() {
                    row[k] = &lists[k][idx[k]];
                    break;
                }
                idx[k] = 0;
                row[k] = &lists[k][0];
            }
        }
    }

    fn insert(&mut self, q: QuantityId, value: Interval, env: Env) -> bool {
        Self::insert_entry(
            &mut self.entries,
            &mut self.atms,
            &mut self.conflicts,
            self.config,
            q,
            value,
            env,
        )
    }

    fn insert_entry(
        entries: &mut [Vec<CrispEntry>],
        atms: &mut Atms,
        conflicts: &mut usize,
        config: CrispConfig,
        q: QuantityId,
        value: Interval,
        env: Env,
    ) -> bool {
        if !atms.is_consistent(&env) {
            return false;
        }
        let incoming = CrispEntry { value, env };
        let list = &entries[q.index()];
        let mut dominated = false;
        for existing in list {
            if existing.value.intersect(incoming.value).is_none() {
                // Boolean conflict: the union of the environments is a
                // (degree-less) nogood.
                *conflicts += 1;
                atms.add_nogood(incoming.env.union(&existing.env));
            }
            if existing.env.is_subset_of(&incoming.env) {
                let meaningful = incoming.value.width()
                    <= existing.value.width() * (1.0 - config.min_tightening);
                if existing.value.is_subset_of(incoming.value)
                    || (!meaningful && incoming.value.is_subset_of(existing.value))
                {
                    dominated = true;
                }
            }
        }
        if dominated {
            return false;
        }
        let min_tightening = config.min_tightening;
        let list = &mut entries[q.index()];
        let before = list.len();
        list.retain(|e| {
            !(incoming.env.is_subset_of(&e.env)
                && incoming.value.is_subset_of(e.value)
                && incoming.value.width() <= e.value.width() * (1.0 - min_tightening))
        });
        let dropped = before - list.len();
        if list.len() >= config.max_entries {
            // The label is full: the incoming value may still replace
            // the widest held entry if it is strictly tighter — the same
            // policy as the fuzzy engine, and for the same reason: the
            // cap must not make results order-dependent (a late probe or
            // a tight conditional derivation must never bounce off stale
            // wide values).
            let widest = list
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.value.width().total_cmp(&b.value.width()))
                .map(|(i, e)| (i, e.value.width()));
            match widest {
                Some((i, width)) if incoming.value.width() < width => {
                    list[i] = incoming;
                    return true;
                }
                _ => return dropped > 0,
            }
        }
        list.push(incoming);
        true
    }

    /// Crisp spec checking: a nogood only when the derived value lies
    /// fully outside the condition's support.
    fn check_specs(&mut self) {
        let network = self.network;
        for spec in network.specs() {
            let Some(best) = self.best_value(spec.quantity) else {
                continue;
            };
            let cond = Interval::from(spec.condition);
            if best.value.intersect(cond).is_none() {
                let mut env = best.env.clone();
                env.union_with(&Env::from_assumptions(
                    spec.support
                        .iter()
                        .map(|c| self.comp_assumptions[c.index()]),
                ));
                self.conflicts += 1;
                self.atms.add_nogood(env);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flames_circuit::constraint::{extract, ExtractOptions};

    fn divider(tol: f64) -> (Netlist, Network) {
        let mut nl = Netlist::new();
        let vin = nl.add_net("vin");
        let mid = nl.add_net("mid");
        nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
        nl.add_resistor("R1", vin, mid, 1000.0, tol).unwrap();
        nl.add_resistor("R2", mid, Net::GROUND, 1000.0, tol)
            .unwrap();
        let network = extract(&nl, ExtractOptions::default());
        (nl, network)
    }

    #[test]
    fn healthy_reading_is_consistent() {
        let (nl, network) = divider(0.05);
        let mut prop = CrispPropagator::new(&nl, &network, CrispConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        prop.observe(network.voltage_quantity(mid), Interval::new(4.95, 5.05));
        prop.run();
        assert!(prop.atms().nogoods().is_empty());
        assert_eq!(prop.conflict_count(), 0);
        assert!(prop.candidates(2, 16).is_empty());
    }

    #[test]
    fn soft_fault_is_masked() {
        // The paper's §4.2 point: a slight deviation that stays inside the
        // crisp interval walls raises NO conflict.
        let (nl, network) = divider(0.05);
        let mut prop = CrispPropagator::new(&nl, &network, CrispConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        // True value 5.0; reading 5.2 (a ~4 % divider drift). Every crisp
        // derivation keeps a non-empty intersection (the resistor ratio
        // 0.923 sits inside the tolerance box [0.905, 1.105]), so the
        // baseline reports a healthy board. The fuzzy engine grades this
        // same reading as a partial conflict (see flames-core tests).
        prop.observe(network.voltage_quantity(mid), Interval::new(5.15, 5.25));
        prop.run();
        assert!(
            prop.atms().nogoods().is_empty(),
            "crisp engine masks the soft fault"
        );
    }

    #[test]
    fn hard_fault_is_detected() {
        let (nl, network) = divider(0.05);
        let mut prop = CrispPropagator::new(&nl, &network, CrispConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        prop.observe(network.voltage_quantity(mid), Interval::new(8.0, 8.1));
        prop.run();
        assert!(!prop.atms().nogoods().is_empty());
        let candidates = prop.candidates(2, 32);
        assert!(!candidates.is_empty());
        let r1 = prop.component_assumption(nl.component_by_name("R1").unwrap().index());
        let r2 = prop.component_assumption(nl.component_by_name("R2").unwrap().index());
        assert!(candidates
            .iter()
            .any(|env| env.contains(r1) || env.contains(r2)));
    }

    #[test]
    fn seeds_flatten_to_supports() {
        let (nl, network) = divider(0.05);
        let prop = CrispPropagator::new(&nl, &network, CrispConfig::default());
        let r1 = nl.component_by_name("R1").unwrap();
        let rq = network
            .find(flames_circuit::constraint::QuantityKind::Param(r1))
            .unwrap();
        let entry = &prop.entries(rq)[0];
        assert_eq!(entry.value, Interval::new(950.0, 1050.0));
    }

    #[test]
    fn connection_assumptions_exist() {
        let (nl, network) = divider(0.05);
        let prop = CrispPropagator::new(&nl, &network, CrispConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        assert!(prop.connection_assumption(mid).is_some());
        assert!(prop.connection_assumption(Net::GROUND).is_none());
        assert!(prop.pool().len() >= 3);
    }

    #[test]
    fn best_value_prefers_tightest() {
        let (nl, network) = divider(0.05);
        let mut prop = CrispPropagator::new(&nl, &network, CrispConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        let q = network.voltage_quantity(mid);
        prop.observe(q, Interval::new(4.0, 6.0));
        prop.observe(q, Interval::new(4.9, 5.1));
        let best = prop.best_value(q).unwrap();
        assert_eq!(best.value, Interval::new(4.9, 5.1));
        // Foreign ids yield empty entry lists, not panics.
        let foreign = flames_circuit::constraint::QuantityId::from_raw(9999);
        assert!(prop.entries(foreign).is_empty());
        assert!(prop.best_value(foreign).is_none());
    }

    /// Finite bounds never make a NaN width; the widest one is `inf`.
    #[test]
    fn infinite_widths_order_in_full_labels_and_best_value() {
        let (nl, network) = divider(0.05);
        let config = CrispConfig {
            max_entries: 2,
            ..CrispConfig::default()
        };
        let mut prop = CrispPropagator::new(&nl, &network, config);
        let q = network.voltage_quantity(nl.net_by_name("mid").unwrap());
        let r1 = nl.component_by_name("R1").unwrap();
        let r2 = nl.component_by_name("R2").unwrap();
        prop.predict(q, Interval::new(-f64::MAX, f64::MAX), &[r1]);
        prop.predict(q, Interval::new(-f64::MAX / 2.0, f64::MAX), &[r2]);
        assert!(prop
            .entries(q)
            .iter()
            .all(|e| e.value.width().is_infinite()));
        prop.predict(q, Interval::new(4.0, 6.0), &[r1, r2]);
        assert_eq!(prop.entries(q).len(), 2);
        assert_eq!(prop.best_value(q).unwrap().value, Interval::new(4.0, 6.0));
    }
}
