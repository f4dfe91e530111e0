//! Scenario and placement persistence (JSON snapshots).
//!
//! Experiments become shareable and replayable when the exact problem
//! instance can be written to disk: a [`ScenarioSnapshot`] captures the
//! substrate (servers + links), the catalog, the request set, and the
//! objective knobs; `restore` rebuilds the [`Scenario`] (recomputing the
//! path cache). [`PlacementSnapshot`] does the same for a deployment
//! decision, so a solver run on machine A can be evaluated on machine B.
//!
//! The documents are plain JSON, read and written by the private `json`
//! module: objects carry the struct fields by name in declaration order, id
//! newtypes are bare numbers, tuples are arrays, and every `f64` is printed
//! in its shortest form that parses back to the same bits.

mod json;

use crate::placement::Placement;
use crate::request::{UserId, UserRequest};
use crate::scenario::Scenario;
use crate::service::{Microservice, ServiceCatalog, ServiceId};
use json::{json_id, json_struct, Fields, FromJson, Json, ToJson};
use socl_net::{AllPairs, EdgeNetwork, EdgeServer, LinkParams, NodeId};

json_id!(NodeId, ServiceId, UserId);
json_struct!(EdgeServer: compute_gflops, storage_units, position);
json_struct!(LinkParams: bandwidth, tx_power, channel_gain, noise);
json_struct!(Microservice: name, deploy_cost, storage, compute_gflop);
json_struct!(UserRequest: id, location, chain, edge_data, r_in, r_out, d_max);
json_struct!(
    ScenarioSnapshot: version, servers, links, catalog, requests, lambda, budget, latency_scale,
    cloud_penalty
);
json_struct!(PlacementSnapshot: services, nodes, deployed);

/// A self-contained, serializable problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    pub servers: Vec<EdgeServer>,
    /// `(a, b, params)` per undirected link.
    pub links: Vec<(u32, u32, LinkParams)>,
    pub catalog: Vec<Microservice>,
    pub requests: Vec<UserRequest>,
    pub lambda: f64,
    pub budget: f64,
    pub latency_scale: f64,
    pub cloud_penalty: f64,
}

impl ScenarioSnapshot {
    /// Capture a scenario.
    pub fn capture(sc: &Scenario) -> Self {
        Self {
            version: 1,
            servers: sc
                .net
                .node_ids()
                .map(|k| sc.net.server(k).clone())
                .collect(),
            links: sc
                .net
                .links()
                .iter()
                .map(|l| (l.a.0, l.b.0, l.params))
                .collect(),
            catalog: sc
                .catalog
                .ids()
                .map(|m| sc.catalog.get(m).clone())
                .collect(),
            requests: sc.requests.clone(),
            lambda: sc.lambda,
            budget: sc.budget,
            latency_scale: sc.latency_scale,
            cloud_penalty: sc.cloud_penalty,
        }
    }

    /// Rebuild the scenario (recomputes the all-pairs cache).
    ///
    /// # Errors
    /// Returns a message when the snapshot references out-of-range nodes or
    /// services, or uses an unknown format version.
    pub fn restore(&self) -> Result<Scenario, String> {
        if self.version != 1 {
            return Err(format!("unsupported snapshot version {}", self.version));
        }
        let mut net = EdgeNetwork::new();
        for s in &self.servers {
            net.push_server(s.clone());
        }
        let n = net.node_count() as u32;
        for &(a, b, params) in &self.links {
            if a >= n || b >= n || a == b {
                return Err(format!("invalid link ({a}, {b})"));
            }
            net.add_link(NodeId(a), NodeId(b), params);
        }
        let catalog = ServiceCatalog::from_services(self.catalog.clone());
        for r in &self.requests {
            if r.location.0 >= n {
                return Err(format!("request {} located off-net", r.id));
            }
            for &m in &r.chain {
                if m.idx() >= catalog.len() {
                    return Err(format!("request {} uses unknown service {m}", r.id));
                }
            }
        }
        let ap = AllPairs::build(&net);
        Ok(Scenario {
            net,
            ap,
            catalog,
            requests: self.requests.clone(),
            lambda: self.lambda,
            budget: self.budget,
            latency_scale: self.latency_scale,
            cloud_penalty: self.cloud_penalty,
        })
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        json::render(&self.to_value())
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    /// A message naming the offending byte or field when `json` is not a
    /// well-formed snapshot document.
    pub fn from_json(json: &str) -> Result<Self, String> {
        Self::from_value(json::parse(json)?)
    }
}

/// A serializable deployment decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSnapshot {
    pub services: usize,
    pub nodes: usize,
    /// Deployed `(service, node)` pairs.
    pub deployed: Vec<(u32, u32)>,
}

impl PlacementSnapshot {
    /// Capture a placement.
    pub fn capture(p: &Placement) -> Self {
        Self {
            services: p.services(),
            nodes: p.nodes(),
            deployed: p.iter_deployed().map(|(m, k)| (m.0, k.0)).collect(),
        }
    }

    /// Rebuild the placement.
    ///
    /// # Errors
    /// Returns a message on out-of-range pairs.
    pub fn restore(&self) -> Result<Placement, String> {
        let mut p = Placement::empty(self.services, self.nodes);
        for &(m, k) in &self.deployed {
            if m as usize >= self.services || k as usize >= self.nodes {
                return Err(format!("deployed pair ({m}, {k}) out of range"));
            }
            p.set(ServiceId(m), NodeId(k), true);
        }
        Ok(p)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        json::render(&self.to_value())
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    /// A message naming the offending byte or field when `json` is not a
    /// well-formed snapshot document.
    pub fn from_json(json: &str) -> Result<Self, String> {
        Self::from_value(json::parse(json)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::evaluate;
    use crate::scenario::ScenarioConfig;

    #[test]
    fn scenario_roundtrips_through_json() {
        let sc = ScenarioConfig::paper(8, 20).build(3);
        let snap = ScenarioSnapshot::capture(&sc);
        let json = snap.to_json();
        let back = ScenarioSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        let restored = back.restore().unwrap();
        assert_eq!(restored.nodes(), sc.nodes());
        assert_eq!(restored.users(), sc.users());
        assert_eq!(restored.requests, sc.requests);
        // The rebuilt path cache gives identical latency weights.
        for a in sc.net.node_ids() {
            for b in sc.net.node_ids() {
                assert!(
                    (sc.ap.latency_weight(a, b) - restored.ap.latency_weight(a, b)).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn evaluation_is_identical_after_restore() {
        let sc = ScenarioConfig::paper(8, 25).build(4);
        let p = Placement::full(sc.services(), sc.nodes());
        let before = evaluate(&sc, &p);
        let restored = ScenarioSnapshot::capture(&sc).restore().unwrap();
        let after = evaluate(&restored, &p);
        assert_eq!(before.objective, after.objective);
        assert_eq!(before.per_request, after.per_request);
    }

    #[test]
    fn placement_roundtrips() {
        let sc = ScenarioConfig::paper(6, 15).build(5);
        let mut p = Placement::empty(sc.services(), sc.nodes());
        p.set(ServiceId(2), NodeId(1), true);
        p.set(ServiceId(0), NodeId(5), true);
        let snap = PlacementSnapshot::capture(&p);
        let restored = PlacementSnapshot::from_json(&snap.to_json())
            .unwrap()
            .restore()
            .unwrap();
        assert_eq!(p, restored);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        assert!(ScenarioSnapshot::from_json("{not json").is_err());
        let sc = ScenarioConfig::paper(4, 5).build(6);
        let mut snap = ScenarioSnapshot::capture(&sc);
        snap.links
            .push((0, 99, socl_net::LinkParams::from_rate(1.0)));
        assert!(snap.restore().is_err());

        let mut psnap = PlacementSnapshot::capture(&Placement::empty(2, 2));
        psnap.deployed.push((5, 0));
        assert!(psnap.restore().is_err());
    }

    #[test]
    fn version_gate() {
        let sc = ScenarioConfig::paper(4, 5).build(7);
        let mut snap = ScenarioSnapshot::capture(&sc);
        snap.version = 99;
        assert!(snap.restore().is_err());
    }
}
