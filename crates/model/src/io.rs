//! Scenario and placement export (JSON snapshots).
//!
//! `socl export` prints the exact problem instance and, with `--solve`, the
//! decision made on it, so a run can be inspected or handed to other tools:
//! a [`ScenarioSnapshot`] records the substrate (servers + links), the
//! catalog, the request set and the objective knobs, and a
//! [`PlacementSnapshot`] the deployed `(service, node)` pairs. The program
//! writes these documents and never reads them back.
//!
//! The documents are plain JSON, written by the private `json` module:
//! objects carry the struct fields by name in declaration order, id newtypes
//! are bare numbers, tuples are arrays, and every `f64` is printed in its
//! shortest form that parses back to the same bits.

mod json;

use crate::placement::Placement;
use crate::request::{UserId, UserRequest};
use crate::scenario::Scenario;
use crate::service::{Microservice, ServiceId};
use json::{json_id, json_struct, Json, ToJson};
use socl_net::{EdgeServer, LinkParams, NodeId};

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
    /// Format version of the document (always 1).
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

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        json::render(&self.to_value())
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

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        json::render(&self.to_value())
    }
}
