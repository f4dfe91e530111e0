//! User requests `u_h = {M_h, E_h}`.
//!
//! Each request is a directed *chain* of microservices (the paper models
//! requests as chains reflecting typical processing workflows). A request
//! carries the data volume uploaded by the user (`r_in`), the per-dependency
//! data flows (`r_{m_i → m_j}` for each edge of `E_h`) and the result volume
//! returned to the user (`r_out`).

use crate::service::ServiceId;
use socl_net::NodeId;

/// Dense identifier of a user request (`u_h` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(clippy::disallowed_methods, reason = "derived over integer fields")]
pub struct UserId(pub u32);

impl UserId {
    /// Index into per-user vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// One user request `u_h`: a chain of microservices plus data volumes.
#[derive(Debug, Clone, PartialEq)]
pub struct UserRequest {
    /// Identifier.
    pub id: UserId,
    /// The edge server the user is associated with — `f(u_h)`, i.e. the node
    /// whose coverage area the user currently sits in (`u_h ∈ U_k`).
    pub location: NodeId,
    /// The microservice chain `M_h`, in invocation order. Never empty;
    /// services may repeat across different requests but not within a chain.
    pub chain: Vec<ServiceId>,
    /// Data flow `r_{m_i → m_j}` (GB) for each consecutive pair of the chain;
    /// `edge_data.len() == chain.len() - 1`.
    pub edge_data: Vec<f64>,
    /// Upload volume `r_in^h` (GB) from the user to the first service host.
    pub r_in: f64,
    /// Result volume `r_out^h` (GB) returned from the last service host.
    pub r_out: f64,
    /// Per-request completion-time tolerance `𝒟_h^max` (seconds).
    pub d_max: f64,
}

impl UserRequest {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics when the chain is empty, contains duplicates, or `edge_data`
    /// has the wrong length.
    pub fn new(
        id: UserId,
        location: NodeId,
        chain: Vec<ServiceId>,
        edge_data: Vec<f64>,
        r_in: f64,
        r_out: f64,
        d_max: f64,
    ) -> Self {
        assert!(!chain.is_empty(), "request {id} has an empty chain");
        assert_eq!(
            edge_data.len(),
            chain.len() - 1,
            "request {id}: edge_data must have chain.len()-1 entries"
        );
        assert!(
            chain
                .iter()
                .enumerate()
                .all(|(i, m)| !chain[..i].contains(m)),
            "request {id}: chain repeats a microservice"
        );
        Self {
            id,
            location,
            chain,
            edge_data,
            r_in,
            r_out,
            d_max,
        }
    }

    /// Chain length `|M_h|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// Always false (chains are non-empty by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first microservice of the chain.
    #[inline]
    pub fn first_service(&self) -> ServiceId {
        self.chain[0]
    }

    /// The last microservice of the chain.
    #[inline]
    #[expect(
        clippy::unwrap_used,
        reason = "`UserRequest::new` asserts the chain is non-empty, so `last()` cannot fail on a constructed request"
    )]
    pub fn last_service(&self) -> ServiceId {
        *self.chain.last().unwrap()
    }

    /// True if the chain invokes `m`.
    pub fn uses(&self, m: ServiceId) -> bool {
        self.chain.contains(&m)
    }

    /// Position of `m` within the chain, if invoked.
    pub fn position_of(&self, m: ServiceId) -> Option<usize> {
        self.chain.iter().position(|&s| s == m)
    }

    /// The dependency edges `E_h` as `(from, to, data)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (ServiceId, ServiceId, f64)> + '_ {
        self.chain
            .windows(2)
            .zip(&self.edge_data)
            .map(|(w, &r)| (w[0], w[1], r))
    }

    /// True if `a` and `b` are *dependency-conflicted* for this request:
    /// the chain contains the directed edge `a → b` or `b → a`
    /// (used by Algorithm 3's parallel-combination filter).
    pub fn dependency_conflicted(&self, a: ServiceId, b: ServiceId) -> bool {
        self.chain
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
    }
}

/// Parameters for random request generation (ranges follow Section V.A).
#[derive(Debug, Clone)]
pub struct RequestConfig {
    /// Chain length range (inclusive). The dataset may cap the upper end.
    pub chain_len: (usize, usize),
    /// Per-edge data flow range in GB.
    pub edge_data: (f64, f64),
    /// Upload volume range in GB.
    pub r_in: (f64, f64),
    /// Result volume range in GB.
    pub r_out: (f64, f64),
    /// Completion-time tolerance `𝒟_h^max` in seconds.
    pub d_max: f64,
}

impl Default for RequestConfig {
    fn default() -> Self {
        Self {
            chain_len: (3, 8),
            edge_data: (0.2, 1.0),
            r_in: (0.1, 0.5),
            r_out: (0.05, 0.25),
            d_max: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> UserRequest {
        UserRequest::new(
            UserId(0),
            NodeId(2),
            vec![ServiceId(0), ServiceId(1), ServiceId(2)],
            vec![1.0, 2.0],
            0.5,
            0.25,
            10.0,
        )
    }

    #[test]
    fn edges_pair_chain_with_data() {
        let r = req();
        let edges: Vec<_> = r.edges().collect();
        assert_eq!(
            edges,
            vec![
                (ServiceId(0), ServiceId(1), 1.0),
                (ServiceId(1), ServiceId(2), 2.0)
            ]
        );
    }

    #[test]
    fn first_last_positions() {
        let r = req();
        assert_eq!(r.first_service(), ServiceId(0));
        assert_eq!(r.last_service(), ServiceId(2));
        assert_eq!(r.position_of(ServiceId(1)), Some(1));
        assert_eq!(r.position_of(ServiceId(9)), None);
        assert!(r.uses(ServiceId(2)));
        assert!(!r.uses(ServiceId(3)));
    }

    #[test]
    fn dependency_conflicts_are_adjacent_pairs_only() {
        let r = req();
        assert!(r.dependency_conflicted(ServiceId(0), ServiceId(1)));
        assert!(r.dependency_conflicted(ServiceId(2), ServiceId(1)));
        assert!(!r.dependency_conflicted(ServiceId(0), ServiceId(2)));
    }

    #[test]
    #[should_panic(expected = "empty chain")]
    fn empty_chain_rejected() {
        UserRequest::new(UserId(0), NodeId(0), vec![], vec![], 0.1, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "edge_data")]
    fn wrong_edge_data_len_rejected() {
        UserRequest::new(
            UserId(0),
            NodeId(0),
            vec![ServiceId(0), ServiceId(1)],
            vec![],
            0.1,
            0.1,
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn duplicate_service_rejected() {
        UserRequest::new(
            UserId(0),
            NodeId(0),
            vec![ServiceId(0), ServiceId(0)],
            vec![1.0],
            0.1,
            0.1,
            1.0,
        );
    }

    #[test]
    fn singleton_chain_is_valid() {
        let r = UserRequest::new(
            UserId(7),
            NodeId(1),
            vec![ServiceId(4)],
            vec![],
            0.1,
            0.1,
            1.0,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.first_service(), r.last_service());
        assert_eq!(r.edges().count(), 0);
    }
}
