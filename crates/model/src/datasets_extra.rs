//! Additional embedded dependency datasets.
//!
//! The curated "Microservices (Version 1.0)" dataset the paper samples from
//! contains 20 projects; eshopOnContainers is the one the paper evaluates.
//! Two more public reference architectures are embedded here so experiments
//! can check that conclusions are not an artifact of one dependency graph:
//!
//! * **Sock Shop** (Weaveworks' microservices demo) — 13 services, shallow
//!   fan-out topology: front-end aggregating carts/catalogue/orders/user,
//!   orders fanning into payment/shipping, shipping into queue-master.
//! * **Train Ticket** (Fudan's benchmark) — a 24-service subset of the
//!   41-service system, with the deep booking chain (preserve → seat →
//!   order → payment → notification) that stresses chain-aware routing.
//!
//! Both are DAGs validated at construction, with the same front-door
//! semantics as [`crate::dataset::EshopDataset`].

use crate::dataset::DependencyDataset;

/// The Sock Shop reference architecture.
pub struct SockShopDataset;

impl SockShopDataset {
    pub const FRONT_END: u32 = 0;
    pub const EDGE_ROUTER: u32 = 1;
    pub const CATALOGUE: u32 = 2;
    pub const CATALOGUE_DB: u32 = 3;
    pub const CARTS: u32 = 4;
    pub const CARTS_DB: u32 = 5;
    pub const ORDERS: u32 = 6;
    pub const ORDERS_DB: u32 = 7;
    pub const USER: u32 = 8;
    pub const USER_DB: u32 = 9;
    pub const PAYMENT: u32 = 10;
    pub const SHIPPING: u32 = 11;
    pub const QUEUE_MASTER: u32 = 12;

    /// Build the dataset.
    pub fn build() -> DependencyDataset {
        use SockShopDataset as S;
        let names = vec![
            "front-end",
            "edge-router",
            "catalogue",
            "catalogue-db",
            "carts",
            "carts-db",
            "orders",
            "orders-db",
            "user",
            "user-db",
            "payment",
            "shipping",
            "queue-master",
        ];
        let edges = vec![
            (S::EDGE_ROUTER, S::FRONT_END),
            (S::FRONT_END, S::CATALOGUE),
            (S::FRONT_END, S::CARTS),
            (S::FRONT_END, S::ORDERS),
            (S::FRONT_END, S::USER),
            (S::CATALOGUE, S::CATALOGUE_DB),
            (S::CARTS, S::CARTS_DB),
            (S::ORDERS, S::ORDERS_DB),
            (S::ORDERS, S::PAYMENT),
            (S::ORDERS, S::SHIPPING),
            (S::ORDERS, S::USER),
            (S::USER, S::USER_DB),
            (S::SHIPPING, S::QUEUE_MASTER),
        ];
        let entries = vec![S::EDGE_ROUTER, S::FRONT_END];
        DependencyDataset::new(names, edges, entries)
    }
}

/// A 24-service subset of the Train Ticket benchmark, centred on the booking
/// flow (the deepest chain in the system).
pub struct TrainTicketDataset;

impl TrainTicketDataset {
    pub const UI_DASHBOARD: u32 = 0;
    pub const TRAVEL: u32 = 1;
    pub const TRAVEL_PLAN: u32 = 2;
    pub const ROUTE: u32 = 3;
    pub const TRAIN: u32 = 4;
    pub const STATION: u32 = 5;
    pub const BASIC: u32 = 6;
    pub const TICKET_INFO: u32 = 7;
    pub const PRICE: u32 = 8;
    pub const SEAT: u32 = 9;
    pub const CONFIG: u32 = 10;
    pub const PRESERVE: u32 = 11;
    pub const CONTACTS: u32 = 12;
    pub const SECURITY: u32 = 13;
    pub const ORDER: u32 = 14;
    pub const FOOD: u32 = 15;
    pub const ASSURANCE: u32 = 16;
    pub const CONSIGN: u32 = 17;
    pub const INSIDE_PAYMENT: u32 = 18;
    pub const PAYMENT: u32 = 19;
    pub const NOTIFICATION: u32 = 20;
    pub const USER: u32 = 21;
    pub const AUTH: u32 = 22;
    pub const VERIFICATION_CODE: u32 = 23;

    /// Build the dataset.
    pub fn build() -> DependencyDataset {
        use TrainTicketDataset as T;
        let names = vec![
            "ts-ui-dashboard",
            "ts-travel-service",
            "ts-travel-plan-service",
            "ts-route-service",
            "ts-train-service",
            "ts-station-service",
            "ts-basic-service",
            "ts-ticketinfo-service",
            "ts-price-service",
            "ts-seat-service",
            "ts-config-service",
            "ts-preserve-service",
            "ts-contacts-service",
            "ts-security-service",
            "ts-order-service",
            "ts-food-service",
            "ts-assurance-service",
            "ts-consign-service",
            "ts-inside-payment-service",
            "ts-payment-service",
            "ts-notification-service",
            "ts-user-service",
            "ts-auth-service",
            "ts-verification-code-service",
        ];
        let edges = vec![
            // Front door: search and plan.
            (T::UI_DASHBOARD, T::TRAVEL),
            (T::UI_DASHBOARD, T::TRAVEL_PLAN),
            (T::UI_DASHBOARD, T::PRESERVE),
            (T::UI_DASHBOARD, T::USER),
            // Travel search fans into the data services.
            (T::TRAVEL, T::ROUTE),
            (T::TRAVEL, T::TRAIN),
            (T::TRAVEL, T::TICKET_INFO),
            (T::TRAVEL, T::SEAT),
            (T::TRAVEL_PLAN, T::TRAVEL),
            (T::TRAVEL_PLAN, T::ROUTE),
            (T::TICKET_INFO, T::BASIC),
            (T::BASIC, T::STATION),
            (T::BASIC, T::TRAIN),
            (T::BASIC, T::ROUTE),
            (T::BASIC, T::PRICE),
            (T::SEAT, T::CONFIG),
            (T::SEAT, T::ORDER),
            // The booking chain.
            (T::PRESERVE, T::CONTACTS),
            (T::PRESERVE, T::SECURITY),
            (T::PRESERVE, T::TICKET_INFO),
            (T::PRESERVE, T::SEAT),
            (T::PRESERVE, T::ORDER),
            (T::PRESERVE, T::FOOD),
            (T::PRESERVE, T::ASSURANCE),
            (T::PRESERVE, T::CONSIGN),
            (T::PRESERVE, T::USER),
            (T::ORDER, T::INSIDE_PAYMENT),
            (T::INSIDE_PAYMENT, T::PAYMENT),
            (T::INSIDE_PAYMENT, T::NOTIFICATION),
            (T::SECURITY, T::ORDER),
            // Account plumbing.
            (T::USER, T::AUTH),
            (T::AUTH, T::VERIFICATION_CODE),
            (T::CONTACTS, T::AUTH),
        ];
        let entries = vec![T::UI_DASHBOARD, T::TRAVEL, T::PRESERVE];
        DependencyDataset::new(names, edges, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestConfig;
    use socl_net::rng::ChaCha12Rng;

    #[test]
    fn sock_shop_is_a_valid_dag() {
        let ds = SockShopDataset::build();
        assert_eq!(ds.len(), 13);
        // front-end is the hub.
        assert!(ds.successors(SockShopDataset::FRONT_END).len() >= 4);
        // DBs are sinks.
        assert!(ds.successors(SockShopDataset::CATALOGUE_DB).is_empty());
        assert!(ds.successors(SockShopDataset::QUEUE_MASTER).is_empty());
    }

    #[test]
    fn train_ticket_is_a_valid_dag_with_deep_chains() {
        let ds = TrainTicketDataset::build();
        assert_eq!(ds.len(), 24);
        // The booking flow admits chains of depth ≥ 5:
        // ui → preserve → order → inside-payment → payment.
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut max = 0;
        for _ in 0..800 {
            max = max.max(ds.sample_chain(&mut rng, 4, 10).len());
        }
        assert!(max >= 5, "never sampled a deep booking chain (max {max})");
    }

    #[test]
    fn all_datasets_drive_request_sampling() {
        let cfg = RequestConfig::default();
        for (name, ds) in [
            ("sock-shop", SockShopDataset::build()),
            ("train-ticket", TrainTicketDataset::build()),
        ] {
            let mut rng = ChaCha12Rng::seed_from_u64(2);
            let reqs = ds.sample_requests(&mut rng, 30, 8, &cfg);
            assert_eq!(reqs.len(), 30, "{name}");
            for r in &reqs {
                assert!(!r.chain.is_empty());
                for w in r.chain.windows(2) {
                    assert!(
                        ds.successors(w[0].0).contains(&w[1].0),
                        "{name}: chain uses non-edge"
                    );
                }
            }
        }
    }

    #[test]
    fn catalogs_have_distinct_names() {
        for ds in [SockShopDataset::build(), TrainTicketDataset::build()] {
            let mut names = ds.names().to_vec();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), ds.len());
        }
    }
}
