//! Offline stand-in for `serde`: the two traits as blanket-implemented
//! markers plus the no-op derives. Enough for the product crates to
//! compile; nothing the benchmark measures goes through serde (JSON
//! snapshots in `socl_model::io` are a CLI feature, outside the benchmark).

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
impl<T> Deserialize<'_> for T {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
