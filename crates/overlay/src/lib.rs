//! A from-scratch Pastry overlay with a DHT service registry.
//!
//! RASC (paper §3.3) discovers the nodes offering a service by hashing the
//! service name to a 128-bit key and routing a lookup through a Pastry
//! overlay [22]. This crate reimplements the parts RASC relies on:
//!
//! * [`NodeKey`] — 128-bit circular identifier space, read as 32 hex
//!   digits (`b = 4`),
//! * [`RoutingTable`] — up to 32 rows × 16 columns of longest-prefix
//!   entries, rows allocated down to the deepest populated one,
//! * [`LeafSet`] — the `L/2` numerically closest neighbors on each side,
//! * [`Overlay`] — membership + prefix routing: [`Overlay::route_path`]
//!   returns the full hop sequence so callers can charge every hop to the
//!   simulated network, and [`Overlay::join`]/[`Overlay::remove`] exercise
//!   the dynamic-membership paths,
//! * [`Dht`] — a multi-value store mapping keys to provider sets with
//!   leaf-set replication; RASC registers `service → host` entries and
//!   looks them up at composition time (paper steps (1)–(2) of §3.1).
//!
//! Routing satisfies Pastry's guarantees in expectation: `O(log₁₆ N)`
//! hops, each hop either extending the shared prefix with the target or
//! (in the leaf-set/rare case) strictly shrinking numerical distance.
//!
//! # Example
//!
//! ```
//! use overlay::{stable_hash128, Dht, Overlay};
//!
//! let flat = |_: usize, _: usize| 1.0; // proximity metric
//! let overlay = Overlay::build(16, 7, &flat);
//! let mut dht: Dht<usize> = Dht::new(16, 2);
//!
//! // Register providers of a service, then discover them from anywhere.
//! let key = stable_hash128(b"transcode");
//! dht.insert(&overlay, 3, key, 3);
//! dht.insert(&overlay, 9, key, 9);
//! let found = dht.lookup(&overlay, 0, key);
//! assert_eq!(found.values, vec![3, 9]);
//! assert_eq!(*found.path.last().unwrap(), overlay.owner_of(key));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dht;
mod hash;
mod key;
mod overlay;
mod table;

pub use dht::{Dht, LookupResult};
pub use hash::stable_hash128;
pub use key::NodeKey;
pub use overlay::{Overlay, ProximityFn};
pub use table::{LeafSet, RoutingTable};

/// Dense index of a member node, assigned by the [`Overlay`] at build/join
/// time. Callers map it to their own node handles (e.g. simnet indices).
pub type MemberId = usize;
