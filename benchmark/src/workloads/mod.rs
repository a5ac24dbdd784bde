//! The five workloads.

pub mod kv;
pub mod rbtree;
#[cfg(feature = "controlled")]
pub mod replay;
