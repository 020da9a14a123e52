//! Layer-ledger serving benchmark: three seeded workloads over a
//! loopback `NetServer`, with a traced run that attributes the routed
//! round trip to the layers it crosses.

pub mod alloc;
pub mod check;
pub mod gen;
pub mod load;
pub mod report;
pub mod run;
pub mod setup;
pub mod spec;
pub mod trace;
