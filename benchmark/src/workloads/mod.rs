//! The four deployment-lifecycle workloads (see each module, and
//! `README.md`, for why it exists).

pub mod churn_repair;
pub mod index_build;
pub mod probe;
pub mod search;
