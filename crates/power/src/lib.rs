//! # frontier-power
//!
//! Power model of Frontier (§5.1: "Frontier clearly excels in
//! this area"). Reproduces the Green500 arithmetic — 1.102 EF HPL at
//! 21.1 MW → 52 GF/W, beating the 2008 report's 50 GF/W target and the
//! 20 MW/EF facility bound — from a per-component draw model.

pub mod green500;
pub mod model;

pub mod prelude {
    pub use crate::green500::{green500_entry, Green500Entry};
    pub use crate::model::{PowerModel, SystemPower};
}

pub use prelude::*;
