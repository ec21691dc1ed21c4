//! The PA-TA problem model (Definitions 1–5 of the paper).

mod entities;
mod instance;
mod values;

pub use entities::{Task, Worker};
pub use instance::Instance;
pub use values::{DistanceValue, LinearValue, PrivacyValue, ZeroValue};
