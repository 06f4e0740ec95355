//! Neural-network layers built on the autograd tape.

mod attention;
mod gru;
mod linear;
mod norm;
mod transformer;

pub use attention::MultiHeadSelfAttention;
pub use gru::{GruCell, GruInput, GruState};
pub use linear::Linear;
pub use norm::LayerNorm;
pub use transformer::{TransformerEncoder, TransformerEncoderLayer};
