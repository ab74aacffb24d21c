//! Fixture: the consumer half of the dead-export pair. A `pub use` is a
//! re-export, not a use.

pub use crate::fx_dead::reexported_only;

pub fn consumer() -> u32 {
    crate::fx_dead::used_elsewhere() + crate::fx_dead::USED_STATIC
}
