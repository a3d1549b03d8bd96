//! One module per paper artifact (figure or table), each producing a
//! [`crate::report::Report`].

pub mod ablation;
pub mod corpus;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod summary;
pub mod sweep;
pub mod table2;
pub mod table3;
pub mod table4;
