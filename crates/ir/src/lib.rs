//! # sycl-mlir-ir — an MLIR-like IR kernel in pure Rust
//!
//! This crate is the substrate for the SYCL-MLIR reproduction. It provides the
//! mechanisms the paper attributes to the MLIR framework (§II-B of the paper):
//!
//! * **Interned, extensible types** — built-in types plus dialect-defined
//!   types registered through the [`types::DialectTypeImpl`] trait, so the
//!   SYCL dialect can add `!sycl.id<2>` and friends without this crate
//!   knowing about SYCL.
//! * **Operations, regions, blocks and SSA values** stored in arena form in a
//!   [`module::Module`], with incrementally-maintained use lists.
//! * **A dialect registry** ([`dialect`]) where each operation carries traits
//!   (purity, terminator-ness, sources of non-uniformity, …), a verifier, a
//!   folder, and a *memory-effect interface* — the exact mechanism §V of the
//!   paper uses to let the reaching-definition and uniformity analyses reason
//!   about ops from any dialect.
//! * **Textual printer and parser** that round-trip the IR, mirroring MLIR's
//!   generic operation syntax.
//! * **Pass manager and greedy pattern-rewrite driver** underpinning the
//!   analyses and transformations of §V–§VII.
//!
//! The design intentionally favours a single *structured* control-flow world:
//! every region holds exactly one block and control flow is expressed through
//! `scf`/`affine` ops, matching all IR the paper shows.
//!
//! ```
//! use sycl_mlir_ir::{Context, Module};
//!
//! let ctx = Context::new();
//! let module = Module::new(&ctx);
//! assert!(sycl_mlir_ir::verify(&module).is_ok());
//! ```

pub mod affine;
pub mod attrs;
pub mod builder;
pub mod context;
pub mod dialect;
pub mod fxhash;
pub mod module;
pub mod parser;
pub mod pass;
pub mod pattern;
pub mod printer;
pub mod types;
pub mod verifier;

pub use affine::{AffineExpr, AffineMap};
pub use attrs::{AttrKey, Attribute};
pub use builder::Builder;
pub use context::{CommonKeys, Context};
pub use dialect::{traits, Dialect, Effect, EffectKind, FoldOut, OpInfo, OpName};
pub use fxhash::{FxHashMap, FxHasher};
pub use module::{BlockId, Module, OpId, RegionId, Use, ValueDef, ValueId, WalkControl};
pub use parser::{parse_module, ParseError};
pub use pass::{Pass, PassManager, PassStats};
pub use pattern::{apply_patterns_greedily, RewritePattern};
pub use printer::{print_module, print_op};
pub use types::{DialectTypeImpl, Type, TypeKind};
pub use verifier::{verify, VerifyError};
