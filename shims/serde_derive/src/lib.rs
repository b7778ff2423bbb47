//! Offline stand-in for `serde_derive`.
//!
//! The workspace derives `Serialize`/`Deserialize` on config and spec types
//! but never routes them through a serde data format (the wire format in
//! `wd-ckks::wire` is hand-rolled). With crates.io unreachable, these
//! derives expand to nothing: the attribute is accepted, no impl is emitted,
//! and nothing downstream requires the impls to exist.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
