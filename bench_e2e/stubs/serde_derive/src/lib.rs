//! Offline stand-in for `serde_derive`: accepts `#[serde(...)]` helper
//! attributes and expands to nothing (see the `serde` stand-in).

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
