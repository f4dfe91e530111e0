//! Offline stand-in for `serde_derive`. The stand-in `serde` traits are
//! blanket-implemented for every type, so both derives expand to nothing;
//! they exist so `#[derive(Serialize, Deserialize)]` and `#[serde(..)]`
//! attributes in the product crates compile unchanged.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
