//! The end-to-end benchmark binary. No custom allocator, no tracing:
//! what it measures is the server as shipped.

fn main() {
    cxb::cli::main(false)
}
