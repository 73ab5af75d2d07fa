//! The traced run: the same library under a counting allocator, so
//! allocation counts are exact and the end-to-end binary carries none of
//! the cost.

#[global_allocator]
static ALLOC: cxb::alloc::Counting = cxb::alloc::Counting;

fn main() {
    cxb::cli::main(true)
}
