//! The traced binary: the same library with the counting allocator
//! installed and client-side spans recorded. `gridbench --trace 1` runs it.

#[global_allocator]
static ALLOC: gridbench::alloc::CountingAlloc = gridbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    gridbench::cli::trace_main()
}
