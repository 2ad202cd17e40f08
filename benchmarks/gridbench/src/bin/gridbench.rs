//! The end-to-end binary: no counting allocator, no spans.

fn main() -> std::process::ExitCode {
    gridbench::cli::main()
}
