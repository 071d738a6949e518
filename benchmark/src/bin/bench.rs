//! The benchmark with the system allocator: the end-to-end (`--trace 0`) runs.

fn main() {
    std::process::exit(sammy_benchmark::main(None));
}
