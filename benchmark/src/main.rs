//! Command-line entry point; everything lives in the library so the smoke
//! test can share its JSON reader.

fn main() -> std::process::ExitCode {
    wcc_benchmark::cli_main()
}
