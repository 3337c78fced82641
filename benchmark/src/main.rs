fn main() -> std::process::ExitCode {
    frapp_benchmark::cli::main()
}
