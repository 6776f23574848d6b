//! Untraced benchmark binary: the end-to-end numbers come from here.

fn main() {
    nfsperf_simbench::cli::main(None);
}
