//! The shard worker spawned by the daemon of the `serve` workload: the
//! library's worker loop over stdio, as in `soter-serve`'s own binary.

fn main() {
    std::process::exit(soter_serve::worker::worker_main());
}
