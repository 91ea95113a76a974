//! Reproductions of the faults that keep inputs out of the workloads
//! (README.md, "Known faults and exclusions").
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- --repro pfs-duplicate-insert
//! cargo run --release --manifest-path servebench/Cargo.toml -- --repro vcycles-drift
//! cargo run --release --manifest-path servebench/Cargo.toml -- --repro sql-shard-kill
//! ```

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use twine_core::{PfsBackend, TwineBuilder};
use twine_pfs::PfsMode;
use twine_wasi::FsBackend;

use crate::target::Sharded;
use crate::util::Rng;
use crate::{Inputs, Kind};

pub const NAMES: [&str; 3] = ["pfs-duplicate-insert", "vcycles-drift", "sql-shard-kill"];

pub fn run(name: &str) -> i32 {
    match name {
        "pfs-duplicate-insert" => pfs_duplicate_insert(),
        "vcycles-drift" => vcycles_drift(),
        "sql-shard-kill" => sql_shard_kill(),
        _ => {
            eprintln!("unknown fault {name:?}; one of {}", NAMES.join(", "));
            2
        }
    }
}

/// Random 4 KiB page reads and writes on one protected file of `nodes` data nodes,
/// as a database's pager makes them. Returns the panic message, if any.
fn random_page_io(nodes: u64, seed: u64) -> Option<String> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(|| {
        let mut fs = PfsBackend::new(None, PfsMode::Intel, twine_pfs::DEFAULT_CACHE_NODES, None);
        let mut f = fs.open("/data/big.bin", true, true).expect("open");
        let page = vec![0xabu8; 4096];
        for _ in 0..nodes {
            f.write(&page).expect("fill");
        }
        let mut rng = Rng::new(seed);
        let mut buf = vec![0u8; 4096];
        for i in 0..2000u64 {
            f.seek(rng.below(nodes as usize) as u64 * 4096)
                .expect("seek");
            f.read(&mut buf).expect("read");
            f.seek(rng.below(nodes as usize) as u64 * 4096)
                .expect("seek");
            buf.fill(i as u8);
            f.write(&buf).expect("write");
        }
        f.sync().expect("sync");
    });
    std::panic::set_hook(prev);
    out.err().map(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// Files of 94 to 100 data nodes: both sides of the fault.
fn pfs_duplicate_insert() -> i32 {
    for n in 94..=100 {
        match random_page_io(n, 1) {
            Some(msg) => println!("{n} data nodes: PANIC {msg}"),
            None => println!("{n} data nodes: ok"),
        }
    }
    0
}

/// Modelled cycles per operation of the same sql-tenants requests, twice
/// on one shard and twice on two.
fn vcycles_drift() -> i32 {
    let inputs = Inputs::new(Kind::Sql, 1);
    for shards in [1, 2] {
        let per_op: Vec<f64> = (0..2)
            .map(|_| {
                let mut t = Sharded::new(inputs.plan(), shards);
                let mut w = inputs.workload(&t);
                let mut setup = crate::record::Recorder::default();
                w.setup(&mut t, &mut setup);
                let c0 = t.svc.clock().cycles();
                let mut rec = crate::record::Recorder::default();
                for _ in 0..100 {
                    w.round(&mut t, &mut rec);
                }
                (t.svc.clock().cycles() - c0) as f64 / rec.attempted() as f64
            })
            .collect();
        println!(
            "{shards} shard(s): vcycles_per_op {:.1} then {:.1} ({:+.4}%)",
            per_op[0],
            per_op[1],
            100.0 * (per_op[1] / per_op[0] - 1.0)
        );
    }
    0
}

/// The SQL strings that kill or hang a shard: the client of that shard
/// blocks forever, so no workload can count them as failed operations.
fn sql_shard_kill() -> i32 {
    for sql in ["SELECT count(*)", "CREATE TABLE t(a INTEGER, c TEXT("] {
        let svc = Arc::new(TwineBuilder::new().build_sharded(1));
        svc.db_open_session("victim").expect("open");
        let (tx, rx) = mpsc::channel();
        let client = Arc::clone(&svc);
        let stmt = sql.to_string();
        std::thread::spawn(move || {
            let _ = tx.send(format!("{:?}", client.db_query("victim", &stmt)));
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(reply) => println!("{sql:?}: reply {reply}"),
            Err(_) => println!("{sql:?}: no reply after 5 s; the client is blocked on its shard"),
        }
        // The blocked client and the stuck shard end with the process.
        std::mem::forget(svc);
    }
    std::process::exit(0)
}
