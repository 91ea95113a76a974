//! The three things a workload can run against, behind one interface:
//!
//! * [`Sharded`]: the public `ShardedService` (the end-to-end target);
//! * [`Service`]: one single-threaded `TwineService` with the same
//!   configuration (the replay that isolates the shard hand-off);
//! * [`Raw`]: the engines alone, `Instance::invoke` for Wasm and a direct
//!   `Connection` over `BackendVfs` for SQL, with file I/O wrapped in spans.
//!
//! Every call opens a span named after the layer it enters.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use twine_core::{ControlPlane, ShardedService, TwineBuilder, TwineService};
use twine_pfs::{PfsMode, PfsProfiler};
use twine_sgx::Enclave;
use twine_sqldb::backend_vfs::BackendVfs;
use twine_sqldb::exec::ExecResult;
use twine_sqldb::pager::PagerStats;
use twine_sqldb::sql::Stmt;
use twine_sqldb::value::Row;
use twine_sqldb::{Connection, SharedBackend};
use twine_wasi::ctx::MemBackend;
use twine_wasi::errno::WasiResult;
use twine_wasi::{register_wasi, FsBackend, Rights, WasiCtx, WasiFile};
use twine_wasm::compile::CompiledModule;
use twine_wasm::{Instance, Linker, Value};

use crate::trace::span;

/// The tenant database file inside a DB session's private backend.
pub const DB_PATH: &str = "/data/tenant.db";

/// What one invocation returned, with its metered instructions and WASI
/// calls.
pub struct Reply {
    pub values: Vec<Value>,
    pub minstr: u64,
    pub wasi_calls: u64,
}

/// Control-plane settings a workload asks for.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Live sessions per shard before the LRU parks one.
    pub live_budget: Option<usize>,
    pub pool_slots: Option<usize>,
}

impl Plan {
    fn builder(self, live_budget: Option<usize>) -> TwineBuilder {
        TwineBuilder::new().control_plane(ControlPlane {
            max_live_sessions: live_budget,
            pool_slots_per_module: self.pool_slots,
            ..ControlPlane::default()
        })
    }
}

pub type R<T> = Result<T, String>;

pub trait Target {
    /// Shards and the per-shard live budget the LRU model should assume.
    fn shards(&self) -> usize;
    fn live_budget(&self) -> Option<usize>;
    fn open(&mut self, name: &str, wasm: &[u8]) -> R<()>;
    fn invoke(&mut self, name: &str, func: &str, args: &[Value]) -> R<Reply>;
    fn close(&mut self, name: &str) -> R<()>;
    fn db_open(&mut self, name: &str) -> R<()>;
    fn db_query(&mut self, name: &str, sql: &str) -> R<Vec<Row>>;
    fn db_batch(&mut self, name: &str, stmts: Vec<String>) -> R<u64>;
    /// Close a DB session; returns the size of its database file.
    fn db_close(&mut self, name: &str) -> R<u64>;
    /// The LRU model parked `name` (only the raw target acts on it).
    fn parked(&mut self, _name: &str) {}
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn reply(report: twine_core::RunReport, values: Vec<Value>) -> Reply {
    Reply {
        values,
        minstr: report.meter.total(),
        wasi_calls: report.wasi_calls,
    }
}

fn file_size(backend: &SharedBackend) -> R<u64> {
    backend
        .lock()
        .expect("backend lock")
        .filesize(DB_PATH)
        .map_err(|e| format!("{e:?}"))
}

// ---------------------------------------------------------------------------

pub struct Sharded {
    pub svc: ShardedService,
    plan: Plan,
    /// Client round trips so far.
    pub calls: u64,
}

impl Sharded {
    pub fn new(plan: Plan, shards: usize) -> Self {
        Self {
            svc: plan.builder(plan.live_budget).build_sharded(shards),
            plan,
            calls: 0,
        }
    }

    fn call<T>(&mut self, f: impl FnOnce(&ShardedService) -> T) -> T {
        self.calls += 1;
        span("sharded.call", || f(&self.svc))
    }
}

impl Target for Sharded {
    fn shards(&self) -> usize {
        self.svc.shard_count()
    }
    fn live_budget(&self) -> Option<usize> {
        self.plan.live_budget
    }
    fn open(&mut self, name: &str, wasm: &[u8]) -> R<()> {
        self.call(|s| s.open_session(name, wasm))
            .map(|_| ())
            .map_err(err)
    }
    fn invoke(&mut self, name: &str, func: &str, args: &[Value]) -> R<Reply> {
        let (report, values) = self
            .call(|s| s.invoke_with_report(name, func, args))
            .map_err(err)?;
        Ok(reply(report, values))
    }
    fn close(&mut self, name: &str) -> R<()> {
        match self.call(|s| s.close_session(name)).map_err(err)? {
            Some(_) => Ok(()),
            None => Err(format!("close {name}: no such session")),
        }
    }
    fn db_open(&mut self, name: &str) -> R<()> {
        self.call(|s| s.db_open_session(name)).map_err(err)
    }
    fn db_query(&mut self, name: &str, sql: &str) -> R<Vec<Row>> {
        self.call(|s| s.db_query(name, sql)).map_err(err)
    }
    fn db_batch(&mut self, name: &str, stmts: Vec<String>) -> R<u64> {
        self.call(|s| s.db_execute_batch(name, stmts)).map_err(err)
    }
    fn db_close(&mut self, name: &str) -> R<u64> {
        match self.call(|s| s.db_close_session(name)).map_err(err)? {
            Some(b) => file_size(&b),
            None => Err(format!("db close {name}: no such session")),
        }
    }
}

// ---------------------------------------------------------------------------

pub struct Service {
    svc: TwineService,
    budget: Option<usize>,
}

impl Service {
    /// One service holding as many live sessions as the whole fleet of
    /// `shards` would.
    pub fn new(plan: Plan, shards: usize) -> Self {
        let budget = plan.live_budget.map(|b| b * shards);
        Self {
            svc: plan.builder(budget).build_service(),
            budget,
        }
    }
}

impl Target for Service {
    fn shards(&self) -> usize {
        1
    }
    fn live_budget(&self) -> Option<usize> {
        self.budget
    }
    fn open(&mut self, name: &str, wasm: &[u8]) -> R<()> {
        span("service.call", || {
            self.svc.open_session(name, wasm).map(|_| ()).map_err(err)
        })
    }
    fn invoke(&mut self, name: &str, func: &str, args: &[Value]) -> R<Reply> {
        let (report, values) = span("service.call", || {
            self.svc.invoke_with_report(name, func, args)
        })
        .map_err(err)?;
        Ok(reply(report, values))
    }
    fn close(&mut self, name: &str) -> R<()> {
        span("service.call", || self.svc.close_session(name))
            .map(|_| ())
            .ok_or_else(|| format!("close {name}: no such session"))
    }
    fn db_open(&mut self, name: &str) -> R<()> {
        span("service.call", || self.svc.db_open_session(name)).map_err(err)
    }
    fn db_query(&mut self, name: &str, sql: &str) -> R<Vec<Row>> {
        span("service.call", || self.svc.db_query(name, sql)).map_err(err)
    }
    fn db_batch(&mut self, name: &str, stmts: Vec<String>) -> R<u64> {
        span("service.call", || self.svc.db_execute_batch(name, &stmts)).map_err(err)
    }
    fn db_close(&mut self, name: &str) -> R<u64> {
        let b = span("service.call", || self.svc.db_close_session(name))
            .ok_or_else(|| format!("db close {name}: no such session"))?;
        file_size(&b)
    }
}

// ---------------------------------------------------------------------------

/// File-system backend wrapper: every call into the backend (open, and
/// each read/write/seek/size on a file it opened) is an `fs.io` span.
struct TracedFs(Box<dyn FsBackend>);
struct TracedFile(Box<dyn WasiFile>);

impl FsBackend for TracedFs {
    fn open(&mut self, path: &str, create: bool, truncate: bool) -> WasiResult<Box<dyn WasiFile>> {
        span("fs.io", || self.0.open(path, create, truncate))
            .map(|f| Box::new(TracedFile(f)) as Box<dyn WasiFile>)
    }
    fn exists(&mut self, path: &str) -> bool {
        span("fs.io", || self.0.exists(path))
    }
    fn filesize(&mut self, path: &str) -> WasiResult<u64> {
        span("fs.io", || self.0.filesize(path))
    }
    fn unlink(&mut self, path: &str) -> WasiResult<()> {
        span("fs.io", || self.0.unlink(path))
    }
}

impl WasiFile for TracedFile {
    fn read(&mut self, buf: &mut [u8]) -> WasiResult<usize> {
        span("fs.io", || self.0.read(buf))
    }
    fn write(&mut self, buf: &[u8]) -> WasiResult<usize> {
        span("fs.io", || self.0.write(buf))
    }
    fn seek(&mut self, pos: u64) -> WasiResult<u64> {
        span("fs.io", || self.0.seek(pos))
    }
    fn tell(&self) -> u64 {
        self.0.tell()
    }
    fn size(&self) -> WasiResult<u64> {
        self.0.size()
    }
    fn set_size(&mut self, size: u64) -> WasiResult<()> {
        span("fs.io", || self.0.set_size(size))
    }
    fn sync(&mut self) -> WasiResult<()> {
        span("fs.io", || self.0.sync())
    }
}

/// Which backend the raw target gives each session.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Fs {
    /// Protected FS keyed by an enclave, with the Fig. 7 profiler attached.
    Pfs,
    /// Plain in-memory files: the WASI layer without PFS.
    Mem,
}

/// SQL-layer observations of the raw replay.
#[derive(Default)]
pub struct SqlObs {
    /// `Connection::prepare` on a plan-cache miss.
    pub prepare_miss_us: Vec<f64>,
    /// `execute_stmt` of statements other than BEGIN/COMMIT.
    pub exec_us: Vec<f64>,
    /// `execute_stmt(COMMIT)`.
    pub commit_us: Vec<f64>,
    pub txns: u64,
    pub txn_page_writes: u64,
    pub txn_journal_writes: u64,
    pub txn_syncs: u64,
    /// Pager reads and cache hits of read-only statements.
    pub read_page_reads: u64,
    pub read_cache_hits: u64,
    pub restores: u64,
    /// Pages read by the first statement after a reopen.
    pub restore_page_reads: u64,
}

struct RawDb {
    backend: SharedBackend,
    conn: Option<Connection>,
}

pub struct Raw {
    fs: Fs,
    shards: usize,
    budget: Option<usize>,
    enclave: Arc<Enclave>,
    pub profiler: PfsProfiler,
    linker: Linker,
    modules: Vec<(Vec<u8>, Arc<CompiledModule>)>,
    instances: HashMap<String, Instance>,
    dbs: HashMap<String, RawDb>,
    pub sql: SqlObs,
}

impl Raw {
    /// `shards`/`plan` only shape the LRU model, which the raw target
    /// follows for databases by closing and reopening connections.
    pub fn new(fs: Fs, plan: Plan, shards: usize) -> Self {
        let enclave = Arc::clone(TwineBuilder::new().build().enclave());
        let profiler = PfsProfiler::new(enclave.clock().clone());
        let mut linker = Linker::new();
        register_wasi(&mut linker);
        twine_core::runtime::register_libm(&mut linker);
        Self {
            fs,
            shards,
            budget: plan.live_budget,
            enclave,
            profiler,
            linker,
            modules: Vec::new(),
            instances: HashMap::new(),
            dbs: HashMap::new(),
            sql: SqlObs::default(),
        }
    }

    fn backend(&self) -> Box<dyn FsBackend> {
        let inner: Box<dyn FsBackend> = match self.fs {
            Fs::Pfs => Box::new(twine_core::PfsBackend::new(
                Some(Arc::clone(&self.enclave)),
                PfsMode::Intel,
                twine_pfs::DEFAULT_CACHE_NODES,
                Some(self.profiler.clone()),
            )),
            Fs::Mem => Box::new(MemBackend::new()),
        };
        Box::new(TracedFs(inner))
    }

    fn module(&mut self, wasm: &[u8]) -> R<Arc<CompiledModule>> {
        if let Some((_, m)) = self.modules.iter().find(|(w, _)| w == wasm) {
            return Ok(Arc::clone(m));
        }
        let m = Arc::new(CompiledModule::from_bytes(wasm).map_err(err)?);
        self.modules.push((wasm.to_vec(), Arc::clone(&m)));
        Ok(m)
    }

    fn conn(&mut self, name: &str) -> R<&mut Connection> {
        let db = self
            .dbs
            .get_mut(name)
            .ok_or_else(|| format!("no db {name}"))?;
        db.conn
            .as_mut()
            .ok_or_else(|| format!("db {name} is parked"))
    }

    /// The pager counters before the next statement on `name`, reopening
    /// a parked database first. A reopened connection starts from zero,
    /// so its reads, the reopen's included, go to the restore.
    fn before(&mut self, name: &str) -> R<(bool, PagerStats)> {
        let db = self
            .dbs
            .get_mut(name)
            .ok_or_else(|| format!("no db {name}"))?;
        if let Some(c) = &db.conn {
            return Ok((false, c.stats()));
        }
        let vfs = BackendVfs::from_shared(Arc::clone(&db.backend));
        db.conn =
            Some(span("sqldb.open", || Connection::open(Box::new(vfs), DB_PATH)).map_err(err)?);
        self.sql.restores += 1;
        Ok((true, PagerStats::default()))
    }

    fn after(&mut self, name: &str, reopened: bool) -> R<PagerStats> {
        let s = self.conn(name)?.stats();
        if reopened {
            self.sql.restore_page_reads += s.page_reads;
        }
        Ok(s)
    }

    /// Prepare and execute one statement, timing the layers apart.
    fn statement(&mut self, name: &str, sql: &str) -> R<ExecResult> {
        let conn = self.conn(name)?;
        let before = conn.stmt_cache_stats().misses;
        let t = Instant::now();
        let stmt = span("sqldb.prepare", || conn.prepare(sql)).map_err(err)?;
        let prep_us = t.elapsed().as_secs_f64() * 1e6;
        let missed = conn.stmt_cache_stats().misses > before;
        let commit = matches!(*stmt, Stmt::Commit);
        let t = Instant::now();
        let out = span(if commit { "sqldb.commit" } else { "sqldb.exec" }, || {
            conn.execute_stmt(&stmt)
        })
        .map_err(err)?;
        let exec_us = t.elapsed().as_secs_f64() * 1e6;
        if missed {
            self.sql.prepare_miss_us.push(prep_us);
        }
        if commit {
            self.sql.commit_us.push(exec_us);
        } else if !matches!(*stmt, Stmt::Begin) {
            self.sql.exec_us.push(exec_us);
        }
        Ok(out)
    }
}

impl Target for Raw {
    fn shards(&self) -> usize {
        self.shards
    }
    fn live_budget(&self) -> Option<usize> {
        self.budget
    }
    fn open(&mut self, name: &str, wasm: &[u8]) -> R<()> {
        let code = self.module(wasm)?;
        let ctx = WasiCtx::new(self.backend(), "/data", Rights::all());
        let inst = span("wasm.instantiate", || {
            Instance::instantiate_shared(code, &self.linker, Box::new(ctx), None)
        })
        .map_err(|(e, _)| err(e))?;
        self.instances.insert(name.to_string(), inst);
        Ok(())
    }
    fn invoke(&mut self, name: &str, func: &str, args: &[Value]) -> R<Reply> {
        let inst = self
            .instances
            .get_mut(name)
            .ok_or_else(|| format!("no instance {name}"))?;
        inst.meter.reset();
        // Drops the file handles the previous invocation left open.
        span("wasi.reset", || inst.state::<WasiCtx>().reset_for_invocation());
        let values = span("wasm.invoke", || inst.invoke(func, args)).map_err(err)?;
        Ok(Reply {
            values,
            minstr: inst.meter.total(),
            wasi_calls: inst.state::<WasiCtx>().call_count,
        })
    }
    fn close(&mut self, name: &str) -> R<()> {
        let inst = self
            .instances
            .remove(name)
            .ok_or_else(|| format!("no instance {name}"))?;
        span("wasm.drop", || drop(inst));
        Ok(())
    }
    fn db_open(&mut self, name: &str) -> R<()> {
        let backend: SharedBackend = Arc::new(Mutex::new(self.backend()));
        let vfs = BackendVfs::from_shared(Arc::clone(&backend));
        let conn = span("sqldb.open", || Connection::open(Box::new(vfs), DB_PATH)).map_err(err)?;
        self.dbs.insert(
            name.to_string(),
            RawDb {
                backend,
                conn: Some(conn),
            },
        );
        Ok(())
    }
    fn db_query(&mut self, name: &str, sql: &str) -> R<Vec<Row>> {
        let (reopened, before) = self.before(name)?;
        let rows = self.statement(name, sql)?.rows;
        let after = self.after(name, reopened)?;
        self.sql.read_page_reads += after.page_reads - before.page_reads;
        self.sql.read_cache_hits += after.cache_hits - before.cache_hits;
        Ok(rows)
    }
    fn db_batch(&mut self, name: &str, stmts: Vec<String>) -> R<u64> {
        let (reopened, before) = self.before(name)?;
        let mut affected = 0;
        for sql in &stmts {
            affected += self.statement(name, sql)?.affected;
        }
        let after = self.after(name, reopened)?;
        self.sql.txns += 1;
        self.sql.txn_page_writes += after.page_writes - before.page_writes;
        self.sql.txn_journal_writes += after.journal_writes - before.journal_writes;
        self.sql.txn_syncs += after.syncs - before.syncs;
        Ok(affected)
    }
    fn db_close(&mut self, name: &str) -> R<u64> {
        let db = self
            .dbs
            .remove(name)
            .ok_or_else(|| format!("no db {name}"))?;
        if let Some(c) = db.conn {
            c.close().map_err(err)?;
        }
        file_size(&db.backend)
    }
    fn parked(&mut self, name: &str) {
        if let Some(c) = self.dbs.get_mut(name).and_then(|d| d.conn.take()) {
            // Park flushes the database into its backend, as the service's
            // DB park does; the next statement reopens it.
            let _ = span("sqldb.close", || c.close());
        }
    }
}
