//! `sql-tenants`: tenant database sessions running a seeded OLTP mix.
//!
//! Each round is 51 operations in a seeded order: 35 point `SELECT`s by
//! `INTEGER PRIMARY KEY`, 5 indexed range `count(*)`s and 10 write
//! transactions (`BEGIN`, seven `UPDATE`s, one `INSERT` or `DELETE`,
//! `COMMIT`) sent as one batch, on the hot tenants drawn with Zipf
//! weights; and one point read of a cold tenant. The live budget holds
//! the hot tenants and one cold tenant per shard, and the cold visits
//! cycle over two cold tenants per shard, so every cold visit restores a
//! parked database and parks the previous cold one: one restore per
//! round, whatever the seed. Statement text carries literals (the engine
//! has no bind parameters), so most statements miss the plan cache;
//! reads of a small hot key set repeat their text and hit it.
//!
//! Sizes: each database is larger than the PFS node cache (48 nodes of
//! 4 KiB) and far inside the pager cache (8 MiB), and stays below the 97
//! data nodes at which a protected file taking random page writes panics
//! (see README.md); inserts and deletes cycle through a fixed band of
//! keys, so the file does not grow without bound.

use std::collections::BTreeMap;

use twine_sqldb::value::SqlValue;

use crate::record::{Lru, Recorder};
use crate::target::{Plan, Target};
use crate::util::{name_on_shard, Rng};
use crate::Workload;

/// Tenants `0..HOT` take the mix; tenants `HOT..TENANTS` are cold.
pub const HOT: usize = 6;
pub const TENANTS: usize = 10;
/// Live database sessions per shard: its three hot tenants and one cold.
pub const LIVE_BUDGET: usize = 4;
pub const ROWS: i64 = 1400;
/// Keys `ROWS + 1 ..= ROWS + CHURN_KEYS` are inserted and deleted.
pub const CHURN_KEYS: i64 = 64;
/// Reads that go to keys `1..=HOT_KEYS` (repeated text: plan-cache hits).
pub const HOT_KEYS: i64 = 16;
pub const GROUPS: i64 = 100;
const NOTE_LEN: usize = 16;
/// Largest database file the run accepts: 96 pages of 4 KiB, one short of
/// the PFS fault.
pub const MAX_DB_BYTES: u64 = 96 * 4096;

pub const PLAN: Plan = Plan {
    live_budget: Some(LIVE_BUDGET),
    pool_slots: None,
};

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Row {
    pub grp: i64,
    pub bal: i64,
    pub note: String,
}

/// What the model says one tenant's `acct` table holds.
#[derive(Default)]
pub struct TenantModel {
    pub rows: BTreeMap<i64, Row>,
}

impl TenantModel {
    pub fn point(&self, id: i64) -> Vec<Vec<SqlValue>> {
        self.rows
            .get(&id)
            .map(|r| {
                vec![vec![
                    SqlValue::Int(r.grp),
                    SqlValue::Int(r.bal),
                    SqlValue::Text(r.note.clone()),
                ]]
            })
            .unwrap_or_default()
    }

    pub fn count_groups(&self, lo: i64, hi: i64) -> i64 {
        self.rows
            .values()
            .filter(|r| (lo..=hi).contains(&r.grp))
            .count() as i64
    }

    /// Apply a write transaction's statements; returns the rows affected.
    pub fn apply(&mut self, w: &Write) -> u64 {
        for &(id, d) in &w.updates {
            self.rows.get_mut(&id).expect("updates hit base keys").bal += d;
        }
        match &w.churn {
            Churn::Insert(id, row) => {
                self.rows.insert(*id, row.clone());
            }
            Churn::Delete(id) => {
                self.rows.remove(id);
            }
        }
        w.updates.len() as u64 + 1
    }

    pub fn sum_bal(&self) -> i64 {
        self.rows.values().map(|r| r.bal).sum()
    }
}

pub enum Churn {
    Insert(i64, Row),
    Delete(i64),
}

pub struct Write {
    pub updates: Vec<(i64, i64)>,
    pub churn: Churn,
}

impl Write {
    pub fn statements(&self) -> Vec<String> {
        let mut s = vec!["BEGIN".to_string()];
        for (id, d) in &self.updates {
            s.push(format!("UPDATE acct SET bal = bal + {d} WHERE id = {id}"));
        }
        s.push(match &self.churn {
            Churn::Insert(id, r) => insert_sql(*id, r),
            Churn::Delete(id) => format!("DELETE FROM acct WHERE id = {id}"),
        });
        s.push("COMMIT".into());
        s
    }
}

fn insert_sql(id: i64, r: &Row) -> String {
    format!(
        "INSERT INTO acct VALUES ({id}, {}, {}, '{}')",
        r.grp, r.bal, r.note
    )
}

fn gen_row(rng: &mut Rng) -> Row {
    Row {
        grp: rng.below(GROUPS as usize) as i64,
        bal: 1000 + rng.below(9000) as i64,
        note: (0..NOTE_LEN)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect(),
    }
}

pub struct Tenants {
    names: Vec<String>,
    models: Vec<TenantModel>,
    /// Cumulative Zipf weights over the hot tenants.
    cdf: Vec<f64>,
    /// Cold visits so far.
    cold: usize,
    rng: Rng,
    lru: Lru,
}

impl Tenants {
    pub fn new(seed: u64, t: &dyn Target) -> Self {
        let mut rng = Rng::new(seed).fork(3);
        let mut data = rng.fork(4);
        // Tenant k lands on shard k % 2, so hot and cold tenants spread
        // the same way over the shards whatever the seed.
        let names = (0..TENANTS)
            .map(|k| name_on_shard(&format!("db{k}"), seed, k % 2, 2))
            .collect();
        let models = (0..TENANTS)
            .map(|_| TenantModel {
                rows: (1..=ROWS).map(|id| (id, gen_row(&mut data))).collect(),
            })
            .collect();
        let weights: Vec<f64> = (0..HOT).map(|k| 1.0 / (k + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Self {
            names,
            models,
            cdf,
            cold: 0,
            rng,
            lru: Lru::new(t.shards(), t.live_budget()),
        }
    }

    fn hot(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf.iter().position(|&c| u < c).unwrap_or(HOT - 1)
    }

    /// Use tenant `k`; returns whether it was parked.
    fn touch(&mut self, t: &mut dyn Target, k: usize) -> bool {
        let (parked, victims) = self.lru.touch(&self.names[k]);
        for v in victims {
            t.parked(&v);
        }
        parked
    }

    fn read(&mut self, t: &mut dyn Target, rec: &mut Recorder, k: usize) {
        let parked = self.touch(t, k);
        let id = if self.rng.below(4) == 0 {
            1 + self.rng.below(HOT_KEYS as usize) as i64
        } else {
            1 + self.rng.below((ROWS + CHURN_KEYS) as usize) as i64
        };
        let sql = format!("SELECT grp, bal, note FROM acct WHERE id = {id}");
        let class = if parked { "restore" } else { "read" };
        if let Some(rows) = rec.op(class, || t.db_query(&self.names[k], &sql)) {
            let want = self.models[k].point(id);
            rec.check(rows == want, || format!("{sql}: {rows:?}, model {want:?}"));
        }
    }

    fn scan(&mut self, t: &mut dyn Target, rec: &mut Recorder, k: usize) {
        let parked = self.touch(t, k);
        let lo = self.rng.below(GROUPS as usize) as i64;
        let hi = lo + 2;
        let sql = format!("SELECT count(*) FROM acct WHERE grp BETWEEN {lo} AND {hi}");
        let class = if parked { "restore" } else { "scan" };
        if let Some(rows) = rec.op(class, || t.db_query(&self.names[k], &sql)) {
            let want = vec![vec![SqlValue::Int(self.models[k].count_groups(lo, hi))]];
            rec.check(rows == want, || format!("{sql}: {rows:?}, model {want:?}"));
        }
    }

    fn write(&mut self, t: &mut dyn Target, rec: &mut Recorder, k: usize) {
        let parked = self.touch(t, k);
        let updates = (0..7)
            .map(|_| {
                (
                    1 + self.rng.below(ROWS as usize) as i64,
                    self.rng.below(101) as i64 - 50,
                )
            })
            .collect();
        let id = ROWS + 1 + self.rng.below(CHURN_KEYS as usize) as i64;
        let churn = if self.models[k].rows.contains_key(&id) {
            Churn::Delete(id)
        } else {
            Churn::Insert(id, gen_row(&mut self.rng))
        };
        let w = Write { updates, churn };
        let class = if parked { "restore" } else { "write" };
        // A failed batch may have applied a prefix of its statements; the
        // model does not apply it, so later checks on the tenant show it.
        if let Some(n) = rec.op(class, || t.db_batch(&self.names[k], w.statements())) {
            let want = self.models[k].apply(&w);
            rec.check(n == want, || {
                format!("{}: transaction affected {n}, model {want}", self.names[k])
            });
        }
    }
}

impl Workload for Tenants {
    /// Create and fill every tenant database.
    fn setup(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        for k in 0..TENANTS {
            let name = self.names[k].clone();
            self.touch(t, k);
            rec.op("db_open", || t.db_open(&name));
            rec.op("schema", || {
                t.db_batch(
                    &name,
                    vec![
                        "CREATE TABLE acct (id INTEGER PRIMARY KEY, grp INTEGER, bal INTEGER, note TEXT)".into(),
                        "CREATE INDEX acct_grp ON acct (grp)".into(),
                    ],
                )
            });
            let rows: Vec<(i64, Row)> = self.models[k]
                .rows
                .iter()
                .map(|(i, r)| (*i, r.clone()))
                .collect();
            for chunk in rows.chunks(250) {
                let mut stmts = vec!["BEGIN".to_string()];
                stmts.extend(chunk.iter().map(|(id, r)| insert_sql(*id, r)));
                stmts.push("COMMIT".into());
                if let Some(n) = rec.op("populate", || t.db_batch(&name, stmts)) {
                    rec.check(n == chunk.len() as u64, || {
                        format!("{name}: populate inserted {n}")
                    });
                }
            }
        }
    }

    fn round(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        let mut kinds: Vec<u8> = [[0u8; 35].as_slice(), &[1; 5], &[2; 10], &[3]].concat();
        self.rng.shuffle(&mut kinds);
        for kind in kinds {
            let k = self.hot();
            match kind {
                0 => self.read(t, rec, k),
                1 => self.scan(t, rec, k),
                2 => self.write(t, rec, k),
                _ => {
                    // Cold tenants on alternating shards: HOT, HOT + 1, ...
                    let cold = HOT + self.cold % (TENANTS - HOT);
                    self.cold += 1;
                    self.read(t, rec, cold);
                }
            }
        }
    }

    /// A full scan per tenant against the model's row count and column
    /// sum, then close, checking the file stayed clear of the PFS fault.
    fn finish(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        for k in 0..TENANTS {
            let name = self.names[k].clone();
            self.touch(t, k);
            let m = &self.models[k];
            if let Some(rows) = rec.op("verify", || {
                t.db_query(&name, "SELECT count(*), sum(bal) FROM acct")
            }) {
                let want = vec![vec![
                    SqlValue::Int(m.rows.len() as i64),
                    SqlValue::Int(m.sum_bal()),
                ]];
                rec.check(rows == want, || {
                    format!("{name}: full scan {rows:?}, model {want:?}")
                });
            }
            if let Some(bytes) = rec.op("verify", || t.db_close(&name)) {
                rec.check(bytes <= MAX_DB_BYTES, || {
                    format!("{name}: database grew to {bytes} bytes")
                });
            }
            self.lru.close(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(grp: i64, bal: i64) -> Row {
        Row {
            grp,
            bal,
            note: "n".into(),
        }
    }

    #[test]
    fn model_applies_transactions_and_answers_queries() {
        let mut m = TenantModel {
            rows: [(1, row(3, 100)), (2, row(5, 200))].into_iter().collect(),
        };
        let w = Write {
            updates: vec![(1, 5), (1, -2), (2, 10)],
            churn: Churn::Insert(9, row(4, 7)),
        };
        assert_eq!(m.apply(&w), 4);
        assert_eq!(
            m.point(1),
            vec![vec![
                SqlValue::Int(3),
                SqlValue::Int(103),
                SqlValue::Text("n".into())
            ]]
        );
        assert_eq!(m.point(8), Vec::<Vec<SqlValue>>::new());
        assert_eq!(m.count_groups(3, 4), 2);
        assert_eq!(m.sum_bal(), 103 + 210 + 7);
        assert_eq!(
            m.apply(&Write {
                updates: vec![],
                churn: Churn::Delete(9)
            }),
            1
        );
        assert_eq!(m.rows.len(), 2);
        let sql = w.statements();
        assert_eq!(sql.first().map(String::as_str), Some("BEGIN"));
        assert_eq!(sql.last().map(String::as_str), Some("COMMIT"));
        assert_eq!(sql[4], "INSERT INTO acct VALUES (9, 4, 7, 'n')");
    }

    #[test]
    fn model_matches_the_engine() {
        // The same statements on an in-memory database give the model's
        // answers.
        let mut rng = Rng::new(1);
        let mut m = TenantModel {
            rows: (1..=50).map(|id| (id, gen_row(&mut rng))).collect(),
        };
        let mut db = twine_sqldb::Connection::open_memory();
        db.execute(
            "CREATE TABLE acct (id INTEGER PRIMARY KEY, grp INTEGER, bal INTEGER, note TEXT)",
        )
        .unwrap();
        db.execute("CREATE INDEX acct_grp ON acct (grp)").unwrap();
        for (id, r) in &m.rows {
            db.execute(&insert_sql(*id, r)).unwrap();
        }
        for i in 0..20 {
            let churn = if i % 2 == 0 {
                Churn::Insert(60 + i, gen_row(&mut rng))
            } else {
                Churn::Delete(59 + i)
            };
            let w = Write {
                updates: vec![(1 + i, -3), (2 + i, 4)],
                churn,
            };
            let mut n = 0;
            for s in w.statements() {
                n += db.execute(&s).unwrap().affected;
            }
            assert_eq!(n, m.apply(&w));
        }
        for id in [1, 7, 60, 61, 62, 99] {
            let rows = db
                .query(&format!("SELECT grp, bal, note FROM acct WHERE id = {id}"))
                .unwrap();
            assert_eq!(rows, m.point(id), "id {id}");
        }
        for lo in [0, 10, 50, 97] {
            let rows = db
                .query(&format!(
                    "SELECT count(*) FROM acct WHERE grp BETWEEN {lo} AND {}",
                    lo + 2
                ))
                .unwrap();
            assert_eq!(rows, vec![vec![SqlValue::Int(m.count_groups(lo, lo + 2))]]);
        }
        let rows = db.query("SELECT count(*), sum(bal) FROM acct").unwrap();
        assert_eq!(
            rows,
            vec![vec![
                SqlValue::Int(m.rows.len() as i64),
                SqlValue::Int(m.sum_bal())
            ]]
        );
    }
}
