//! `wasm-serve`: session churn over the handler guest with pooling on.
//!
//! A keep-alive window of open sessions sits well above the live budget,
//! so the control plane parks and restores continuously. Each round one
//! session arrives (open, `handle`, WASI request), two older ones are
//! revisited (first `get`, which restores a parked session and shows
//! whether its memory survived, then `handle` or a WASI request), and the
//! oldest expires (close). Every round is the same eight operations.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use twine_wasm::Value;

use crate::guest::handle_model;
use crate::record::{Lru, Recorder};
use crate::target::{Plan, Target};
use crate::util::{name_on_shard, Rng};
use crate::Workload;

/// Open sessions kept alive.
pub const WINDOW: usize = 64;
/// Live sessions per shard (the fleet of two holds 12 of the 64 live).
pub const LIVE_BUDGET: usize = 6;
pub const POOL_SLOTS: usize = 16;

pub const PLAN: Plan = Plan {
    live_budget: Some(LIVE_BUDGET),
    pool_slots: Some(POOL_SLOTS),
};

/// What the model says one session holds.
struct Model {
    name: String,
    slots: Vec<i32>,
    /// Slots a `handle` wrote, in order.
    written: Vec<usize>,
    /// Records of its `log.bin`, in file order.
    records: Vec<i64>,
}

pub struct Serve {
    wasm: Arc<Vec<u8>>,
    rng: Rng,
    seed: u64,
    next: usize,
    window: VecDeque<usize>,
    sessions: HashMap<usize, Model>,
    lru: Lru,
}

impl Serve {
    pub fn new(seed: u64, wasm: Arc<Vec<u8>>, t: &dyn Target) -> Self {
        Self {
            wasm,
            rng: Rng::new(seed).fork(2),
            seed,
            next: 0,
            window: VecDeque::new(),
            sessions: HashMap::new(),
            lru: Lru::new(t.shards(), t.live_budget()),
        }
    }

    fn touch(&mut self, t: &mut dyn Target, id: usize) -> bool {
        let (was_parked, victims) = self.lru.touch(&self.sessions[&id].name);
        for v in victims {
            t.parked(&v);
        }
        was_parked
    }

    fn arrive(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        let id = self.next;
        self.next += 1;
        let name = name_on_shard(&format!("ws{id}"), self.seed, id % 2, 2);
        rec.op("open", || t.open(&name, &self.wasm));
        self.sessions.insert(
            id,
            Model {
                name,
                slots: vec![0; 256],
                written: Vec::new(),
                records: Vec::new(),
            },
        );
        self.window.push_back(id);
        self.touch(t, id);
        self.handle(t, rec, id);
        self.wasi(t, rec, id);
    }

    fn handle(&mut self, t: &mut dyn Target, rec: &mut Recorder, id: usize) {
        self.touch(t, id);
        // Non-negative requests: `slots[req % 256]` stays inside the array.
        let req = if self.rng.below(8) == 0 {
            i32::MAX - self.rng.below(1 << 16) as i32
        } else {
            self.rng.below(1 << 30) as i32
        };
        let m = self.sessions.get_mut(&id).expect("open session");
        if let Some(r) = rec.op("warm", || t.invoke(&m.name, "handle", &[Value::I32(req)])) {
            rec.minstr += r.minstr;
            rec.wasi_calls += r.wasi_calls;
            let want = handle_model(req);
            rec.check(r.values == [Value::I32(want)], || {
                format!("handle({req}) = {:?}, model {want}", r.values)
            });
        }
        let slot = (req % 256) as usize;
        m.slots[slot] = handle_model(req);
        m.written.push(slot);
    }

    fn wasi(&mut self, t: &mut dyn Target, rec: &mut Recorder, id: usize) {
        self.touch(t, id);
        let record = self.rng.next_u64() as i64;
        let m = self.sessions.get_mut(&id).expect("open session");
        m.records.push(record);
        let n = m.records.len();
        let idx = if self.rng.below(2) == 0 {
            n - 1
        } else {
            self.rng.below(n)
        };
        let args = [Value::I64(record), Value::I32(idx as i32)];
        if let Some(r) = rec.op("wasi", || t.invoke(&m.name, "wasi", &args)) {
            rec.minstr += r.minstr;
            rec.wasi_calls += r.wasi_calls;
            let want = m.records[idx];
            rec.check(r.values == [Value::I64(want)], || {
                format!(
                    "{}: record {idx} read back {:?}, model {want}",
                    m.name, r.values
                )
            });
        }
    }

    /// `get` as the first request of a revisit: a restore if the session
    /// was parked.
    fn get(&mut self, t: &mut dyn Target, rec: &mut Recorder, id: usize) {
        let parked = self.touch(t, id);
        let m = &self.sessions[&id];
        let slot = if m.written.is_empty() {
            self.rng.below(256)
        } else {
            m.written[self.rng.below(m.written.len())]
        };
        let class = if parked { "restore" } else { "get" };
        if let Some(r) = rec.op(class, || {
            t.invoke(&m.name, "get", &[Value::I32(slot as i32)])
        }) {
            rec.minstr += r.minstr;
            let want = m.slots[slot];
            rec.check(r.values == [Value::I32(want)], || {
                format!(
                    "{}: get({slot}) = {:?} after {class}, model {want}",
                    m.name, r.values
                )
            });
        }
    }

    fn expire(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        let id = self.window.pop_front().expect("window is full");
        let m = self.sessions.remove(&id).expect("open session");
        rec.op("close", || t.close(&m.name));
        self.lru.close(&m.name);
    }
}

impl Workload for Serve {
    /// Fill the keep-alive window: the sessions a deployment holds open
    /// before it starts serving.
    fn setup(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        while self.window.len() < WINDOW {
            self.arrive(t, rec);
        }
    }

    fn round(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        self.arrive(t, rec);
        for k in 0..2 {
            // Revisit one of the older sessions (not the one that just
            // arrived).
            let id = self.window[self.rng.below(self.window.len() - 1)];
            self.get(t, rec, id);
            if k == 0 {
                self.handle(t, rec, id);
            } else {
                self.wasi(t, rec, id);
            }
        }
        self.expire(t, rec);
    }

    fn finish(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        while !self.window.is_empty() {
            self.expire(t, rec);
        }
    }
}
