//! `polybench`: every PolyBench kernel at `Scale::Small` as a long-lived
//! session; one operation is `init`, `kernel` and `checksum` on a live
//! session. Guest execution does nearly all the work.

use std::sync::Arc;

use twine_polybench::kernels::{kernel_names, source_for, Kernel, Scale};
use twine_polybench::reference::reference_checksum;
use twine_polybench::runner::run_kernel_tier;
use twine_wasm::{ExecTier, Value};

use crate::record::Recorder;
use crate::target::{Plan, Target};
use crate::util::{name_on_shard, Rng};
use crate::Workload;

/// The kernels with a native Rust reference in `twine_polybench::reference`.
pub const REFERENCED: [&str; 5] = ["gemm", "atax", "trisolv", "jacobi-2d", "floyd-warshall"];

pub const PLAN: Plan = Plan {
    live_budget: None,
    pool_slots: None,
};

pub struct KernelInput {
    pub name: &'static str,
    pub wasm: Vec<u8>,
    /// Expected checksum bits: the native reference for [`REFERENCED`],
    /// the Baseline tier's for the rest.
    pub checksum_bits: u64,
    /// Metered instructions of one operation on the Baseline tier; every
    /// tier must meter the same.
    pub minstr: u64,
}

/// Inputs: the five referenced kernels plus the other 25, in a seeded
/// order. MiniC → Wasm compilation and the Baseline runs that give the
/// expected outputs happen here, untimed.
pub fn inputs(seed: u64) -> Vec<KernelInput> {
    let mut others: Vec<&'static str> = kernel_names()
        .into_iter()
        .filter(|n| !REFERENCED.contains(n))
        .collect();
    let mut order: Vec<&'static str> = REFERENCED.to_vec();
    order.append(&mut others);
    Rng::new(seed).fork(1).shuffle(&mut order);
    order
        .into_iter()
        .map(|name| {
            let kernel = Kernel {
                name,
                source: source_for(name, Scale::Small),
            };
            let wasm = twine_minicc::compile_to_bytes(&kernel.source).expect("kernel compiles");
            let base = run_kernel_tier(&kernel, ExecTier::Baseline).expect("baseline run");
            let checksum = if REFERENCED.contains(&name) {
                reference_checksum(name, Scale::Small).expect("referenced kernel")
            } else {
                base.checksum
            };
            KernelInput {
                name,
                wasm,
                checksum_bits: checksum.to_bits(),
                minstr: base.meter.total(),
            }
        })
        .collect()
}

pub struct Polybench {
    kernels: Arc<Vec<KernelInput>>,
    names: Vec<String>,
}

impl Polybench {
    pub fn new(seed: u64, kernels: Arc<Vec<KernelInput>>) -> Self {
        let names = kernels
            .iter()
            .enumerate()
            .map(|(i, k)| name_on_shard(&format!("pb-{}", k.name), seed, i % 2, 2))
            .collect();
        Self { kernels, names }
    }
}

impl Workload for Polybench {
    fn setup(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        for (k, name) in self.kernels.iter().zip(&self.names) {
            rec.op("open", || t.open(name, &k.wasm));
        }
    }

    fn round(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        for (k, name) in self.kernels.iter().zip(&self.names) {
            // One class per kernel: their costs differ tenfold.
            let out = rec.op(k.name, || {
                let mut minstr = 0;
                for f in ["init", "kernel"] {
                    minstr += t.invoke(name, f, &[])?.minstr;
                }
                let r = t.invoke(name, "checksum", &[])?;
                Ok((r.values, minstr + r.minstr))
            });
            if let Some((values, minstr)) = out {
                rec.minstr += minstr;
                let bits_match =
                    matches!(values[..], [Value::F64(x)] if x.to_bits() == k.checksum_bits);
                rec.check(bits_match, || {
                    format!(
                        "{}: checksum {values:?}, expected {}",
                        k.name,
                        f64::from_bits(k.checksum_bits)
                    )
                });
                rec.check(minstr == k.minstr, || {
                    format!(
                        "{}: metered {minstr} instructions, Baseline tier {}",
                        k.name, k.minstr
                    )
                });
            }
        }
    }

    fn finish(&mut self, t: &mut dyn Target, rec: &mut Recorder) {
        for name in &self.names {
            rec.op("close", || t.close(name));
        }
    }
}
