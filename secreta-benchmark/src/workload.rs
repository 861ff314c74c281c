//! The four workloads: what each generates, and the `secreta compare`
//! invocation it measures. Why each one exists is recorded in
//! `BENCHMARK.json` and `README.md`.

use secreta_core::config::{Bounding, MethodSpec, RelAlgo, TxAlgo};
use secreta_core::data::{csv, CsvOptions};
use secreta_core::gen::DatasetSpec;
use secreta_core::orchestrator::job_key;
use secreta_core::store::RunKey;
use secreta_core::{Configuration, Sweep, VaryingParam};
use std::path::{Path, PathBuf};

pub const NAMES: [&str; 4] = ["rel-compare", "rel-are", "tx-compare", "replay"];

/// `--smoke` divides every row count by this.
const SMOKE_DIVISOR: usize = 50;

/// Seed of every configuration (where Cluster starts) and of the query
/// workload. Only the dataset follows the benchmark's `--seed`: which
/// attributes the queries constrain, and where Cluster starts, move a
/// run's cost by tens of percent from seed to seed.
pub const FIXED_SEED: u64 = 42;

#[derive(Debug, Clone, Copy)]
enum Data {
    /// Relational attributes plus an `Items` transaction column.
    Adult,
    /// Relational attributes only.
    Census,
    /// An `Items` transaction column only.
    Basket { items: usize },
}

/// One workload at one seed.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    data: Data,
    pub rows: usize,
    /// `--queries` of the invocation (0 = no ARE workload).
    pub queries: usize,
    /// Seed of the generated dataset.
    pub seed: u64,
    /// The comparison every measured invocation runs.
    pub configs: Vec<Configuration>,
    /// Configurations whose runs are already in the store when a
    /// measured invocation starts; empty for the cold workloads.
    pub base: Vec<Configuration>,
}

/// One expanded (configuration, sweep point) job, keyed as the CLI
/// keys it in the run store.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub param: VaryingParam,
    pub value: usize,
    pub spec: MethodSpec,
    pub seed: u64,
    pub key: RunKey,
}

/// Files the invocations read, under one work directory.
#[derive(Debug)]
pub struct Inputs {
    pub data: PathBuf,
    pub config: PathBuf,
    pub base_config: PathBuf,
}

fn k_sweep(start: usize, end: usize, step: usize) -> Sweep {
    Sweep {
        param: VaryingParam::K,
        start,
        end,
        step,
    }
}

fn config(label: &str, spec: MethodSpec, sweep: Sweep) -> Configuration {
    Configuration {
        label: label.to_owned(),
        spec,
        sweep,
        seed: FIXED_SEED,
    }
}

fn relational(algo: RelAlgo) -> MethodSpec {
    MethodSpec::Relational { algo, k: 0 }
}

fn transaction(algo: TxAlgo) -> MethodSpec {
    MethodSpec::Transaction { algo, k: 0, m: 2 }
}

impl Workload {
    /// The workload called `name` at `seed`, or `None` for an unknown
    /// name.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let k3 = k_sweep(5, 25, 10);
        let (name, data, rows, queries, configs, base) = match name {
            "rel-compare" => {
                let mut configs: Vec<Configuration> = [
                    ("cluster", RelAlgo::Cluster),
                    ("incognito", RelAlgo::Incognito),
                    ("topdown", RelAlgo::TopDown),
                    ("bottomup", RelAlgo::BottomUp),
                ]
                .into_iter()
                .map(|(label, algo)| config(label, relational(algo), k3))
                .collect();
                let rt = MethodSpec::Rt {
                    rel: RelAlgo::Cluster,
                    tx: TxAlgo::Apriori,
                    bounding: Bounding::RMerge,
                    k: 0,
                    m: 2,
                    delta: 4,
                };
                configs.push(config("rt-cluster-apriori", rt, k3));
                ("rel-compare", Data::Adult, 3_000, 0, configs, Vec::new())
            }
            "rel-are" => {
                let configs = [
                    ("incognito", RelAlgo::Incognito),
                    ("topdown", RelAlgo::TopDown),
                    ("bottomup", RelAlgo::BottomUp),
                ]
                .into_iter()
                .map(|(label, algo)| config(label, relational(algo), k3))
                .collect();
                ("rel-are", Data::Census, 1_500, 20, configs, Vec::new())
            }
            "tx-compare" => {
                let configs = [
                    ("coat", TxAlgo::Coat),
                    ("pcta", TxAlgo::Pcta),
                    ("apriori", TxAlgo::Apriori),
                    ("lra", TxAlgo::Lra { partitions: 2 }),
                    ("vpa", TxAlgo::Vpa { parts: 4 }),
                ]
                .into_iter()
                .map(|(label, algo)| config(label, transaction(algo), k3))
                .collect();
                let data = Data::Basket { items: 80 };
                ("tx-compare", data, 5_000, 0, configs, Vec::new())
            }
            "replay" => {
                // the stored sweep stops at k=100; each measured
                // invocation extends TopDown's by one point, so 20 of its
                // 21 jobs are store hits (one miss: two concurrent ones
                // make peak RSS bimodal)
                let sweep = |topdown_end| {
                    [
                        ("incognito", RelAlgo::Incognito, 100),
                        ("topdown", RelAlgo::TopDown, topdown_end),
                    ]
                    .into_iter()
                    .map(|(label, algo, end)| config(label, relational(algo), k_sweep(10, end, 10)))
                    .collect::<Vec<_>>()
                };
                ("replay", Data::Census, 100_000, 0, sweep(110), sweep(100))
            }
            _ => return None,
        };
        Some(Workload {
            name,
            data,
            rows: if smoke { rows / SMOKE_DIVISOR } else { rows },
            queries,
            seed,
            configs,
            base,
        })
    }

    /// The transaction column the CLI is told about with `--tx`.
    pub fn tx_column(&self) -> Option<&'static str> {
        match self.data {
            Data::Adult | Data::Basket { .. } => Some("Items"),
            Data::Census => None,
        }
    }

    /// How the dataset file is read and written: with a header, and
    /// with the transaction column when there is one.
    pub fn csv_options(&self) -> CsvOptions {
        CsvOptions {
            transaction_column: self.tx_column().map(str::to_owned),
            ..CsvOptions::default()
        }
    }

    /// Generate the dataset from the seed and write it, with the
    /// configuration files, into `dir`.
    pub fn write_inputs(&self, dir: &Path) -> Result<Inputs, String> {
        let spec = match self.data {
            Data::Adult => DatasetSpec::adult_like(self.rows, self.seed),
            Data::Census => DatasetSpec::census(self.rows, self.seed),
            Data::Basket { items } => DatasetSpec::basket(self.rows, items, self.seed),
        };
        let inputs = Inputs {
            data: dir.join("data.csv"),
            config: dir.join("config.json"),
            base_config: dir.join("base.json"),
        };
        csv::write_table_path(&spec.generate(), &inputs.data, &self.csv_options())
            .map_err(|e| e.to_string())?;
        for (path, configs) in [
            (&inputs.config, &self.configs),
            (&inputs.base_config, &self.base),
        ] {
            let text = serde_json::to_string(configs).map_err(|e| e.to_string())?;
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(inputs)
    }

    /// Arguments of `secreta compare` running `config` against the
    /// workload's dataset, with results in `store` and charts in `out`.
    pub fn compare_args(
        &self,
        inputs: &Inputs,
        config: &Path,
        store: &Path,
        out: &Path,
        threads: usize,
    ) -> Vec<String> {
        let mut args: Vec<String> = vec!["compare".into(), inputs.data.display().to_string()];
        if let Some(tx) = self.tx_column() {
            args.extend(["--tx".into(), tx.into()]);
        }
        args.extend(["--config".into(), config.display().to_string()]);
        if self.queries > 0 {
            args.extend(["--queries".into(), self.queries.to_string()]);
        }
        args.extend([
            "--seed".into(),
            FIXED_SEED.to_string(),
            "--threads".into(),
            threads.to_string(),
            "--store-dir".into(),
            store.display().to_string(),
            "--out-dir".into(),
            out.display().to_string(),
        ]);
        args
    }

    /// Expand `configs` into jobs exactly as the orchestrator does:
    /// configuration order, then sweep order, keys from `job_key`.
    pub fn jobs(configs: &[Configuration], digest: &str) -> Vec<Job> {
        let mut jobs = Vec::new();
        for cfg in configs {
            for value in cfg.sweep.values() {
                let mut spec = cfg.spec.clone();
                match cfg.sweep.param {
                    VaryingParam::K => spec.set_k(value),
                    VaryingParam::M => spec.set_m(value),
                    VaryingParam::Delta => spec.set_delta(value),
                }
                let key = job_key(digest, &spec, cfg.seed, Some((cfg.sweep.param, value)));
                jobs.push(Job {
                    label: cfg.label.clone(),
                    param: cfg.sweep.param,
                    value,
                    spec,
                    seed: cfg.seed,
                    key,
                });
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{load_session, Tracer};
    use secreta_core::store::RunStore;

    #[test]
    fn every_named_workload_exists() {
        for name in NAMES {
            let w = Workload::new(name, 1, false).unwrap();
            let smoke = Workload::new(name, 1, true).unwrap();
            assert_eq!(w.name, name);
            assert_eq!(smoke.rows, w.rows / SMOKE_DIVISOR);
            assert!(!w.configs.is_empty());
        }
        assert!(Workload::new("no-such-workload", 1, false).is_none());
    }

    /// The keys the benchmark derives (its session set-up, then the
    /// orchestrator's expansion) must be the keys `secreta compare`
    /// stores runs under, or the replay workload would never hit.
    #[test]
    fn expanded_keys_equal_the_keys_the_cli_stores() {
        let exe = crate::secreta_exe().expect("the CLI is built next to the tests");
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("keys-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sweep = k_sweep(2, 6, 2);
        let w = Workload {
            name: "keys",
            data: Data::Census,
            rows: 300,
            queries: 5,
            seed: 3,
            configs: vec![
                config("incognito", relational(RelAlgo::Incognito), sweep),
                config("topdown", relational(RelAlgo::TopDown), sweep),
            ],
            base: Vec::new(),
        };
        let inputs = w.write_inputs(&dir).unwrap();
        let store = dir.join("store");
        let args = w.compare_args(&inputs, &inputs.config, &store, &dir.join("out"), 2);
        let cli = std::process::Command::new(exe)
            .args(&args)
            .output()
            .unwrap();
        let (_, digest) = load_session(&w, &inputs.data, &mut Tracer::default()).unwrap();
        let mut want: Vec<String> = Workload::jobs(&w.configs, &digest)
            .into_iter()
            .map(|j| j.key.0)
            .collect();
        let mut got: Vec<String> = RunStore::open(&store)
            .and_then(|s| s.list())
            .unwrap()
            .into_iter()
            .map(|m| m.key)
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            cli.status.success(),
            "{}",
            String::from_utf8_lossy(&cli.stderr)
        );
        want.sort();
        got.sort();
        assert_eq!(want.len(), 6);
        assert_eq!(got, want);
    }
}
