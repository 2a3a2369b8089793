//! The workload generator is a pure function of its seed, and the
//! ground-truth scores do not depend on the seed at all.

use std::path::PathBuf;

use tcpa_perfbench::reference::{file_report, recovered_share, truth_in_set};
use tcpa_perfbench::workload::{generate, Corpus, Workload};

/// A short prefix of the mix keeps the test fast.
const CASES: usize = 10;

fn corpus(workload: Workload, seed: u64, tag: &str) -> Corpus {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("seed-{}-{seed}-{tag}", workload.name()));
    generate(workload, seed, &dir, CASES).expect("generates")
}

fn files(corpus: &Corpus) -> Vec<Vec<u8>> {
    corpus
        .inputs
        .iter()
        .map(|i| std::fs::read(&i.path).expect("readable"))
        .collect()
}

#[test]
fn one_seed_gives_identical_bytes_and_another_seed_different_ones() {
    for workload in Workload::ALL {
        let a = corpus(workload, 11, "a");
        let b = corpus(workload, 11, "b");
        let c = corpus(workload, 12, "c");
        assert_eq!(a.len(), CASES * workload.cycles());
        assert_eq!(files(&a), files(&b), "{}", workload.name());
        assert_eq!(a.digest, b.digest);
        assert_ne!(files(&a), files(&c), "{}", workload.name());
        assert_ne!(a.digest, c.digest);
    }
}

/// `(truth_in_close_set, salvage_recovered_share)` computed in-process.
fn ground_truth(workload: Workload, corpus: &Corpus) -> (usize, f64) {
    let mut hits = 0;
    let mut ingested = 0u64;
    for input in &corpus.inputs {
        let report = file_report(workload, input).expect("analyzes");
        hits += usize::from(truth_in_set(workload, input, &report.report));
        ingested += report.records as u64;
    }
    (hits, recovered_share(corpus, ingested))
}

#[test]
fn ground_truth_scores_repeat_exactly_across_seeds() {
    for workload in [Workload::SenderCensus, Workload::ReceiverSalvage] {
        let first = ground_truth(workload, &corpus(workload, 21, "truth"));
        let second = ground_truth(workload, &corpus(workload, 22, "truth"));
        assert_eq!(first, second, "{}", workload.name());
        assert!(first.0 > 0 && first.1 > 0.0, "{first:?}");
    }
}
