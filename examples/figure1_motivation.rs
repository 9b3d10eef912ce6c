//! The paper's Figure 1 motivating example, executed.
//!
//! Three source entities u1–u3 must align to targets v1–v3 through the
//! fused similarity matrix of Figure 1(b). Independent (greedy) decisions
//! produce two mismatches — u2 and u3 chase targets already claimed by
//! stronger candidates — while the stable-matching formulation (deferred
//! acceptance, Figure 4) and the Hungarian alternative both recover the
//! ground truth.
//!
//! ```sh
//! cargo run --release --example figure1_motivation
//! ```

use ceaff::matching::{Greedy, Hungarian, Matcher, StableMarriage};
use ceaff::sim::{SimStore, SimilarityMatrix};
use ceaff::tensor::Matrix;

fn show(name: &str, matcher: &dyn Matcher, m: &SimStore) {
    let matching = matcher.matching_store(m);
    let labels: Vec<String> = matching
        .pairs()
        .iter()
        .map(|&(i, j)| format!("u{} -> v{}", i + 1, j + 1))
        .collect();
    let correct = matching.pairs().iter().filter(|&&(i, j)| i == j).count();
    println!(
        "{name:<16} {}   ({} of 3 correct, one-to-one: {})",
        labels.join(", "),
        correct,
        matching.is_one_to_one()
    );
}

fn main() {
    // Figure 1(b): rows u1..u3, columns v1..v3; ground truth is diagonal.
    let m = SimilarityMatrix::new(Matrix::from_rows(&[
        &[0.9, 0.6, 0.1],
        &[0.7, 0.5, 0.2],
        &[0.2, 0.4, 0.2],
    ]));
    println!("fused similarity matrix (Figure 1b):");
    for i in 0..3 {
        println!("  u{}: {:?}", i + 1, m.row(i).to_vec());
    }
    println!();
    let m = SimStore::Dense(m);
    show("independent:", &Greedy, &m);
    show("stable (DAA):", &StableMarriage, &m);
    show("hungarian:", &Hungarian, &m);

    // The collective results also contain no blocking pair.
    let stable = StableMarriage.matching_store(&m);
    assert_eq!(stable.find_blocking_pair(&m), None);
    println!("\nstable matching verified: no blocking pairs");
}
