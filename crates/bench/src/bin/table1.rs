//! Regenerates Table I: relative arrival-time prediction changes when
//! perturbing CirSTAG-ranked unstable vs stable pins.
//!
//! Usage: `cargo run -p cirstag-bench --release --bin table1 [-- --quick]`
//! `--quick` runs the three smallest benchmarks only.

use cirstag::CirStagConfig;
use cirstag_bench::case_a::{table1_row, TimingCase, TimingCaseConfig};
use cirstag_bench::report::{pair_cell, render_table};
use cirstag_circuit::benchmark_suite;
use cirstag_embed::KnnMethod;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let suite = benchmark_suite();
    let specs: Vec<_> = if quick {
        suite.into_iter().take(3).collect()
    } else {
        suite
    };
    let fractions = [0.05, 0.10, 0.15];
    let scales = [5.0, 10.0];

    let mut headers: Vec<String> = vec!["benchmark".into(), "pins".into(), "R2".into()];
    for &s in &scales {
        for &f in &fractions {
            headers.push(format!("s{s:.0} p{:.0}% mean", f * 100.0));
            headers.push(format!("s{s:.0} p{:.0}% max", f * 100.0));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut scale_gains = Vec::new();
    for spec in &specs {
        eprintln!(
            "[table1] building {} ({} gates)…",
            spec.name, spec.num_gates
        );
        let mut case = TimingCase::build(
            spec.name,
            &TimingCaseConfig {
                num_gates: spec.num_gates,
                seed: spec.seed,
                epochs: 260,
                hidden: 32,
            },
        )
        .expect("benchmark construction");
        eprintln!("[table1]   GNN R² = {:.4}", case.r2);
        let n = case.timing.num_pins();
        let mut cirstag_cfg = CirStagConfig {
            embedding_dim: 16,
            num_eigenpairs: 25,
            knn_k: 10,
            feature_weight: 0.0,
            ..Default::default()
        };
        cirstag_cfg.knn.method = KnnMethod::auto(n);
        let cells = table1_row(&mut case, cirstag_cfg, &fractions, &scales).expect("table row");
        let mut row = vec![
            spec.name.to_string(),
            n.to_string(),
            format!("{:.4}", case.r2),
        ];
        for cell in &cells {
            row.push(pair_cell(cell.unstable.mean(), cell.stable.mean()));
            row.push(pair_cell(cell.unstable.max(), cell.stable.max()));
            if cell.stable.mean() > 0.0 {
                ratios.push(cell.unstable.mean() / cell.stable.mean());
            }
        }
        // Scale-doubling factor at 10% perturbation: mean(10x) / mean(5x).
        let m5 = cells
            .iter()
            .find(|c| c.scale == 5.0 && (c.fraction - 0.10).abs() < 1e-9)
            .map(|c| c.unstable.mean());
        let m10 = cells
            .iter()
            .find(|c| c.scale == 10.0 && (c.fraction - 0.10).abs() < 1e-9)
            .map(|c| c.unstable.mean());
        if let (Some(a), Some(b)) = (m5, m10) {
            if a > 0.0 {
                scale_gains.push(b / a);
            }
        }
        rows.push(row);
    }

    println!("\nTable I reproduction — relative change of GNN arrival predictions");
    println!("(each cell: unstable/stable, perturbing that fraction of pins at that cap scale)\n");
    println!("{}", render_table(&header_refs, &rows));

    let gmean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
        }
    };
    println!("shape checks:");
    println!(
        "  geometric-mean unstable/stable separation: {:.1}x (paper: 2-3 orders of magnitude)",
        gmean(&ratios)
    );
    println!(
        "  mean 10x-vs-5x gain at 10% perturbation:   {:.2}x (paper: ~2x)",
        gmean(&scale_gains)
    );
}
