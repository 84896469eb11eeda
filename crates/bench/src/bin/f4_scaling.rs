//! F4 — speedup vs. processor count: MSSP with 1, 2, 3, 7 and 15 slaves
//! (2, 3, 4, 8 and 16 cores including the master). The paper's scaling
//! saturates once the master becomes the critical path.

use mssp_bench::{evaluate, harness_scale, print_header};
use mssp_distill::DistillConfig;
use mssp_stats::{geomean, Table};
use mssp_timing::TimingConfig;
use mssp_workloads::workloads;

fn main() {
    let slave_counts = [1usize, 2, 3, 7, 15];
    print_header(
        "F4",
        "Speedup vs. number of processors",
        "columns are total cores (1 master + N slaves); aggressive distillation",
    );
    let mut headers = vec!["benchmark"];
    let labels: Vec<String> = slave_counts.iter().map(|s| format!("{}c", s + 1)).collect();
    headers.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(headers);
    let mut per_count: Vec<Vec<f64>> = vec![Vec::new(); slave_counts.len()];
    for w in workloads() {
        let mut row = vec![w.name.to_string()];
        for (i, &slaves) in slave_counts.iter().enumerate() {
            let mut tcfg = TimingConfig::default();
            tcfg.engine.num_slaves = slaves;
            let e = evaluate(w, harness_scale(w, 2), &DistillConfig::default(), &tcfg);
            row.push(format!("{:.3}", e.speedup));
            per_count[i].push(e.speedup);
        }
        table.row(row);
    }
    let mut geo_row = vec!["geomean".to_string()];
    for col in &per_count {
        geo_row.push(format!("{:.3}", geomean(col)));
    }
    table.row(geo_row);
    println!("{}", table.render());
}
