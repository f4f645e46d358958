//! Verifies every qualitative finding of the paper against the
//! reproduction and prints a HOLDS/DEVIATES report.
use cpc_bench::FigureArgs;
use cpc_workload::expectations::{render_findings, verify_findings};

fn main() {
    let args = FigureArgs::parse();
    let system = args.system();
    let mut lab = args.lab(&system);
    let findings = verify_findings(&mut lab);
    println!("{}", render_findings(&findings));
    let failed = findings.iter().filter(|f| !f.holds).count();
    println!(
        "\n{} of {} findings hold",
        findings.len() - failed,
        findings.len()
    );
    println!("{}", cpc_charmm::trajectory_counts());
    args.finish(&lab);
    if failed > 0 {
        std::process::exit(1);
    }
}
