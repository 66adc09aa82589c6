//! Plain-text rendering of breakdown reports (what the figure binaries
//! print).

use crate::{BreakdownReport, JavaBreakdown};
use jvm::MemoryCategory;
use std::fmt::Write as _;

/// Renders the per-guest table behind Figs. 2/4: owner-oriented usage by
/// component plus each guest's TPS saving.
///
/// # Example
///
/// ```
/// use analysis::{render_guest_table, BreakdownReport};
///
/// let report = BreakdownReport { guests: vec![], javas: vec![], total_owned_mib: 0.0 };
/// let table = render_guest_table(&report);
/// assert!(table.contains("Guest"));
/// ```
#[must_use]
pub fn render_guest_table(report: &BreakdownReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "Guest", "Java MiB", "Other MiB", "Kernel MiB", "VM MiB", "Usage MiB", "Saving MiB"
    );
    for g in &report.guests {
        let _ = writeln!(
            out,
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>12.1}",
            g.name,
            g.java_owned_mib,
            g.other_owned_mib,
            g.kernel_owned_mib,
            g.vm_overhead_owned_mib,
            g.owned_total_mib(),
            g.tps_saving_mib(),
        );
    }
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12.1} {:>12.1}",
        "TOTAL",
        "",
        "",
        "",
        "",
        report.total_owned_mib,
        report
            .guests
            .iter()
            .map(|g| g.tps_saving_mib())
            .sum::<f64>(),
    );
    out
}

/// One-line summary of a Java process for logs and examples.
#[must_use]
pub fn summarize_java(j: &JavaBreakdown) -> String {
    format!(
        "{} {}: resident {:.1} MiB, owned {:.1} MiB, saved {:.1} MiB ({:.1} % of class metadata)",
        j.guest_name,
        j.pid,
        j.resident_total_mib(),
        j.owned_total_mib(),
        j.saved_total_mib(),
        100.0 * j.class_metadata_saving_fraction(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CategoryUsage, GuestBreakdown};
    use oskernel::Pid;
    use std::collections::BTreeMap;

    fn sample_report() -> BreakdownReport {
        let mut categories = BTreeMap::new();
        categories.insert(
            MemoryCategory::ClassMetadata,
            CategoryUsage {
                resident_mib: 110.0,
                owned_mib: 11.0,
                tps_shared_mib: 99.0,
                pss_mib: 35.0,
            },
        );
        BreakdownReport {
            guests: vec![GuestBreakdown {
                name: "vm1".into(),
                java_owned_mib: 700.0,
                other_owned_mib: 20.0,
                kernel_owned_mib: 219.0,
                vm_overhead_owned_mib: 26.0,
                resident_mib: 1100.0,
            }],
            javas: vec![JavaBreakdown {
                guest: 0,
                guest_name: "vm1".into(),
                pid: Pid(101),
                categories,
            }],
            total_owned_mib: 965.0,
        }
    }

    #[test]
    fn guest_table_contains_rows_and_total() {
        let table = render_guest_table(&sample_report());
        assert!(table.contains("vm1"));
        assert!(table.contains("TOTAL"));
        assert!(table.contains("965.0"));
    }

    #[test]
    fn summary_mentions_class_metadata_fraction() {
        let report = sample_report();
        let line = summarize_java(&report.javas[0]);
        assert!(line.contains("90.0 %"), "{line}");
    }
}

/// Renders the per-guest rollup as CSV (for plotting Figs. 2/4
/// externally).
///
/// # Example
///
/// ```
/// use analysis::{guest_csv, BreakdownReport};
///
/// let report = BreakdownReport { guests: vec![], javas: vec![], total_owned_mib: 0.0 };
/// assert!(guest_csv(&report).starts_with("guest,"));
/// ```
#[must_use]
pub fn guest_csv(report: &BreakdownReport) -> String {
    let mut out = String::from(
        "guest,java_owned_mib,other_owned_mib,kernel_owned_mib,vm_overhead_mib,usage_mib,tps_saving_mib\n",
    );
    for g in &report.guests {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
            g.name,
            g.java_owned_mib,
            g.other_owned_mib,
            g.kernel_owned_mib,
            g.vm_overhead_owned_mib,
            g.owned_total_mib(),
            g.tps_saving_mib(),
        );
    }
    out
}

/// Renders the per-JVM per-category rollup as CSV (Figs. 3/5).
///
/// # Example
///
/// ```
/// use analysis::{java_csv, BreakdownReport};
///
/// let report = BreakdownReport { guests: vec![], javas: vec![], total_owned_mib: 0.0 };
/// assert!(java_csv(&report).starts_with("guest,pid,category,"));
/// ```
#[must_use]
pub fn java_csv(report: &BreakdownReport) -> String {
    let mut out =
        String::from("guest,pid,category,resident_mib,owned_mib,tps_shared_mib,pss_mib\n");
    for j in &report.javas {
        for cat in MemoryCategory::all() {
            let u = j.category(*cat);
            let _ = writeln!(
                out,
                "{},{},{},{:.3},{:.3},{:.3},{:.3}",
                j.guest_name,
                j.pid.0,
                cat,
                u.resident_mib,
                u.owned_mib,
                u.tps_shared_mib,
                u.pss_mib,
            );
        }
    }
    out
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use crate::{CategoryUsage, GuestBreakdown, JavaBreakdown};
    use oskernel::Pid;
    use std::collections::BTreeMap;

    #[test]
    fn csv_has_one_row_per_guest_and_category() {
        let mut categories = BTreeMap::new();
        categories.insert(
            MemoryCategory::JavaHeap,
            CategoryUsage {
                resident_mib: 530.0,
                owned_mib: 530.0,
                tps_shared_mib: 3.7,
                pss_mib: 530.0,
            },
        );
        let report = BreakdownReport {
            guests: vec![
                GuestBreakdown {
                    name: "vm1".into(),
                    ..GuestBreakdown::default()
                },
                GuestBreakdown {
                    name: "vm2".into(),
                    ..GuestBreakdown::default()
                },
            ],
            javas: vec![JavaBreakdown {
                guest: 0,
                guest_name: "vm1".into(),
                pid: Pid(42),
                categories,
            }],
            total_owned_mib: 0.0,
        };
        let guests = guest_csv(&report);
        assert_eq!(guests.lines().count(), 3); // header + 2 guests
        let javas = java_csv(&report);
        // header + 7 categories for the one JVM.
        assert_eq!(javas.lines().count(), 8);
        assert!(javas.contains("vm1,42,Java heap,530.000,530.000,3.700,530.000"));
    }
}
