//! Table IV: Tartan's area and storage overhead breakdown.
//!
//! Logic-area constants come from the paper's cited 14 nm datapoints
//! (\[78\], \[154\]); SRAM figures come from the live models (ANL metadata
//! table, NPU area model). The host is the paper's 133 mm² mobile die.

use tartan_npu::NpuAreaModel;
use tartan_prefetch::{Anl, Prefetcher};

/// One Table IV row.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Component label, e.g. `"4 x OVEC"`.
    pub component: String,
    /// Dedicated storage in bytes (0 = none).
    pub memory_bytes: u64,
    /// Silicon area in µm².
    pub area_um2: f64,
}

/// Host die area (133 mm², §VIII-E).
pub const HOST_DIE_UM2: f64 = 133.0 * 1_000_000.0;

/// OVEC address-generation logic per core (paper: 258 µm² for 4 cores).
const OVEC_UM2_PER_CORE: f64 = 258.0 / 4.0;

/// ANL comparator/control logic per core (paper: 30 µm² for 4 cores).
const ANL_LOGIC_UM2_PER_CORE: f64 = 30.0 / 4.0;

/// FCP manipulation-LUT area per L2 (paper: ~1 µm² total).
const FCP_UM2_PER_CORE: f64 = 0.25;

/// FCP 8-entry lookup table per L2: 8 × 12 bits ≈ 12 B for 4 cores? The
/// paper lists 12 B total; 3 B per core.
const FCP_BYTES_PER_CORE: u64 = 3;

/// Computes the Table IV rows for a machine with `cores` cores and an
/// NPU with `npu_pes` processing elements.
pub fn table4(cores: u32, npu_pes: u32) -> Vec<OverheadRow> {
    let anl = Anl::new(32);
    let npu = NpuAreaModel::new(npu_pes);
    vec![
        OverheadRow {
            component: format!("{cores} x OVEC"),
            memory_bytes: 0,
            area_um2: OVEC_UM2_PER_CORE * f64::from(cores),
        },
        OverheadRow {
            component: format!("1 x NPU ({npu_pes} PEs)"),
            memory_bytes: npu.sram_bytes(),
            area_um2: npu.area_um2(),
        },
        OverheadRow {
            component: format!("{cores} x ANL"),
            memory_bytes: u64::from(cores) * anl.metadata_bits() / 8,
            area_um2: ANL_LOGIC_UM2_PER_CORE * f64::from(cores),
        },
        OverheadRow {
            component: format!("{cores} x FCP"),
            memory_bytes: u64::from(cores) * FCP_BYTES_PER_CORE,
            area_um2: FCP_UM2_PER_CORE * f64::from(cores),
        },
    ]
}

/// Total area overhead as a fraction of the host die.
pub fn total_overhead_fraction(rows: &[OverheadRow]) -> f64 {
    rows.iter().map(|r| r.area_um2).sum::<f64>() / HOST_DIE_UM2
}

/// Renders Table IV.
pub fn format_table4(rows: &[OverheadRow]) -> String {
    let mut out = String::from("Table IV: Overhead breakdown\n");
    out.push_str(&format!(
        "{:<16} {:>12} {:>12}\n",
        "Component", "Memory [B]", "Area [um^2]"
    ));
    let mut mem = 0u64;
    let mut area = 0.0;
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>12} {:>12.0}\n",
            r.component, r.memory_bytes, r.area_um2
        ));
        mem += r.memory_bytes;
        area += r.area_um2;
    }
    out.push_str(&format!("{:<16} {:>12} {:>12.0}\n", "Total", mem, area));
    out.push_str(&format!(
        "Die overhead: {:.4}% of a 133 mm^2 mobile die\n",
        100.0 * total_overhead_fraction(rows)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_magnitudes() {
        let rows = table4(4, 4);
        // OVEC ≈ 258, NPU ≈ 1661, ANL ≈ 30, FCP ≈ 1 (µm²).
        assert!((rows[0].area_um2 - 258.0).abs() < 1.0);
        assert!((rows[1].area_um2 - 1661.0).abs() / 1661.0 < 0.02);
        assert!((rows[2].area_um2 - 30.0).abs() < 1.0);
        assert!(rows[3].area_um2 <= 1.5);
        // ANL: 480 B for 4 cores; NPU 18.8 KB.
        assert_eq!(rows[2].memory_bytes, 480);
        assert!((rows[1].memory_bytes as f64 / 1024.0 - 18.8).abs() < 0.5);
    }

    #[test]
    fn total_overhead_is_about_a_thousandth_of_a_percent() {
        let rows = table4(4, 4);
        let frac = total_overhead_fraction(&rows);
        // Paper: "merely 0.001%". (Fraction ≈ 1.5e-5.)
        assert!(frac < 5e-5, "fraction {frac}");
        assert!(frac > 5e-6, "fraction {frac}");
        assert!(!format_table4(&rows).is_empty());
    }
}
