//! Pinned digests at the default seed: per cell, the summary digest (the
//! exact bits of miss, power, above-TDP, migrations, p99/SLO and shed) and
//! the actuation-tape digest of the traced pass (for the fleet, every
//! chip's tape plus the exchange ledger).
//!
//! A change that alters simulated behaviour changes these digests and
//! fails the benchmark's output check. Regenerate the table with
//! `perfbench --print-pins` only for a change that is meant to alter
//! behaviour, and say so in that change.

use crate::cells::{CellId, Workload, DEFAULT_SEED};
use crate::traced::{self, Counts, Spans};

/// `(cell name, summary digest, tape digest)`.
const PINS: &[(&str, u64, u64)] = &[
    ("l1/PPM", 0x96ee53fb51bedc9d, 0xbf8f64d0a65eba8c),
    ("l1/HPM", 0x1b334467d9d64999, 0x8e2ba2477949ccb3),
    ("l1/HL", 0x82b9165adb46abba, 0x0a598d4e700f4adc),
    ("l2/PPM", 0x5cf7d6ca197800b6, 0x84171e9354f3c952),
    ("l2/HPM", 0x28edf9f3d02911c3, 0x34ec4f8fe5107682),
    ("l2/HL", 0x6112f58612371f4b, 0x744d56165c207fe5),
    ("l3/PPM", 0xc6b9f961011d38bd, 0xed6e1e3471c137e7),
    ("l3/HPM", 0x6afabf3b297f3841, 0xd07703b7fbd14c4a),
    ("l3/HL", 0x82b9165adb46abba, 0x6be6add8704d5c8b),
    ("m1/PPM", 0xbc9d085ad514d80c, 0xb6210778a113d6de),
    ("m1/HPM", 0x9e28fca518e1997a, 0x097c56fd47c699ae),
    ("m1/HL", 0x91af19ff752943e3, 0x97169844c074e80f),
    ("m2/PPM", 0xe4cffddac9e6f89a, 0x849ed58298a674dc),
    ("m2/HPM", 0xe5f6a35f4f134522, 0x706868d727d48d62),
    ("m2/HL", 0x91af19ff752943e3, 0x9683c5a2fc33194c),
    ("m3/PPM", 0xd5941a1a8ad4ebda, 0x32e499b3d3c2e8fb),
    ("m3/HPM", 0xb2865e3fcd0b7ce1, 0xd71325eda03e8996),
    ("m3/HL", 0x91af19ff752943e3, 0x4d8087ed2e6ec479),
    ("h1/PPM", 0x959ec6e87616c5bc, 0xcf34de9a0bf83ed8),
    ("h1/HPM", 0xdade75c625041d31, 0x233e8ec0694c6469),
    ("h1/HL", 0x91af19ff752943e3, 0xd0534f218faff30f),
    ("h2/PPM", 0x6379d5f00e0360ee, 0xb59f8b7c222d3277),
    ("h2/HPM", 0xee744841bb3fa127, 0x3eeb391edd0fda5c),
    ("h2/HL", 0x91af19ff752943e3, 0xe99ad5c2bc28db0a),
    ("h3/PPM", 0x9e8025196eda97b5, 0x59daf566e99a556e),
    ("h3/HPM", 0x03fef2afd6a2bf4d, 0xac6462ad20cb4630),
    ("h3/HL", 0x91af19ff752943e3, 0x6c3366578a08978c),
    ("v64_ops", 0xd004e1a6bc16b090, 0x0625f39ed9be69f6),
    ("v16_dense/0", 0x18d3b0bf4713a0a0, 0x1159355fe5a47998),
    ("v16_dense/1", 0x90d4c25a726aea36, 0xbe655f678cdb41bf),
    ("v16_dense/2", 0x7a6682d103301dea, 0x817f81bd68b31bac),
    ("v16_dense/3", 0xa697965b7e96fcb8, 0x61104e39261e9770),
    ("fleet64", 0x620f40f1e4610f88, 0x8dce9fa540ff57fb),
];

fn find(cell: CellId) -> Option<&'static (&'static str, u64, u64)> {
    let name = cell.name();
    PINS.iter().find(|p| p.0 == name)
}

pub fn summary(cell: CellId) -> Option<u64> {
    find(cell).map(|p| p.1)
}

pub fn tape(cell: CellId) -> Option<u64> {
    find(cell).map(|p| p.2)
}

/// Run every cell traced at the default seed and print the table source.
pub fn print_table() {
    println!("const PINS: &[(&str, u64, u64)] = &[");
    for w in Workload::ALL {
        for cell in w.cells() {
            let t = traced::trace_cell(
                cell,
                DEFAULT_SEED,
                false,
                &mut Spans::default(),
                &mut Counts::default(),
            );
            println!(
                "    (\"{}\", {:#018x}, {:#018x}),",
                cell.name(),
                t.outcome.digest(),
                t.tape_digest
            );
        }
    }
    println!("];");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_is_pinned_once() {
        let cells: Vec<CellId> = Workload::ALL.iter().flat_map(|w| w.cells()).collect();
        assert_eq!(PINS.len(), cells.len());
        for cell in cells {
            assert!(summary(cell).is_some(), "{} has no pin", cell.name());
        }
    }
}
