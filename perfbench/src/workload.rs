//! The three workloads and their seeded input generator.
//!
//! Every workload draws from one mix of simulated 100 KB bulk transfers:
//! each of the 22 implementation profiles over each of nine paths
//! ({256 kb/s, 1.544 Mb/s, 10 Mb/s} × {10, 30, 80} ms one way), with
//! periodic data loss on a third of them. The mix is a fixed set of
//! cases; a workload's corpus cycles through it a fixed number of times,
//! and the seed decides which file index each case lands on. So one seed
//! always yields byte-identical files, another seed yields different
//! files, and the ground-truth shares computed over the whole set repeat
//! exactly across seeds.
//!
//! Files are named by index only (`00042.pcap`), so the program under
//! test never sees a label. The generator keeps the labels itself.

use std::fs;
use std::path::{Path, PathBuf};

use tcpa_netsim::rng::SplitMix64;
use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::mangle::inject;
use tcpa_trace::pcap_io::write_pcap;
use tcpa_trace::{Duration, FaultKind, Trace};
use tcpa_wire::pcap::TsResolution;

/// Bytes moved by every simulated transfer: the paper's 100 KB.
pub const TRANSFER_BYTES: u64 = 100 * 1024;
/// Bottleneck rates of the mix, bits per second.
const RATES_BPS: [u64; 3] = [256_000, 1_544_000, 10_000_000];
/// One-way WAN delays of the mix, milliseconds.
const DELAYS_MS: [i64; 3] = [10, 30, 80];
/// Lossy cases drop every `LOSS_PERIOD`-th packet sent toward the receiver.
const LOSS_PERIOD: u64 = 15;
/// One capture in `DAMAGE_EVERY` is mangled in `receiver_salvage`.
const DAMAGE_EVERY: usize = 5;
/// Times the `receiver_salvage` corpus cycles through the mix. A receiver
/// capture costs about an eighth of a sender capture's analysis, so one
/// pass over the mix took about 20 ms with two workers, and a single
/// preemption moved an invocation's wall time by a fifth. Eight cycles
/// make an invocation about as long as a `sender_census` one.
const RECEIVER_CYCLES: usize = 8;
/// Each further cycle's captures start this much later, so no two files
/// hold the same bytes. The analysis does not depend on absolute time.
const CYCLE_SHIFT: Duration = Duration::from_secs(3600);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sender-vantage captures, one batch `tcpanaly --jobs 2 DIR` run.
    SenderCensus,
    /// Receiver-vantage captures, a fifth of them damaged, the mix cycled
    /// eight times; one batch `--receiver --degrade salvage` run with
    /// metrics output.
    ReceiverSalvage,
    /// Sender-vantage captures, one `tcpanaly FILE` process per capture.
    SingleFile,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::SenderCensus,
        Workload::ReceiverSalvage,
        Workload::SingleFile,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SenderCensus => "sender_census",
            Workload::ReceiverSalvage => "receiver_salvage",
            Workload::SingleFile => "single_file",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the one-process-per-corpus workloads.
    pub fn is_batch(self) -> bool {
        self != Workload::SingleFile
    }

    /// `true` when the captures were taken at the receiver.
    pub fn at_receiver(self) -> bool {
        self == Workload::ReceiverSalvage
    }

    /// Times the workload's corpus holds each case of the mix.
    pub fn cycles(self) -> usize {
        match self {
            Workload::ReceiverSalvage => RECEIVER_CYCLES,
            Workload::SenderCensus | Workload::SingleFile => 1,
        }
    }

    /// Distinct salt per workload, so one seed does not give two
    /// workloads the same file order.
    fn salt(self) -> u64 {
        match self {
            Workload::SenderCensus => 0x5e4d_0001,
            Workload::ReceiverSalvage => 0x5e4d_0002,
            Workload::SingleFile => 0x5e4d_0003,
        }
    }
}

/// One simulated transfer of the mix.
#[derive(Debug, Clone)]
pub struct Case {
    /// The generating profile: the sender's and the receiver's.
    pub profile: &'static str,
    /// Bottleneck rate, bits per second.
    pub rate_bps: u64,
    /// One-way WAN delay, milliseconds.
    pub delay_ms: i64,
    /// Periodic data loss on this path.
    pub lossy: bool,
    /// The fault mangled into its captures, `receiver_salvage` only.
    pub fault: Option<FaultKind>,
    /// Position in the canonical mix order.
    pub canonical: usize,
}

/// The mix in canonical order. `limit` keeps only the first cases (the
/// full mix has 198); tests use a short prefix.
pub fn cases(workload: Workload, limit: usize) -> Vec<Case> {
    let mut out = Vec::new();
    for (p, cfg) in all_profiles().iter().enumerate() {
        for (r, &rate_bps) in RATES_BPS.iter().enumerate() {
            for (d, &delay_ms) in DELAYS_MS.iter().enumerate() {
                let canonical = out.len();
                let fault = (workload.at_receiver() && canonical % DAMAGE_EVERY == 0)
                    .then(|| FaultKind::ALL[(canonical / DAMAGE_EVERY) % FaultKind::ALL.len()]);
                out.push(Case {
                    profile: cfg.name,
                    rate_bps,
                    delay_ms,
                    lossy: (p + r + d) % 3 == 0,
                    fault,
                    canonical,
                });
            }
        }
    }
    out.truncate(limit);
    out
}

/// One generated input file and what the generator knows about it.
#[derive(Debug, Clone)]
pub struct Input {
    /// The capture on disk, relative to the benchmark's working directory.
    pub path: PathBuf,
    /// The case it was generated from.
    pub case: Case,
    /// TCP records in the undamaged capture.
    pub clean_records: usize,
}

/// A generated workload on disk.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The directory holding the captures.
    pub dir: PathBuf,
    /// The captures, in file-name order.
    pub inputs: Vec<Input>,
    /// FNV-1a digest over every file's name (without the directory) and
    /// bytes.
    pub digest: u64,
}

impl Corpus {
    /// Number of captures.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when the corpus holds no capture.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// The capture paths as the CLI sees them.
    pub fn paths(&self) -> Vec<PathBuf> {
        self.inputs.iter().map(|i| i.path.clone()).collect()
    }
}

/// FNV-1a, continued from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Simulates one case and returns the capture its workload records.
fn simulate(workload: Workload, case: &Case) -> Result<Trace, String> {
    let cfg = tcpa_tcpsim::profiles::profile_by_name(case.profile)
        .ok_or_else(|| format!("unknown profile {}", case.profile))?;
    let path = PathSpec {
        rate_bps: case.rate_bps,
        one_way_delay: Duration::from_millis(case.delay_ms),
        loss_data: if case.lossy {
            LossModel::Periodic(LOSS_PERIOD)
        } else {
            LossModel::None
        },
        ..PathSpec::default()
    };
    // Periodic loss draws nothing from the simulator's generator, so the
    // simulator seed does not change the transfer.
    let out = run_transfer(cfg.clone(), cfg, &path, TRANSFER_BYTES, 1);
    if !out.completed {
        return Err(format!("transfer did not complete: {case:?}"));
    }
    Ok(if workload.at_receiver() {
        out.receiver_trace()
    } else {
        out.sender_trace()
    })
}

/// The capture bytes of `trace` in slot `slot`, damaged if its case is;
/// the slot seeds the mangler.
fn encode(trace: &Trace, case: &Case, slot: usize) -> Result<Vec<u8>, String> {
    let bytes = write_pcap(trace, Vec::new(), TsResolution::Micro, 0)
        .map_err(|e| format!("write_pcap: {e}"))?;
    match case.fault {
        None => Ok(bytes),
        Some(kind) => inject(&bytes, kind, 0x0bad_0000 + slot as u64)
            .map(|(mangled, _)| mangled)
            .ok_or_else(|| format!("cannot inject {kind} into slot {slot}: {case:?}")),
    }
}

/// The seeded order: which slot of the cycled mix each file index gets.
pub fn order(workload: Workload, seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ workload.salt());
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

/// A generated workload, still in memory.
pub struct Generated {
    /// Per file, in file order: its case, its bytes and the undamaged
    /// capture's TCP record count.
    files: Vec<(Case, Vec<u8>, usize)>,
    /// FNV-1a digest over every file's name and bytes.
    pub digest: u64,
}

/// The file name of input `index`.
fn file_name(index: usize) -> String {
    format!("{index:05}.pcap")
}

/// Simulates, writes and damages every capture of the workload, in memory.
/// Each case is simulated once; cycle `c` of it is the same transfer
/// `c × CYCLE_SHIFT` later, in slot `c × mix length + canonical`.
pub fn build(workload: Workload, seed: u64, limit: usize) -> Result<Generated, String> {
    let mix = cases(workload, limit);
    let mut slots = vec![None; mix.len() * workload.cycles()];
    for case in &mix {
        let mut trace = simulate(workload, case)?;
        for cycle in 0..workload.cycles() {
            let slot = cycle * mix.len() + case.canonical;
            slots[slot] = Some((case.clone(), encode(&trace, case, slot)?, trace.len()));
            for rec in &mut trace.records {
                rec.ts += CYCLE_SHIFT;
            }
        }
    }
    let mut digest = FNV_BASIS;
    let mut files = Vec::with_capacity(slots.len());
    for (index, slot) in order(workload, seed, slots.len()).into_iter().enumerate() {
        let file = slots[slot]
            .take()
            .ok_or("a slot was filled twice or never")?;
        digest = fnv1a(digest, file_name(index).as_bytes());
        digest = fnv1a(digest, &file.1);
        files.push(file);
    }
    Ok(Generated { files, digest })
}

impl Generated {
    /// Writes the captures into `dir`, emptied first.
    pub fn write(self, dir: &Path) -> Result<Corpus, String> {
        if dir.exists() {
            fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut inputs = Vec::with_capacity(self.files.len());
        for (index, (case, bytes, clean_records)) in self.files.into_iter().enumerate() {
            let path = dir.join(file_name(index));
            fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            inputs.push(Input {
                path,
                case,
                clean_records,
            });
        }
        Ok(Corpus {
            dir: dir.to_path_buf(),
            inputs,
            digest: self.digest,
        })
    }
}

/// Generates the workload's captures into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path, limit: usize) -> Result<Corpus, String> {
    build(workload, seed, limit)?.write(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_covers_every_profile_path_and_fault_kind() {
        let mix = cases(Workload::ReceiverSalvage, usize::MAX);
        assert_eq!(mix.len(), 22 * 9);
        assert_eq!(mix.iter().filter(|c| c.lossy).count(), mix.len() / 3);
        let damaged: Vec<FaultKind> = mix.iter().filter_map(|c| c.fault).collect();
        assert_eq!(damaged.len(), mix.len().div_ceil(DAMAGE_EVERY));
        for kind in FaultKind::ALL {
            assert!(damaged.contains(&kind), "{kind} never injected");
        }
        assert!(cases(Workload::SenderCensus, usize::MAX)
            .iter()
            .all(|c| c.fault.is_none()));
    }

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(Workload::SenderCensus, 1, 198);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..198).collect::<Vec<_>>());
        assert_eq!(a, order(Workload::SenderCensus, 1, 198));
        assert_ne!(a, order(Workload::SenderCensus, 2, 198));
        assert_ne!(a, order(Workload::SingleFile, 1, 198));
    }
}
