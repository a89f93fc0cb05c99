//! The four workloads: how each system is built and loaded, the seeded op
//! stream, the one public call an op makes, and the check of its output.

use std::collections::HashMap;

use autarky::rt::{PagingMechanism, RtError};
use autarky::workloads::font::{FontRenderer, GLYPH_SIZE};
use autarky::workloads::kvstore::{ItemClustering, KvStore};
use autarky::workloads::spell::{synth_wordlist, Dictionary};
use autarky::workloads::uthash::hash64;
use autarky::workloads::ycsb::{Distribution, KeyGenerator};
use autarky::workloads::{EncHeap, World};
use autarky::{Profile, SystemBuilder};

/// Words in the spell-check dictionary (many times the resident budget).
pub const SPELL_WORDS: usize = 4000;
/// Resident-page budget of the spell-check enclave.
pub const SPELL_BUDGET: usize = 32;
/// Items in the ORAM-backed store.
pub const KV_ORAM_ITEMS: u64 = 512;
/// ORAM block space in pages.
pub const KV_ORAM_CAPACITY: u64 = 256;
/// Enclave-managed ORAM cache in pages.
pub const KV_ORAM_CACHE: usize = 24;
/// Items in the SGXv2 write-heavy store.
pub const KV_SGX2_ITEMS: u64 = 2048;
/// Resident-page budget of the SGXv2 store enclave.
pub const KV_SGX2_BUDGET: usize = 64;
/// Value size of both stores (the paper's 1 KB Memcached entries).
pub const KV_VALUE: usize = 1024;
/// Glyphs per rendered line; also the renderer's slot count.
pub const FONT_LINE: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dictionary lookups under SGXv1 10-page-cluster self-paging.
    SpellSgx1,
    /// Zipfian 90/10 GET/SET on the cached-ORAM heap.
    KvOram,
    /// Zipfian 50/50 GET/SET under SGXv2 single-page self-paging.
    KvSgx2Writes,
    /// Glyph rendering with everything pinned.
    FontPinned,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SpellSgx1,
        Workload::KvOram,
        Workload::KvSgx2Writes,
        Workload::FontPinned,
    ];

    /// Name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpellSgx1 => "spell-sgx1",
            Workload::KvOram => "kv-oram",
            Workload::KvSgx2Writes => "kv-sgx2-writes",
            Workload::FontPinned => "font-pinned",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops in the traced window. Fixed, so that per-layer counts repeat
    /// exactly for a seed.
    pub fn trace_ops(self) -> u64 {
        match self {
            Workload::SpellSgx1 => 4_000,
            Workload::KvOram => 2_000,
            Workload::KvSgx2Writes => 20_000,
            Workload::FontPinned => 20_000,
        }
    }

    /// Measured ops after which peak RSS is read, so that memory that grows
    /// with ops is compared at equal work, whatever the host speed.
    pub fn rss_ops(self) -> u64 {
        match self {
            Workload::SpellSgx1 => 4_000,
            Workload::KvOram => 2_000,
            Workload::KvSgx2Writes => 60_000,
            Workload::FontPinned => 20_000,
        }
    }

    /// Ops per window of the measured phase. A window should last a few
    /// tens of ms, shorter than the host's fast spells, yet hold enough ops
    /// that its op mix is close to the workload's: kv-oram ops last ~1.5 ms
    /// and differ 300-fold in cost, so its windows are longer.
    pub fn window_ops(self) -> usize {
        match self {
            Workload::SpellSgx1 => 32,
            Workload::KvOram => 256,
            Workload::KvSgx2Writes => 256,
            Workload::FontPinned => 256,
        }
    }

    /// Paging mechanism, which decides where page AEAD bytes are counted.
    pub fn mechanism(self) -> PagingMechanism {
        match self {
            Workload::KvSgx2Writes => PagingMechanism::Sgx2,
            _ => PagingMechanism::Sgx1,
        }
    }

    /// The builder for this workload's system.
    pub fn builder(self, seed: u64) -> SystemBuilder {
        let b = match self {
            Workload::SpellSgx1 => SystemBuilder::new(
                "hostbench-spell",
                Profile::Clusters {
                    pages_per_cluster: 10,
                },
            )
            .heap_pages(1024)
            .budget_pages(SPELL_BUDGET),
            Workload::KvOram => SystemBuilder::new(
                "hostbench-kv-oram",
                Profile::CachedOram {
                    capacity_pages: KV_ORAM_CAPACITY,
                    cache_pages: KV_ORAM_CACHE,
                },
            )
            .heap_pages(1024),
            Workload::KvSgx2Writes => SystemBuilder::new(
                "hostbench-kv-sgx2",
                Profile::Clusters {
                    pages_per_cluster: 1,
                },
            )
            .heap_pages(1024)
            .budget_pages(KV_SGX2_BUDGET),
            Workload::FontPinned => SystemBuilder::new("hostbench-font", Profile::PinAll)
                .heap_pages(256)
                .code_pages(24),
        };
        b.epc_pages(4096).mechanism(self.mechanism()).seed(seed)
    }

    /// The workload's load call on a freshly built system.
    pub fn load(self, world: &mut World, heap: &mut EncHeap) -> Result<App, RtError> {
        Ok(match self {
            Workload::SpellSgx1 => App::Spell {
                dict: Dictionary::load(world, heap, SPELL_LANG, SPELL_WORDS)?,
            },
            Workload::KvOram | Workload::KvSgx2Writes => {
                let items = self.kv_items();
                let mut store = KvStore::new(world, heap, items, KV_VALUE, ItemClustering::None)?;
                store.load(world, heap, items)?;
                App::Kv { store }
            }
            Workload::FontPinned => App::Font {
                font: FontRenderer::new(world, heap, FONT_LINE)?,
            },
        })
    }

    fn kv_items(self) -> u64 {
        match self {
            Workload::KvSgx2Writes => KV_SGX2_ITEMS,
            _ => KV_ORAM_ITEMS,
        }
    }
}

/// Dictionary language tag. The dictionary is the system's data, fixed
/// across seeds; the seed picks the queries.
const SPELL_LANG: &str = "en";

/// The loaded application a workload drives.
pub enum App {
    /// A loaded spell-check dictionary.
    Spell {
        /// The dictionary.
        dict: Dictionary,
    },
    /// A loaded key-value store.
    Kv {
        /// The store.
        store: KvStore,
    },
    /// A font renderer.
    Font {
        /// The renderer.
        font: FontRenderer,
    },
}

/// A counter-based generator (splitmix64 over a seeded stream).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    fn new(seed: u64) -> Self {
        Rng(hash64(seed ^ 0x686F_7374_6265_6E63))
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        hash64(self.0)
    }

    /// Uniform draw from `0..n` (`n` > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Check a word; `expect` is its generated membership.
    Check {
        /// The word.
        word: String,
        /// Whether the word is in the dictionary.
        expect: bool,
    },
    /// Fetch a key.
    Get {
        /// The key.
        key: u64,
    },
    /// Overwrite a key with a value no load or earlier write produced.
    Set {
        /// The key.
        key: u64,
        /// The new value.
        value: Vec<u8>,
    },
    /// Render one line of glyphs.
    Render {
        /// The line.
        line: String,
    },
}

/// What the timed call returned.
#[derive(Debug)]
pub enum Output {
    /// Dictionary membership.
    Member(bool),
    /// A fetched value.
    Value(Option<Vec<u8>>),
    /// The call returns nothing; the check reads the effect back.
    Done,
}

/// Seeded op stream of one workload. It depends on the seed alone, never
/// on what the system returns.
pub struct OpGen {
    rng: Rng,
    kind: GenKind,
}

enum GenKind {
    Spell { words: Vec<String> },
    Kv { keys: KeyGenerator, set_pct: u64 },
    Font,
}

impl OpGen {
    /// The op stream for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let kind = match workload {
            Workload::SpellSgx1 => GenKind::Spell {
                words: synth_wordlist(SPELL_LANG, SPELL_WORDS),
            },
            Workload::KvOram | Workload::KvSgx2Writes => GenKind::Kv {
                keys: KeyGenerator::new(
                    workload.kv_items(),
                    Distribution::Zipfian { theta: 0.99 },
                    seed,
                ),
                set_pct: if workload == Workload::KvOram { 10 } else { 50 },
            },
            Workload::FontPinned => GenKind::Font,
        };
        Self {
            rng: Rng::new(seed),
            kind,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let rng = &mut self.rng;
        match &mut self.kind {
            GenKind::Spell { words } => {
                let word = &words[rng.below(words.len() as u64) as usize];
                if rng.below(100) < 90 {
                    Op::Check {
                        word: word.clone(),
                        expect: true,
                    }
                } else {
                    // The word list holds lowercase letters only, so a digit
                    // suffix can never name a dictionary word.
                    let digit = char::from(b'0' + rng.below(10) as u8);
                    Op::Check {
                        word: format!("{word}{digit}"),
                        expect: false,
                    }
                }
            }
            GenKind::Kv { keys, set_pct } => {
                let key = keys.next_key();
                if rng.below(100) < *set_pct {
                    let mut value = vec![0u8; KV_VALUE];
                    for chunk in value.chunks_mut(8) {
                        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
                    }
                    // Random bytes match the load value only by a 2^-8192
                    // accident; make even that impossible.
                    if value == KvStore::value_for(key, KV_VALUE) {
                        value[0] ^= 1;
                    }
                    Op::Set { key, value }
                } else {
                    Op::Get { key }
                }
            }
            GenKind::Font => Op::Render {
                line: (0..FONT_LINE)
                    .map(|_| char::from(b'!' + rng.below(94) as u8))
                    .collect(),
            },
        }
    }
}

/// A built and loaded system plus the client-side state that checks it.
pub struct System {
    /// The simulated machine, OS and runtime.
    pub world: World,
    /// The workload's heap.
    pub heap: EncHeap,
    app: App,
    /// Values written by SET, for read-your-writes checks.
    shadow: HashMap<u64, Vec<u8>>,
}

impl System {
    /// Wrap a loaded system.
    pub fn new(world: World, heap: EncHeap, app: App) -> Self {
        Self {
            world,
            heap,
            app,
            shadow: HashMap::new(),
        }
    }

    /// Make the op's one public call: the only work the benchmark times.
    pub fn call(&mut self, op: &Op) -> Result<Output, RtError> {
        let (world, heap) = (&mut self.world, &mut self.heap);
        match (&mut self.app, op) {
            (App::Spell { dict }, Op::Check { word, .. }) => {
                dict.check(world, heap, word).map(Output::Member)
            }
            (App::Kv { store }, Op::Get { key }) => store.get(world, heap, *key).map(Output::Value),
            (App::Kv { store }, Op::Set { key, value }) => {
                store.set(world, heap, *key, value).map(|()| Output::Done)
            }
            (App::Font { font }, Op::Render { line }) => {
                font.render_text(world, heap, line).map(|()| Output::Done)
            }
            _ => unreachable!("op stream and app come from the same workload"),
        }
    }

    /// Whether the call's output is right. A SET is recorded so later GETs
    /// must see it; a rendered line is read back from enclave memory.
    pub fn check(&mut self, op: &Op, out: Output) -> bool {
        match (op, out) {
            (Op::Check { expect, .. }, Output::Member(found)) => found == *expect,
            (Op::Get { key }, Output::Value(got)) => match self.shadow.get(key) {
                Some(want) => got.as_ref() == Some(want),
                None => got == Some(KvStore::value_for(*key, KV_VALUE)),
            },
            (Op::Set { key, value }, Output::Done) => {
                self.shadow.insert(*key, value.clone());
                true
            }
            (Op::Render { line }, Output::Done) => {
                let App::Font { font } = &self.app else {
                    return false;
                };
                line.chars().enumerate().all(|(slot, c)| {
                    font.read_glyph(&mut self.world, &mut self.heap, slot)
                        .is_ok_and(|got| got == glyph_bitmap(c))
                })
            }
            _ => false,
        }
    }
}

/// The bitmap `FontRenderer` must leave for `c`, recomputed independently.
fn glyph_bitmap(c: char) -> Vec<u8> {
    let h = hash64(c as u64);
    (0..GLYPH_SIZE * GLYPH_SIZE)
        .map(|i| ((hash64(h ^ i as u64) % 2) * 255) as u8)
        .collect()
}
