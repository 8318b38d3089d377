//! Tier-1 reach into crates whose own suites run only under
//! `cargo test --workspace`: the `U64Map` every replay-lifetime table
//! (the verify shadow included) grows through and the `LineTable` the
//! medium and the encryption counters keep per-line state in, the
//! dispatched Hamming line codec every PCM read and unique write runs, the
//! `esd-obs` metrics export, the `esd-server` wire codec and contended
//! multi-tenant service, the SRAM
//! caches of the AMT, the fingerprint store and the counter cache, and the
//! `esd-bench` task pool every figure binary runs on.
//! Seconds-long in a debug build.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use esd::core::{
    run_trace, Amt, CounterCache, FingerprintStore, LookupSource, Scheme, SchemeKind,
    AMT_ENTRY_BYTES, COUNTER_ENTRY_BYTES,
};
use esd::ecc::{
    decode_line, decode_word, encode_line, encode_word, LineDecode, LineEcc, LINE_BYTES,
    WORDS_PER_LINE,
};
use esd::kernels::{self, KernelBackend};
use esd::sim::{CacheStats, NvmmSystem, PcmConfig, Ps};
use esd::trace::{AppProfile, CacheLine};
use esd_bench::Sweep;
use esd_collections::{LineTable, U64Map};
use esd_obs::Registry;
use esd_server::{
    decode_request, decode_response, encode_request, encode_response, frame_response, peek_frame,
    read_frame, write_frame, Envelope, LoadSpec, Request, Response, Service, ServiceConfig,
    FRAME_HEADER_BYTES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn u64map_grown_from_empty_matches_std_hashmap() {
    // Inserts, overwrites, removes and gets over 64-aligned keys drawn
    // from a space several times the table's peak size, so every kind of
    // operation hits both present and absent keys.
    let mut map: U64Map<u32> = U64Map::new();
    let mut model: HashMap<u64, u32> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut peak = 0;
    for step in 0..40_000u32 {
        let key = rng.gen_range(0..2_048u64) * 0x40;
        match rng.gen_range(0..10u32) {
            // Insert-heavy for the first half, so the table grows; remove-
            // heavy after, so backward-shift deletion runs on a full table.
            0..=5 if step < 20_000 => assert_eq!(map.insert(key, step), model.insert(key, step)),
            0..=1 => assert_eq!(map.insert(key, step), model.insert(key, step)),
            2..=5 => assert_eq!(map.remove(key), model.remove(&key), "remove {key:#x}"),
            _ => assert_eq!(map.get(key), model.get(&key), "get {key:#x}"),
        }
        assert_eq!(map.len(), model.len());
        peak = peak.max(map.len());
    }
    // The table starts at 8 slots and doubles at 7/8 load: more than
    // 7/8 · 256 live entries means at least six growths.
    assert!(peak > 224, "peak {peak} too small to force five growths");
    let mut entries: Vec<(u64, u32)> = map.iter().map(|(k, &v)| (k, v)).collect();
    entries.sort_unstable();
    let mut expected: Vec<(u64, u32)> = model.into_iter().collect();
    expected.sort_unstable();
    assert_eq!(entries, expected);
}

#[test]
fn line_table_matches_std_hashmap_over_dense_far_and_overtaken_keys() {
    // Three key populations: lines appended densely from zero, far
    // tenant-namespaced lines `t << 48`, and a scattered band the dense
    // prefix grows over only once the appends reach it.
    let mut table: LineTable<u64> = LineTable::new();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0x11E5);
    let mut next_line = 0u64;
    for step in 0..60_000u64 {
        let addr = match rng.gen_range(0..8u32) {
            0..=2 => {
                next_line += 1;
                (next_line - 1) * 64
            }
            3 => (rng.gen_range(1..16u64) << 48) | (rng.gen_range(0..512u64) * 64),
            4 => rng.gen_range(4_096..12_288u64) * 64,
            _ => rng.gen_range(0..=next_line) * 64,
        };
        match rng.gen_range(0..4u32) {
            // Insert-or-update.
            0 | 1 => {
                *table.get_or_default(addr) += step;
                *model.entry(addr).or_default() += step;
            }
            2 => {
                if let Some(v) = table.get_mut(addr) {
                    *v ^= step;
                }
                if let Some(v) = model.get_mut(&addr) {
                    *v ^= step;
                }
            }
            _ => {}
        }
        assert_eq!(table.get(addr), model.get(&addr), "step {step} {addr:#x}");
        assert_eq!(table.len(), model.len());
    }
    assert!(next_line > 12_288, "the appends passed the band");
    for (_, v) in table.iter_mut() {
        *v = v.wrapping_mul(3);
    }
    for v in model.values_mut() {
        *v = v.wrapping_mul(3);
    }
    let mut entries: Vec<(u64, u64)> = table.iter().map(|(k, &v)| (k, v)).collect();
    entries.sort_unstable();
    let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
    expected.sort_unstable();
    assert_eq!(entries, expected);
}

/// The subset of JSON the metrics export writes: objects, strings with
/// the export's escapes, and numbers.
#[derive(Debug)]
enum Json {
    Num(f64),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn field(&self, name: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .get(name)
                .unwrap_or_else(|| panic!("no field {name}")),
            Json::Num(_) => panic!("{name}: not an object"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            Json::Obj(_) => panic!("not a number"),
        }
    }

    fn fields(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(fields) => fields,
            Json::Num(_) => panic!("not an object"),
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut reader = Reader {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = reader.value();
        assert_eq!(reader.at, text.len(), "trailing bytes in {text}");
        value
    }

    fn next(&mut self) -> u8 {
        let b = self.bytes[self.at];
        self.at += 1;
        b
    }

    fn expect(&mut self, want: u8) {
        let at = self.at;
        assert_eq!(self.next(), want, "byte {at}");
    }

    fn value(&mut self) -> Json {
        if self.bytes[self.at] == b'{' {
            self.object()
        } else {
            self.number()
        }
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut fields = BTreeMap::new();
        if self.bytes[self.at] == b'}' {
            self.at += 1;
            return Json::Obj(fields);
        }
        loop {
            let key = self.string();
            self.expect(b':');
            let value = self.value();
            assert!(fields.insert(key, value).is_none(), "duplicate key");
            match self.next() {
                b',' => {}
                b'}' => return Json::Obj(fields),
                b => panic!("unexpected {:?} at {}", b as char, self.at - 1),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self.next() {
                b'"' => return out,
                b'\\' => out.push(match self.next() {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = std::str::from_utf8(&self.bytes[self.at..self.at + 4]).unwrap();
                        self.at += 4;
                        char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                    }
                    b => panic!("unknown escape {:?}", b as char),
                }),
                b => out.push(char::from(b)),
            }
        }
    }

    fn number(&mut self) -> Json {
        let start = self.at;
        while matches!(self.bytes[self.at], b'-' | b'.' | b'0'..=b'9') {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

/// The metadata caches' contract in the plainest form: each resident key
/// with its recency stamp and dirty bit in a `HashMap`; the victim is the
/// resident key with the least stamp.
struct StampModel {
    capacity: usize,
    clock: u64,
    resident: HashMap<u64, (u64, bool)>,
    stats: CacheStats,
}

impl StampModel {
    fn new(capacity: usize) -> Self {
        StampModel {
            capacity,
            clock: 0,
            resident: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// A counted lookup: a resident key is a hit and becomes the most
    /// recent; its dirty bit is handed back to be updated.
    fn lookup(&mut self, key: u64) -> Option<&mut bool> {
        self.clock += 1;
        match self.resident.get_mut(&key) {
            Some((stamp, dirty)) => {
                self.stats.hits += 1;
                *stamp = self.clock;
                Some(dirty)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Makes `key` resident and most recent (uncounted) with `dirty` set
    /// (or kept, if `dirty` is false and the key is resident); returns
    /// whether a dirty victim was evicted.
    fn put(&mut self, key: u64, dirty: bool) -> bool {
        self.clock += 1;
        if let Some((stamp, was_dirty)) = self.resident.get_mut(&key) {
            (*stamp, *was_dirty) = (self.clock, *was_dirty | dirty);
            return false;
        }
        let mut dirty_victim = false;
        if self.resident.len() == self.capacity {
            let (&victim, _) = self
                .resident
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .unwrap();
            dirty_victim = self.resident.remove(&victim).unwrap().1;
            self.stats.evictions += 1;
        }
        self.resident.insert(key, (self.clock, dirty));
        dirty_victim
    }
}

#[test]
fn metadata_caches_match_a_stamp_model() {
    // AMT and counter keys from small ranges, and store lookups among the
    // last eight fingerprints stored, so at one to four entries every owner
    // hits, misses and evicts (clean and dirty); power losses empty the AMT
    // and the store caches. The store is driven as production drives it:
    // each insert is a fresh fingerprint at a fresh line, and nothing is
    // re-pointed or removed, so its model is one map.
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    for capacity in 1..=4usize {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        let mut amt = Amt::new((capacity * AMT_ENTRY_BYTES) as u64);
        let mut store = FingerprintStore::new(capacity as u64 * 29, 29);
        let mut counters = CounterCache::new((capacity * COUNTER_ENTRY_BYTES) as u64);
        let (mut amt_model, mut store_model, mut counter_model) = (
            StampModel::new(capacity),
            StampModel::new(capacity),
            StampModel::new(capacity),
        );
        let mut mappings: HashMap<u64, u64> = HashMap::new();
        // Stored fingerprints (top bit clear) → lines, and their insert order.
        let (mut fps, mut stored): (HashMap<u64, u64>, Vec<u64>) = Default::default();
        let mut sources: HashMap<LookupSource, u32> = HashMap::new();
        // `(fills, write-backs)`, `(lookups, insert writes)`, `(fills, write-backs)`.
        let (mut amt_traffic, mut store_traffic, mut counter_traffic) = ((0, 0), (0, 0), (0, 0));
        let mut pending_inserts = 0;
        for step in 0..3_000u64 {
            let now = Ps::from_ns(step * 10);
            let (key, physical) = (rng.gen_range(0..10u64), rng.gen_range(0..10u64) * 64);
            match rng.gen_range(0..20u32) {
                0..=3 => {
                    let expected = mappings.get(&(key * 64)).copied();
                    if amt_model.lookup(key * 64).is_none() && expected.is_some() {
                        amt_traffic.0 += 1;
                        amt_traffic.1 += u64::from(amt_model.put(key * 64, false));
                    }
                    assert_eq!(amt.translate(now, key * 64, &mut nvmm).0, expected);
                }
                4..=6 => {
                    mappings.insert(key * 64, physical);
                    amt_traffic.1 += u64::from(amt_model.put(key * 64, true));
                    amt.update(now, key * 64, physical, &mut nvmm);
                }
                7..=10 => {
                    // One of the last eight fingerprints stored, or one
                    // never stored (top bit set).
                    let back = rng.gen_range(0..10usize);
                    let fp = match stored.len().checked_sub(back + 1) {
                        Some(i) if back < 8 => stored[i],
                        _ => rng.gen::<u64>() | 1 << 63,
                    };
                    let expected = fps.get(&fp).copied();
                    let hit = store_model.lookup(fp).is_some();
                    if !hit {
                        store_traffic.0 += 1;
                        if expected.is_some() {
                            store_model.put(fp, false);
                        }
                    }
                    let found = store.lookup(now, fp, &mut nvmm);
                    assert_eq!(found.physical, expected);
                    assert_eq!(found.source == LookupSource::Cache, hit);
                    *sources.entry(found.source).or_default() += 1;
                }
                11..=13 => {
                    let fp = loop {
                        let fp = rng.gen::<u64>() >> 1;
                        if !fps.contains_key(&fp) {
                            break fp;
                        }
                    };
                    let line = fps.len() as u64 * 64;
                    fps.insert(fp, line);
                    stored.push(fp);
                    store_model.put(fp, false);
                    pending_inserts += 1;
                    if pending_inserts == 2 {
                        (pending_inserts, store_traffic.1) = (0, store_traffic.1 + 1);
                    }
                    store.insert(now, fp, line, &mut nvmm);
                }
                14 => {
                    amt_model.resident.clear();
                    store_model.resident.clear();
                    amt.drop_sram_cache();
                    store.drop_sram_cache();
                }
                _ => {
                    // Lines of eight counter blocks, 64 lines to a block.
                    let line = key % 8 * 4_096 + physical;
                    let write = rng.gen_range(0..2u32) == 0;
                    match counter_model.lookup(line / 4_096) {
                        Some(dirty) => *dirty |= write,
                        None => {
                            counter_traffic.0 += 1;
                            counter_traffic.1 += u64::from(counter_model.put(line / 4_096, write));
                        }
                    }
                    counters.access(now, line, write, &mut nvmm);
                }
            }
        }
        assert_eq!(
            amt.cache_stats(),
            amt_model.stats,
            "AMT, capacity {capacity}"
        );
        assert_eq!(amt.nvmm_traffic(), amt_traffic, "AMT, capacity {capacity}");
        assert_eq!(
            store.cache_stats(),
            store_model.stats,
            "store, capacity {capacity}"
        );
        assert_eq!(
            store.nvmm_traffic(),
            store_traffic,
            "store, capacity {capacity}"
        );
        assert_eq!(
            sources.len(),
            3,
            "store lookups resolved everywhere: {sources:?}"
        );
        let mut pinned = store.pinned_physicals();
        pinned.sort_unstable();
        assert_eq!(
            pinned,
            (0..fps.len() as u64).map(|i| i * 64).collect::<Vec<_>>()
        );
        assert_eq!(
            counters.stats(),
            counter_model.stats,
            "counters, capacity {capacity}"
        );
        assert_eq!(
            counters.nvmm_traffic(),
            counter_traffic,
            "counters, capacity {capacity}"
        );
        for stats in [amt_model.stats, store_model.stats, counter_model.stats] {
            assert!(stats.hits > 0 && stats.misses > 0 && stats.evictions > 0);
        }
        assert!(
            amt_traffic.1 > 0 && counter_traffic.1 > 0,
            "dirty victims written back"
        );
    }
}

/// Seeded random lines, every single-bit line, all zeros and all ones.
fn ecc_probe_lines() -> Vec<[u8; LINE_BYTES]> {
    let mut rng = StdRng::seed_from_u64(0xECC);
    let mut lines = vec![[0u8; LINE_BYTES], [0xFF; LINE_BYTES]];
    for bit in 0..LINE_BYTES * 8 {
        let mut line = [0u8; LINE_BYTES];
        line[bit / 8] = 1 << (bit % 8);
        lines.push(line);
    }
    for _ in 0..512 {
        let mut line = [0u8; LINE_BYTES];
        line.iter_mut().for_each(|b| *b = rng.gen());
        lines.push(line);
    }
    lines
}

fn words_of(line: &[u8; LINE_BYTES]) -> impl Iterator<Item = u64> + '_ {
    line.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
}

/// The per-word reference: eight `encode_word` codes. `encode_word` is the
/// table fold on every host, and `esd-ecc`'s unit tests pin it to the
/// mask-and-popcount definition of the code.
fn line_code_ref(line: &[u8; LINE_BYTES]) -> LineEcc {
    let mut codes = [0u8; WORDS_PER_LINE];
    for (code, word) in codes.iter_mut().zip(words_of(line)) {
        *code = encode_word(word);
    }
    LineEcc::new(codes)
}

/// The slow path: every word through `decode_word`, clean or not.
fn decode_line_ref(line: &[u8; LINE_BYTES], ecc: LineEcc) -> LineDecode {
    let mut decode = LineDecode {
        line: [0; LINE_BYTES],
        corrected_words: 0,
        corrected: [None; WORDS_PER_LINE],
    };
    for (w, word) in words_of(line).enumerate() {
        let d = decode_word(word, ecc.words()[w]).expect("at most one flip per word");
        decode.line[w * 8..w * 8 + 8].copy_from_slice(&d.data.to_le_bytes());
        decode.corrected[w] = d.corrected;
        decode.corrected_words += usize::from(d.corrected.is_some());
    }
    decode
}

/// Backend selection is process-global: the tests that force it take
/// turns.
static BACKEND: Mutex<()> = Mutex::new(());

/// Runs `check` under the forced `Scalar` backend, then under `Auto`,
/// and says which Hamming kernel `Auto` ran on this host.
fn under_both_backends(check: impl Fn(KernelBackend)) {
    let _turn = BACKEND
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for backend in [KernelBackend::Scalar, KernelBackend::Auto] {
        kernels::set_backend(backend);
        check(backend);
    }
    kernels::set_backend(KernelBackend::Auto);
    if !kernels::cpu_features().gfni {
        println!("no GFNI + AVX-512 VBMI on this host: checked the table fold only");
    }
}

#[test]
fn dispatched_hamming_line_codec_matches_the_per_word_reference() {
    let lines = ecc_probe_lines();
    under_both_backends(|backend| {
        for line in &lines {
            let ecc = encode_line(line);
            assert_eq!(ecc, line_code_ref(line), "{backend}: encode {line:02x?}");
            assert_eq!(
                decode_line(line, ecc).unwrap(),
                decode_line_ref(line, ecc),
                "{backend}: clean decode {line:02x?}"
            );
        }
    });
}

#[test]
fn dispatched_hamming_decode_corrects_a_flip_in_every_word() {
    let lines = ecc_probe_lines();
    let mut rng = StdRng::seed_from_u64(0xF11B);
    let flips: Vec<[usize; WORDS_PER_LINE]> = lines
        .iter()
        .map(|_| std::array::from_fn(|_| rng.gen_range(0..72)))
        .collect();
    under_both_backends(|backend| {
        for (line, flips) in lines.iter().zip(&flips) {
            let mut stored = *line;
            let mut codes = *encode_line(line).words();
            for (w, &bit) in flips.iter().enumerate() {
                // Bits 0..64 are data bits of word w, 64..72 its stored code.
                if bit < 64 {
                    stored[w * 8 + bit / 8] ^= 1 << (bit % 8);
                } else {
                    codes[w] ^= 1 << (bit - 64);
                }
            }
            let ecc = LineEcc::new(codes);
            let decoded = decode_line(&stored, ecc).unwrap();
            assert_eq!(
                decoded,
                decode_line_ref(&stored, ecc),
                "{backend}: {flips:?}"
            );
            assert_eq!(decoded.line, *line, "{backend}: {flips:?}");
            assert_eq!(
                decoded.corrected_words, WORDS_PER_LINE,
                "{backend}: {flips:?}"
            );
            assert!(decoded.corrected.iter().all(Option::is_some));
        }
    });
}

#[test]
fn metrics_export_reads_back_as_recorded() {
    let mut registry = Registry::new();
    registry.counter_add("writes", 3);
    registry.counter_add("writes", 4);
    registry.counter_add("tenant\"7\\reads\n", 11);
    registry.counter_add(String::from("by_handle"), 5);
    registry.gauge_set("depth", 2.5);
    registry.gauge_set("ratio", 1.0 / 3.0);
    for ns in [10, 20, 30, 40, 1_000] {
        registry.histogram_record("latency", Ps::from_ns(ns));
    }
    let json = Reader::parse(&registry.to_json());

    let counters: BTreeMap<String, f64> = json
        .field("counters")
        .fields()
        .iter()
        .map(|(k, v)| (k.clone(), v.num()))
        .collect();
    let recorded: BTreeMap<String, f64> = registry
        .counters()
        .map(|(k, v)| (k.to_owned(), v as f64))
        .collect();
    assert_eq!(counters, recorded);
    assert_eq!(counters["tenant\"7\\reads\n"], 11.0);
    assert_eq!(counters["by_handle"], 5.0);

    // Gauges and histogram summaries travel with six decimals.
    let six = |v: f64| format!("{v:.6}").parse::<f64>().unwrap();
    let gauges = json.field("gauges");
    assert_eq!(gauges.fields().len(), 2);
    for (name, value) in registry.gauges() {
        assert_eq!(gauges.field(name).num(), six(value), "{name}");
    }
    let latency = json.field("histograms").field("latency");
    let recorded = registry.histogram("latency").unwrap();
    assert_eq!(latency.field("count").num(), 5.0);
    assert_eq!(
        latency.field("mean_ns").num(),
        six(recorded.mean().as_ns_f64())
    );
    for (field, q) in [("p50_ns", 0.50), ("p99_ns", 0.99)] {
        let want = six(recorded.percentile(q).as_ns_f64());
        assert_eq!(latency.field(field).num(), want, "{field}");
    }
}

#[test]
fn service_codec_round_trips_every_message_shape() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let mut wire = Vec::new();
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for i in 0..200u64 {
        let line = CacheLine::from_seed(rng.gen());
        let local = rng.gen_range(0..1u64 << 40) * 0x40;
        let env = Envelope {
            tenant: rng.gen(),
            seq: i,
            arrival: Ps::ZERO,
            request: if i % 2 == 0 {
                Request::Write { local, line }
            } else {
                Request::Read { local }
            },
        };
        // Arrival is not on the wire; decoding stamps `Ps::ZERO`.
        let payload = encode_request(&env);
        assert_eq!(decode_request(&payload).unwrap(), env);
        write_frame(&mut wire, &payload).unwrap();
        requests.push(env);

        let latency = Ps(rng.gen());
        let resp = match i % 3 {
            0 => Response::Written {
                seq: i,
                deduplicated: rng.gen_bool(0.5),
                latency,
            },
            1 => Response::Data {
                seq: i,
                latency,
                line,
            },
            _ => Response::Rejected {
                seq: i,
                retry_after: latency,
            },
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        responses.push(resp);
    }

    // Requests back out of one byte stream, in order, then a clean EOF.
    let mut stream = wire.as_slice();
    for env in &requests {
        let payload = read_frame(&mut stream).unwrap().expect("frame present");
        assert_eq!(decode_request(&payload).unwrap(), *env);
    }
    assert_eq!(read_frame(&mut stream).unwrap(), None);

    // Responses batched into one buffer come back frame by frame.
    let mut batch = Vec::new();
    for resp in &responses {
        frame_response(&mut batch, resp);
    }
    let mut rest = batch.as_slice();
    for resp in &responses {
        let payload = peek_frame(rest).unwrap().expect("whole frame buffered");
        assert_eq!(decode_response(payload).unwrap(), *resp);
        rest = &rest[FRAME_HEADER_BYTES + payload.len()..];
    }
    assert!(rest.is_empty());
    // A frame cut anywhere is not yet a frame.
    let first = &batch[..FRAME_HEADER_BYTES + encode_response(&responses[0]).len()];
    for cut in 0..first.len() {
        assert_eq!(peek_frame(&first[..cut]).unwrap(), None, "cut at {cut}");
    }
}

#[test]
fn contended_service_run_matches_its_recorded_outcome() {
    // Four tenants offering about 1.6x what the shared store applies, so
    // the admission bound rejects over a third of the load. The state
    // digest covers the store, the clock and the registry export; the
    // response digest every answer in order. Both are recorded values: a
    // change to the queue, the counters or the export must reproduce them
    // byte for byte.
    let spec = LoadSpec {
        tenants: 4,
        qps: 6_000_000,
        requests_per_tenant: 4_000,
        profile: AppProfile::by_name("dedup").expect("profile of the paper's suite"),
        seed: 42,
    };
    let config = ServiceConfig {
        tenants: spec.tenants,
        queue_depth: 16,
        ..ServiceConfig::default()
    };
    let mut service = Service::new(&config);
    let responses = service.run_events(spec.events());
    let summary = service.summary();
    for t in &summary.tenants {
        assert_eq!(t.offered, spec.requests_per_tenant, "tenant {}", t.tenant);
        assert_eq!(t.offered, t.admitted + t.rejected, "tenant {}", t.tenant);
        assert!(t.rejected > 0, "tenant {} is contended", t.tenant);
    }
    assert_eq!(responses.len() as u64, 4 * spec.requests_per_tenant);

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (tenant, response) in &responses {
        for b in tenant
            .to_le_bytes()
            .into_iter()
            .chain(encode_response(response))
        {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    assert_eq!(summary.applied, 10_053);
    assert_eq!(summary.state_digest, 10_931_206_002_070_200_972);
    assert_eq!(hash, 0x840c_8f15_0691_5c6c);
}

#[test]
fn sweep_pool_matches_the_serial_sweep_at_any_thread_count() {
    // The pool hands each task its app's shared trace and returns results
    // in (app, task) order, whatever the schedule: replaying scheme `s` as
    // task `s` must give `run_serial`'s reports, in its order.
    let mut sweep = Sweep::new(AppProfile::all().into_iter().take(3).collect());
    sweep.accesses = 2_000;
    sweep.seed = 11;
    let expected: Vec<_> = sweep
        .run_serial(&SchemeKind::ALL)
        .into_iter()
        .flat_map(|row| row.reports)
        .collect();
    let options = sweep.run_options();
    for threads in [1, 2, 8] {
        sweep.threads = Some(threads);
        let reports = sweep.run_tasks(SchemeKind::ALL.len(), |_, trace, s| {
            let scheme = Scheme::new(SchemeKind::ALL[s], &sweep.config);
            run_trace(scheme, trace, &sweep.config, &options).expect("verified replay")
        });
        assert!(
            reports == expected,
            "{threads} threads reordered or changed a report"
        );
    }
}
