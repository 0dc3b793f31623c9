//! Differential tests of the direct report codec — [`write_report`],
//! [`read_report`] and the done frame, written around a report or its
//! stored body and read for any job — against the `Json` tree codec it
//! must match: the same bytes out, and for every input, canonical or
//! not, the same decoded value or the same rejection.

use gpu_mem::{CacheStats, DramStats, MemStats};
use gpu_serve::wire::{
    done_frame_from_json, ok_frame, read_done_frame, read_report, report_from_json, report_to_json,
    write_done_body, write_done_frame, write_report,
};
use gpu_sim::{DynLaunchKind, GpuConfig, LaunchRecord, Stats};
use gpu_trace::json::Json;
use sim_rand::{Rng, SeedableRng, StdRng};
use workloads::{Benchmark, CellSetup, RunReport, Scale, Variant};

/// A decode with the trace dropped (`RunReport` has no `PartialEq`).
type Decoded = Result<(String, Variant, Stats), String>;

fn view(r: Result<RunReport, String>) -> Decoded {
    r.map(|r| (r.benchmark, r.variant, r.stats))
}

/// What the tree decoder makes of `text`.
fn tree_decode(text: &str) -> Decoded {
    view(Json::parse(text).and_then(|v| report_from_json(&v)))
}

fn direct_bytes(r: &RunReport) -> String {
    let mut out = String::new();
    write_report(r, &mut out);
    out
}

/// The done frame as the tree builds it, newline included.
fn tree_done_frame(job: u64, r: &RunReport) -> String {
    let frame = ok_frame(vec![
        ("job".into(), Json::Num(job as f64)),
        ("state".into(), Json::Str("done".into())),
        ("report".into(), report_to_json(r)),
    ]);
    format!("{frame}\n")
}

/// Which counter values a random report draws.
#[derive(Clone, Copy, PartialEq)]
enum Values {
    /// Below 2^53: written as plain digits, read without the tree.
    Canonical,
    /// Also 2^53 and `u64::MAX`, which the writer spells as floats and
    /// which decode back exactly.
    Exact,
    /// Also values above 2^53 that round on the way through `f64`.
    Lossy,
}

fn value(rng: &mut StdRng, values: Values) -> u64 {
    match rng.gen_range(0..10u32) {
        0 => 0,
        1 => 1,
        2 => (1 << 53) - 1,
        3 if values != Values::Canonical => [1 << 53, u64::MAX][rng.gen_range(0..2usize)],
        4 if values == Values::Lossy => (1 << 53) + 1 + rng.gen_range(0..1_000u64),
        5 if values == Values::Lossy => rng.gen(),
        6 => rng.gen_range(0..1_000u64),
        _ => rng.gen::<u64>() >> rng.gen_range(11..64u32),
    }
}

fn value32(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => u32::MAX,
        2 => rng.gen_range(0..100u32),
        _ => rng.gen(),
    }
}

const KINDS: [DynLaunchKind; 4] = [
    DynLaunchKind::DeviceKernel,
    DynLaunchKind::AggGroup,
    DynLaunchKind::AggFallback,
    DynLaunchKind::HostSerialized,
];

fn random_stats(rng: &mut StdRng, launches: usize, values: Values) -> Stats {
    let mut v = || value(rng, values);
    let cache = |v: &mut dyn FnMut() -> u64| CacheStats {
        hits: v(),
        misses: v(),
        writebacks: v(),
    };
    let mem = MemStats {
        loads: v(),
        stores: v(),
        atomics: v(),
        l1: cache(&mut v),
        l2: cache(&mut v),
        dram: DramStats {
            n_rd: v(),
            n_wr: v(),
            active_cycles: v(),
            row_hits: v(),
            row_misses: v(),
        },
    };
    let mut s = Stats {
        cycles: v(),
        warp_issues: v(),
        active_lanes: v(),
        resident_warp_cycles: v(),
        busy_cycles: v(),
        tb_completed: v(),
        host_launches: v(),
        launches: Default::default(),
        peak_pending_bytes: v(),
        pending_bytes: v(),
        agg_coalesced: v(),
        agg_fallbacks: v(),
        agt_overflows: v(),
        mem,
        barrier_waits: v(),
        forced_agt_overflows: v(),
        forced_mem_delays: v(),
        hwq_full_rejections: v(),
        kmu_saturation_rejections: v(),
        agt_overflow_exhausted: v(),
        heap_cap_denials: v(),
        degraded_to_device_kernel: v(),
        degraded_to_host_serial: v(),
        launch_backoffs: v(),
        host_launches_deferred: v(),
        max_warps_per_smx: 0,
        num_smx: 0,
    };
    s.max_warps_per_smx = value32(rng);
    s.num_smx = value32(rng);
    s.launches = (0..launches)
        .map(|_| LaunchRecord {
            kind: KINDS[rng.gen_range(0..KINDS.len())],
            launched_at: value(rng, values),
            first_tb_at: rng.gen_bool(0.5).then(|| value(rng, values)),
            ntb: value32(rng),
            threads_per_tb: value32(rng),
            reserved_bytes: value(rng, values),
        })
        .collect::<Vec<_>>()
        .into();
    s
}

/// Benchmark names: plain ones, and strings the writer must escape and
/// the reader must hand to the tree.
const PLAIN_NAMES: usize = 3;
const NAMES: [&str; 6] = ["amr", "sssp_cage15", "", "a\"b\\c", "tab\there", "\u{1}é∑"];

fn random_report(rng: &mut StdRng, launches: usize, values: Values) -> RunReport {
    RunReport {
        benchmark: NAMES[rng.gen_range(0..NAMES.len())].to_string(),
        variant: Variant::ALL[rng.gen_range(0..Variant::ALL.len())],
        stats: random_stats(rng, launches, values),
        trace: None,
    }
}

/// Writer bytes equal the tree's; the reader and the tree decode them to
/// the same value, which is `r` itself unless values were lossy; the done
/// frame matches the tree's whether written around `r` or its body, reads
/// back with its own job id through the reader and the tree, and reads
/// back without the tree when `r` is canonical.
fn check_codec(r: &RunReport, values: Values) {
    let bytes = direct_bytes(r);
    assert_eq!(bytes, report_to_json(r).to_string(), "writer bytes");
    let read = view(read_report(&bytes));
    assert_eq!(read, tree_decode(&bytes), "reader vs tree on {bytes}");
    if values != Values::Lossy {
        assert_eq!(read, view(Ok(r.clone())), "round trip");
    }

    let mut frame = String::new();
    write_done_frame(42, r, &mut frame);
    assert_eq!(frame, tree_done_frame(42, r), "done frame bytes");
    let line = frame.as_str();
    let tree = done_frame_from_json(&Json::parse(line.trim_end()).unwrap())
        .map(|done| done.map(|(job, r)| (job, view(Ok(r)))));
    assert_eq!(tree, Ok(Some((42, read.clone()))), "done frame tree decode");
    match read_done_frame(line) {
        Some((job, got)) => assert_eq!((job, view(Ok(got))), (42, read), "done frame decode"),
        None => assert!(
            values != Values::Canonical || !NAMES[..PLAIN_NAMES].contains(&r.benchmark.as_str()),
            "a canonical done frame must read without the tree: {line}"
        ),
    }
    let mut from_body = String::new();
    write_done_body(42, &bytes, &mut from_body);
    assert_eq!(from_body, frame, "done frame around a stored body");
}

#[test]
fn writer_and_reader_match_the_tree_on_seeded_random_reports() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for i in 0..600 {
        let launches = match i % 4 {
            0 => 0,
            1 => 1,
            2 => rng.gen_range(2..20),
            _ => 700,
        };
        let values = [Values::Canonical, Values::Exact, Values::Lossy][i % 3];
        check_codec(&random_report(&mut rng, launches, values), values);
    }
}

/// The reports the `serve_mix` benchmark serves: every benchmark but the
/// two heaviest, under all six variants, at Test scale on the K20c.
fn serve_mix_reports() -> Vec<RunReport> {
    let benches: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|b| !matches!(b, Benchmark::ClrGraph500 | Benchmark::ClrCage15))
        .collect();
    let per_thread = benches.len().div_ceil(4);
    std::thread::scope(|s| {
        let workers: Vec<_> = benches
            .chunks(per_thread)
            .map(|chunk| {
                s.spawn(move || {
                    let mut reports = Vec::new();
                    for &b in chunk {
                        let setup = CellSetup::new(b, Scale::Test, GpuConfig::k20c())
                            .expect("set up a serve_mix cell");
                        for v in Variant::ALL {
                            reports.push(setup.run(v).expect("run a serve_mix cell"));
                        }
                    }
                    reports
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("cell thread"))
            .collect()
    })
}

#[test]
fn writer_and_reader_match_the_tree_on_every_serve_mix_report() {
    let reports = serve_mix_reports();
    assert_eq!(reports.len(), 84);
    for r in &reports {
        check_codec(r, Values::Canonical);
    }
    let most = reports.iter().map(|r| r.stats.launches.len()).max();
    assert_eq!(most, Some(663), "sssp_cage15's launches");
}

fn count_objects(v: &Json) -> usize {
    match v {
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Json::Arr(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// An object's members, as `Json::Obj` holds them.
type Members = Vec<(String, Json)>;

/// Applies `f` to the members of the `n`th object in pre-order.
fn with_nth_object(v: &mut Json, n: &mut usize, f: &mut dyn FnMut(&mut Members)) {
    match v {
        Json::Obj(pairs) => {
            if *n == 0 {
                f(pairs);
                *n = usize::MAX;
                return;
            }
            *n -= 1;
            for (_, v) in pairs.iter_mut() {
                with_nth_object(v, n, f);
            }
        }
        Json::Arr(items) => {
            for v in items {
                with_nth_object(v, n, f);
            }
        }
        _ => {}
    }
}

/// How many values [`wrong_value`] has.
const WRONG: usize = 12;

/// A value that is not what the field holds: a wrong type, a negative,
/// non-integral or out-of-range number, or a string the field rejects.
fn wrong_value(k: usize, old: &Json) -> Json {
    let n = old.as_f64().unwrap_or(3.0);
    match k {
        0 => Json::Str("7".into()),
        1 => Json::Bool(true),
        2 => Json::Null,
        3 => Json::Arr(vec![]),
        4 => Json::Obj(vec![]),
        5 => Json::Num(-1.0),
        6 => Json::Num(n + 0.5),
        7 => Json::Num(f64::from(u32::MAX) + 1.0),
        8 => Json::Num(1e300),
        9 => Json::Num((1u64 << 53) as f64),
        10 => Json::Str("agg_group".into()),
        _ => Json::Str("Flat".into()),
    }
}

/// One structural edit of an object member.
#[derive(Clone, Copy)]
enum Edit {
    Drop,
    Duplicate,
    SwapNext,
    Unknown,
    Replace(usize),
    /// A wrong value under the same key, before the member.
    ShadowBefore(usize),
    /// A wrong value under the same key, after the member.
    ShadowAfter(usize),
}

fn every_edit() -> impl Iterator<Item = Edit> {
    [Edit::Drop, Edit::Duplicate, Edit::SwapNext, Edit::Unknown]
        .into_iter()
        .chain((0..WRONG).flat_map(|k| {
            [
                Edit::Replace(k),
                Edit::ShadowBefore(k),
                Edit::ShadowAfter(k),
            ]
        }))
}

/// `base` with member `i` of its `n`th object edited, serialized.
fn edited(base: &Json, n: usize, i: usize, edit: Edit) -> String {
    let mut v = base.clone();
    with_nth_object(&mut v, &mut { n }, &mut |pairs| {
        if i >= pairs.len() {
            pairs.push(("x".into(), Json::Null));
            return;
        }
        let (key, old) = pairs[i].clone();
        match edit {
            Edit::Drop => {
                pairs.remove(i);
            }
            Edit::Duplicate => pairs.insert(i, (key, old)),
            Edit::SwapNext => {
                let j = (i + 1) % pairs.len();
                pairs.swap(i, j);
            }
            Edit::Unknown => pairs.insert(i, ("unknown".into(), Json::Num(1.0))),
            Edit::Replace(k) => pairs[i].1 = wrong_value(k, &old),
            Edit::ShadowBefore(k) => pairs.insert(i, (key, wrong_value(k, &old))),
            Edit::ShadowAfter(k) => pairs.insert(i + 1, (key, wrong_value(k, &old))),
        }
    });
    v.to_string()
}

fn members(base: &Json, n: usize) -> usize {
    let mut len = 0;
    with_nth_object(&mut base.clone(), &mut { n }, &mut |pairs| {
        len = pairs.len()
    });
    len
}

/// Number literals that decode differently, or not at all, once past
/// the reader's bounds.
const BIG_LITERALS: [&str; 6] = [
    "9007199254740993",
    "9007199254740992",
    "18446744073709551615",
    "4294967296",
    "00",
    "0",
];

/// The byte range of every run of digits in `text`.
fn digit_runs(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Bytes a single-byte insertion draws from: JSON structure, number
/// syntax, an escape and whitespace.
const INSERTS: &[u8] = b"\",:{}[]0-.e\\n ";

/// A random byte-level mutation of `text`: whitespace, a leading zero, an
/// escaped character, a non-integral, signed or oversized number, a
/// deleted or an inserted byte.
fn text_mutation(rng: &mut StdRng, text: &str) -> String {
    let b = text.as_bytes();
    let at = rng.gen_range(0..=b.len());
    let (head, tail) = text.split_at(at);
    let runs = digit_runs(text);
    let (d, end) = runs
        .get(rng.gen_range(0..runs.len().max(1)))
        .copied()
        .unwrap_or((0, 0));
    match rng.gen_range(0..9u32) {
        0 => format!(
            "{head}{}{tail}",
            [" ", "\n", "\t", "\r"][rng.gen_range(0..4usize)]
        ),
        1 => format!("{}0{}", &text[..d], &text[d..]),
        2 => {
            // The first letter from `at` on, spelled as a `\u` escape.
            match (at..b.len()).find(|&i| b[i].is_ascii_lowercase()) {
                Some(i) => format!("{}\\u{:04x}{}", &text[..i], b[i], &text[i + 1..]),
                None => text.to_string(),
            }
        }
        3 => {
            let suffix = [".0", ".5", "e0", "E1", ".25e1"][rng.gen_range(0..5usize)];
            format!("{}{suffix}{}", &text[..end], &text[end..])
        }
        4 => format!("{}-{}", &text[..d], &text[d..]),
        5 => match tail.chars().next() {
            Some(c) => format!("{head}{}", &tail[c.len_utf8()..]),
            None => text.to_string(),
        },
        6 => {
            let c = char::from(INSERTS[rng.gen_range(0..INSERTS.len())]);
            format!("{head}{c}{tail}")
        }
        7 => {
            let big = BIG_LITERALS[rng.gen_range(0..BIG_LITERALS.len())];
            format!("{}{big}{}", &text[..d], &text[end..])
        }
        _ => text.replacen("null", "0", 1),
    }
}

/// The reader and the tree decoder agree on `text`, and on the done
/// frame that wraps it. Counts the outcome in `[rejected, decoded]`.
fn check_agrees(text: &str, outcomes: &mut [usize; 2]) {
    let want = tree_decode(text);
    assert_eq!(view(read_report(text)), want, "reader vs tree on {text}");
    let line = format!("{{\"ok\":true,\"job\":5,\"state\":\"done\",\"report\":{text}}}");
    if let Some((job, got)) = read_done_frame(&line) {
        assert_eq!(
            (job, view(Ok(got))),
            (5, want.clone()),
            "done frame on {text}"
        );
    }
    outcomes[usize::from(want.is_ok())] += 1;
}

/// A canonical report with `launches` launches.
fn canonical_report(rng: &mut StdRng, launches: usize) -> RunReport {
    let mut r = random_report(rng, launches, Values::Canonical);
    r.benchmark = "bfs_cage15".into();
    r
}

#[test]
fn reader_agrees_with_the_tree_on_every_single_edit() {
    let mut rng = StdRng::seed_from_u64(0xed17);
    let mut outcomes = [0usize; 2];
    for launches in [0, 1, 3] {
        let text = direct_bytes(&canonical_report(&mut rng, launches));
        let base = Json::parse(&text).unwrap();
        for n in 0..count_objects(&base) {
            for i in 0..=members(&base, n) {
                for edit in every_edit() {
                    check_agrees(&edited(&base, n, i, edit), &mut outcomes);
                }
            }
        }
        for cut in 0..text.len() {
            check_agrees(&text[..cut], &mut outcomes);
        }
        for (start, end) in digit_runs(&text) {
            for big in BIG_LITERALS {
                check_agrees(
                    &format!("{}{big}{}", &text[..start], &text[end..]),
                    &mut outcomes,
                );
            }
        }
        if launches == 0 {
            for at in 0..text.len() {
                check_agrees(
                    &format!("{}{}", &text[..at], &text[at + 1..]),
                    &mut outcomes,
                );
                for &c in INSERTS {
                    let c = char::from(c);
                    check_agrees(&format!("{}{c}{}", &text[..at], &text[at..]), &mut outcomes);
                }
            }
        }
    }
    let [rejected, decoded] = outcomes;
    assert!(
        rejected > 1_000 && decoded > 1_000,
        "edits should both break and keep frames: {outcomes:?}"
    );
}

#[test]
fn reader_agrees_with_the_tree_on_random_mutations() {
    let mut rng = StdRng::seed_from_u64(0xf422);
    let mut outcomes = [0usize; 2];
    for i in 0..60 {
        let text = direct_bytes(&canonical_report(&mut rng, [0, 1, 3][i % 3]));
        let base = Json::parse(&text).unwrap();
        let edits: Vec<Edit> = every_edit().collect();
        for _ in 0..150 {
            let n = rng.gen_range(0..count_objects(&base));
            let i = rng.gen_range(0..=members(&base, n));
            let edit = edits[rng.gen_range(0..edits.len())];
            let once = edited(&base, n, i, edit);
            check_agrees(&once, &mut outcomes);
            check_agrees(&text_mutation(&mut rng, &once), &mut outcomes);
            let once = text_mutation(&mut rng, &text);
            check_agrees(&once, &mut outcomes);
            check_agrees(&text_mutation(&mut rng, &once), &mut outcomes);
        }
    }
    let [rejected, decoded] = outcomes;
    assert!(
        rejected > 1_000 && decoded > 1_000,
        "mutations should both break and keep frames: {outcomes:?}"
    );
}
