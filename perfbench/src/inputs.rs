//! Seeded inputs: click graphs, request schedules and click logs.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed gives byte-identical files. The program under test only ever sees
//! the generated bytes, never the seed.

use simrankpp_graph::delta::{write_click_log, ClickLogRecord};
use simrankpp_graph::io::write_tsv;
use simrankpp_graph::{ClickGraph, EdgeData, QueryId};
use simrankpp_synth::generator::{generate, GeneratorConfig};

/// SplitMix64: small, seedable and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a, 64 bit, as lowercase hex.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A synthetic world: the click graph as served, its TSV bytes, and the
/// traffic law over its queries (§9.2: queries arrive in proportion to
/// `World::query_popularity`).
pub struct World {
    pub graph: ClickGraph,
    pub tsv: Vec<u8>,
    /// Queries that have at least one edge, with cumulative popularity.
    queries: Vec<QueryId>,
    cumulative: Vec<f64>,
}

impl World {
    /// The `small()` generator shape, with its own fixed seed, scaled to
    /// `n_queries` (ads at 70 %). The world does not vary with the workload
    /// seed: per-seed graphs moved peak memory by ~17 % and set-up time by
    /// ~10 % between seeds, more than the bounds a change is judged by.
    pub fn generate(n_queries: usize) -> World {
        let mut gen = GeneratorConfig::small();
        gen.n_queries = n_queries;
        gen.n_ads = n_queries * 7 / 10;
        let data = generate(&gen);
        let mut tsv = Vec::new();
        write_tsv(&data.graph, &mut tsv).expect("synthetic names are TSV-safe");
        let mut queries = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for q in data.graph.queries() {
            if data.graph.query_degree(q) > 0 {
                total += data.world.query_popularity[q.index()];
                queries.push(q);
                cumulative.push(total);
            }
        }
        World {
            graph: data.graph,
            tsv,
            queries,
            cumulative,
        }
    }

    /// One popularity-weighted draw among the queries with edges.
    pub fn draw(&self, rng: &mut Rng) -> QueryId {
        let total = *self.cumulative.last().expect("a world has queries");
        let x = rng.unit() * total;
        let i = self.cumulative.partition_point(|&c| c <= x);
        self.queries[i.min(self.queries.len() - 1)]
    }

    pub fn name(&self, q: QueryId) -> &str {
        self.graph
            .query_name(q)
            .expect("synthetic graphs are named")
    }
}

/// One scheduled `rewrite` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Due time, from the start of its rate step.
    pub due_ns: u64,
    pub query: String,
    /// `false` for a never-seen query, whose answer must be
    /// `err\tunknown query\t<query>`.
    pub known: bool,
}

/// Share of requests that ask for a never-seen query.
const UNSEEN_SHARE: f64 = 0.02;

/// `n` request queries: popularity draws plus the never-seen share.
fn draw_queries(world: &World, n: usize, rng: &mut Rng) -> Vec<(String, bool)> {
    (0..n)
        .map(|_| {
            if rng.unit() < UNSEEN_SHARE {
                (format!("unseen query {}", rng.below(1_000_000)), false)
            } else {
                (world.name(world.draw(rng)).to_owned(), true)
            }
        })
        .collect()
}

/// A fixed-interval open-loop schedule at `rate` requests/s for `secs`.
pub fn schedule(world: &World, rate: f64, secs: f64, rng: &mut Rng) -> Vec<Request> {
    let n = (rate * secs).round().max(1.0) as usize;
    draw_queries(world, n, rng)
        .into_iter()
        .enumerate()
        .map(|(i, (query, known))| Request {
            due_ns: (i as f64 * 1e9 / rate) as u64,
            query,
            known,
        })
        .collect()
}

/// The bytes a schedule hashes as: one `due_ns \t query` line per request.
pub fn schedule_bytes(steps: &[Vec<Request>]) -> Vec<u8> {
    let mut out = String::new();
    for (i, step) in steps.iter().enumerate() {
        out.push_str(&format!("# step {i}\n"));
        for r in step {
            out.push_str(&format!("{}\t{}\n", r.due_ns, r.query));
        }
    }
    out.into_bytes()
}

/// A click log: one warm epoch holding every edge of the world, then
/// `epochs` batches of `events` popularity-sampled click events, each
/// closed by its epoch mark. Returns the warm bytes and each batch's bytes.
pub fn click_log(
    world: &World,
    epochs: usize,
    events: usize,
    rng: &mut Rng,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let g = &world.graph;
    let mut warm: Vec<ClickLogRecord> = g
        .edges()
        .map(|(q, a, e)| ClickLogRecord::Event {
            epoch: 0,
            query: world.name(q).to_owned(),
            ad: g.ad_name(a).expect("named graph").to_owned(),
            data: *e,
        })
        .collect();
    warm.push(ClickLogRecord::EpochMark { epoch: 1 });
    let mut warm_bytes = Vec::new();
    write_click_log(&warm, &mut warm_bytes).expect("synthetic names are TSV-safe");

    let batches = (1..=epochs as u64)
        .map(|epoch| {
            let mut recs: Vec<ClickLogRecord> = (0..events)
                .map(|_| {
                    let q = world.draw(rng);
                    let (ads, data) = g.ads_of(q);
                    let k = rng.below(ads.len() as u64) as usize;
                    let impressions = 1 + rng.below(8);
                    let clicks = rng.below(impressions + 1);
                    ClickLogRecord::Event {
                        epoch,
                        query: world.name(q).to_owned(),
                        ad: g.ad_name(ads[k]).expect("named graph").to_owned(),
                        data: EdgeData::new(impressions, clicks, data[k].expected_click_rate),
                    }
                })
                .collect();
            recs.push(ClickLogRecord::EpochMark { epoch: epoch + 1 });
            let mut bytes = Vec::new();
            write_click_log(&recs, &mut bytes).expect("synthetic names are TSV-safe");
            bytes
        })
        .collect();
    (warm_bytes, batches)
}

/// Inputs of a rate-ladder workload, with their hashes.
pub struct Inputs {
    pub world: World,
    /// One schedule per rate step.
    pub schedules: Vec<Vec<Request>>,
    pub probes: Vec<String>,
    pub hashes: Vec<(&'static str, String)>,
}

/// A `queries`-query world and one schedule per step of a ladder whose
/// step `i` runs at `rates[i]` for `shares[i]` of `seconds`.
pub fn ladder_inputs(
    queries: usize,
    rates: &[f64],
    shares: &[f64],
    seed: u64,
    seconds: f64,
) -> Inputs {
    let world = World::generate(queries);
    let mut rng = Rng::new(seed, 2);
    let schedules: Vec<Vec<Request>> = rates
        .iter()
        .zip(shares)
        .map(|(&rate, &share)| schedule(&world, rate, share * seconds, &mut rng))
        .collect();
    let probes = probe_queries(&world, &mut Rng::new(seed, 3));
    let hashes = vec![
        ("graph.tsv", fnv64(&world.tsv)),
        ("schedule", fnv64(&schedule_bytes(&schedules))),
    ];
    Inputs {
        world,
        schedules,
        probes,
        hashes,
    }
}

/// Probe queries: popular and rare known queries plus two never-seen ones.
pub fn probe_queries(world: &World, rng: &mut Rng) -> Vec<String> {
    let mut probes: Vec<String> = (0..24)
        .map(|_| world.name(world.draw(rng)).to_owned())
        .collect();
    probes.sort();
    probes.dedup();
    probes.push("unseen probe one".to_owned());
    probes.push("unseen probe two".to_owned());
    probes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let make = |seed| {
            let w = World::generate(300);
            let mut rng = Rng::new(seed, 2);
            let s = schedule_bytes(&[schedule(&w, 100.0, 1.0, &mut rng)]);
            let (warm, batches) = click_log(&w, 3, 20, &mut rng);
            (
                fnv64(&w.tsv),
                fnv64(&s),
                fnv64(&warm),
                fnv64(&batches.concat()),
            )
        };
        assert_eq!(make(7), make(7));
        let (a, b) = (make(7), make(8));
        assert_eq!(a.0, b.0, "the world is fixed");
        assert_ne!(a.1, b.1);
        assert_ne!(a.3, b.3);
    }

    #[test]
    fn schedules_are_evenly_spaced_and_mostly_known() {
        let w = World::generate(300);
        let s = schedule(&w, 200.0, 2.0, &mut Rng::new(1, 2));
        assert_eq!(s.len(), 400);
        assert_eq!(s[1].due_ns - s[0].due_ns, 5_000_000);
        let unseen = s.iter().filter(|r| !r.known).count();
        assert!(unseen > 0 && unseen < 30, "{unseen} unseen of 400");
        assert!(s
            .iter()
            .filter(|r| r.known)
            .all(|r| w.graph.query_by_name(&r.query).is_some()));
    }
}
