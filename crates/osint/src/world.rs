//! The ground-truth world: registries of ASNs, IPs, domains, URLs, the
//! campaign machinery, and the generated timeline of attributed events.
//!
//! Generation is entirely deterministic in `WorldConfig::seed`. The
//! world is immutable once generated; the [`crate::OsintClient`]
//! provides the query surface the TRAIL pipeline consumes.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

use trail_ioc::report::{RawIndicator, RawReport};

use crate::config::WorldConfig;
use crate::naming;
use crate::profile::{pools, AptProfile, APT_NAMES};
use crate::DAYS_PER_MONTH;

/// First octets usable for synthetic public IP space (reserved and
/// special-use ranges excluded).
const FIRST_OCTETS: &[u8] = &[
    5, 23, 31, 37, 45, 62, 77, 80, 85, 91, 93, 95, 103, 104, 109, 141, 146, 151, 158, 176, 178,
    185, 188, 193, 194, 195, 212, 213, 217,
];

/// An autonomous system in the registry.
#[derive(Debug, Clone)]
pub struct AsnInfo {
    /// AS number.
    pub number: u32,
    /// Operator name.
    pub name: String,
    /// Country the AS announces from.
    pub country: String,
    /// Address registry / issuer.
    pub issuer: String,
    /// First two octets of the /16 this AS announces.
    pub prefix: (u8, u8),
    /// log2 of the announced pool size.
    pub size_log: f32,
}

/// Ground truth for one IP address.
#[derive(Debug, Clone)]
pub struct IpTruth {
    /// Index into the ASN registry.
    pub asn: u32,
    /// Issuer string (may differ from the ASN's registry).
    pub issuer: String,
    /// Geolocation.
    pub lat: f32,
    /// Geolocation.
    pub lon: f32,
    /// First day this address was active.
    pub first_day: u32,
    /// Last day this address was observed.
    pub last_day: u32,
    /// Domain indices that historically resolved to this address.
    pub domains: Vec<u32>,
}

/// Ground truth for one domain.
#[derive(Debug, Clone)]
pub struct DomainTruth {
    /// IP indices from A records.
    pub ips: Vec<u32>,
    /// URL indices hosted on this domain (the `url_list` surface).
    pub urls: Vec<u32>,
    /// Non-A record counts: AAAA, CNAME, MX, NS, TXT, SOA, PTR, SRV.
    pub extra_records: [u32; 8],
    /// First day seen.
    pub first_day: u32,
    /// Last day seen (grows as campaigns reuse the domain).
    pub last_day: u32,
}

/// Ground truth for one URL.
#[derive(Debug, Clone)]
pub struct UrlTruth {
    /// Hosting domain index (None when the host is a literal IP).
    pub domain: Option<u32>,
    /// IPs the URL resolves to.
    pub ips: Vec<u32>,
    /// Server banner.
    pub server: String,
    /// Server OS fingerprint.
    pub server_os: String,
    /// Content encoding.
    pub encoding: String,
    /// Hosted file MIME type.
    pub file_type: String,
    /// Coarse file class.
    pub file_class: String,
    /// Typical HTTP response code.
    pub http_code: u16,
    /// Exposed services.
    pub services: Vec<String>,
    /// Header flags.
    pub header_flags: Vec<String>,
    /// Creation day.
    pub created_day: u32,
}

/// A generated attributed event (the OTX pulse analogue plus ground truth).
#[derive(Debug, Clone)]
pub struct GeneratedEvent {
    /// The raw report as the feed would serve it.
    pub report: RawReport,
    /// Ground-truth APT index (labels in `report.tags` may be noisy!).
    pub true_apt: usize,
    /// Day the event occurred.
    pub day: u32,
}

/// One campaign's live infrastructure pool.
#[derive(Debug, Clone)]
struct Campaign {
    ips: Vec<u32>,
    domains: Vec<u32>,
    urls: Vec<u32>,
    favorite_c2: u32,
}

/// The immutable generated world.
#[derive(Debug)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// One profile per APT (post-drift state; drift history is baked
    /// into the generated infrastructure).
    pub profiles: Vec<AptProfile>,
    /// ASN registry.
    pub asns: Vec<AsnInfo>,
    pub(crate) ips: Vec<IpTruth>,
    pub(crate) ip_names: Vec<String>,
    pub(crate) ip_index: HashMap<String, u32>,
    pub(crate) domains: Vec<DomainTruth>,
    pub(crate) domain_names: Vec<String>,
    pub(crate) domain_index: HashMap<String, u32>,
    pub(crate) urls: Vec<UrlTruth>,
    pub(crate) url_names: Vec<String>,
    pub(crate) url_index: HashMap<String, u32>,
    /// Generated events, sorted by day.
    pub events: Vec<GeneratedEvent>,
}

impl World {
    /// Generate a world from the configuration.
    pub fn generate(config: WorldConfig) -> Self {
        Generator::new(config).run()
    }

    /// Ground-truth label of an event by report id.
    pub fn truth(&self, report_id: &str) -> Option<usize> {
        self.events
            .iter()
            .find(|e| e.report.id == report_id)
            .map(|e| e.true_apt)
    }

    /// A tiny hand-written world with **no RNG anywhere** in its
    /// construction: every registry entry, cross-link and report below
    /// is a literal. The downstream noise channels (analysis gaps,
    /// feed-noise presentation) are pure fnv1a hashes of this fixed
    /// content, so the TKG built from this world is bit-identical on
    /// every toolchain — the anchor for the golden-fingerprint
    /// regression test. Not suitable for accuracy experiments
    /// (`profiles` is empty and the event sample is minimal).
    pub fn fixture() -> Self {
        let mut config = WorldConfig::tiny(0xF1B5);
        config.n_apts = 3;
        config.cutoff_day = 600;
        config.analysis_miss_prob = 0.1;
        config.feed_noise = 0.3;
        config.transient_fault_prob = 0.0;

        let asns = vec![
            AsnInfo {
                number: 64496,
                name: "FIXTURE-NET-1".into(),
                country: "US".into(),
                issuer: "arin".into(),
                prefix: (185, 10),
                size_log: 12.0,
            },
            AsnInfo {
                number: 64511,
                name: "FIXTURE-NET-2".into(),
                country: "DE".into(),
                issuer: "ripe".into(),
                prefix: (193, 20),
                size_log: 10.0,
            },
        ];

        let ip_names: Vec<String> = [
            "185.10.0.1",
            "185.10.0.2",
            "185.10.0.3",
            "193.20.0.1",
            "193.20.0.2",
            "193.20.0.3",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let ip = |asn: u32, issuer: &str, lat: f32, lon: f32, domains: Vec<u32>| IpTruth {
            asn,
            issuer: issuer.into(),
            lat,
            lon,
            first_day: 10,
            last_day: 500,
            domains,
        };
        let ips = vec![
            ip(0, "arin", 38.9, -77.0, vec![0]),
            ip(0, "arin", 40.7, -74.0, vec![0, 3]),
            ip(0, "ripe", 34.1, -118.2, vec![1]),
            ip(1, "ripe", 52.5, 13.4, vec![2]),
            ip(1, "ripe", 48.1, 11.6, vec![2, 1]),
            ip(1, "arin", 50.1, 8.7, vec![3]),
        ];

        let domain_names: Vec<String> = [
            "alpha-command.net",
            "bravo-panel.org",
            "charlie-drop.com",
            "delta-cdn.io",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let domains = vec![
            DomainTruth {
                ips: vec![0, 1],
                urls: vec![0],
                extra_records: [1, 0, 1, 1, 1, 0, 0, 0],
                first_day: 20,
                last_day: 450,
            },
            DomainTruth {
                ips: vec![2],
                urls: vec![1],
                extra_records: [0, 1, 1, 1, 0, 0, 0, 0],
                first_day: 60,
                last_day: 480,
            },
            DomainTruth {
                ips: vec![3, 4],
                urls: vec![2],
                extra_records: [2, 0, 1, 1, 1, 1, 0, 0],
                first_day: 90,
                last_day: 500,
            },
            DomainTruth {
                ips: vec![5],
                urls: vec![],
                extra_records: [0, 0, 1, 1, 0, 0, 0, 0],
                first_day: 120,
                last_day: 520,
            },
        ];

        let url_names: Vec<String> = [
            "http://alpha-command.net/gate.php",
            "http://bravo-panel.org/login",
            "http://charlie-drop.com/payload.exe",
            "http://193.20.0.3/beacon",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let urls = vec![
            UrlTruth {
                domain: Some(0),
                ips: vec![0, 1],
                server: "nginx".into(),
                server_os: "linux".into(),
                encoding: "gzip".into(),
                file_type: "text/html".into(),
                file_class: "html".into(),
                http_code: 200,
                services: vec!["http".into()],
                header_flags: vec!["hsts".into()],
                created_day: 50,
            },
            UrlTruth {
                domain: Some(1),
                ips: vec![2],
                server: "apache".into(),
                server_os: "linux".into(),
                encoding: "identity".into(),
                file_type: "text/html".into(),
                file_class: "html".into(),
                http_code: 200,
                services: vec!["http".into(), "https".into()],
                header_flags: vec![],
                created_day: 80,
            },
            UrlTruth {
                domain: Some(2),
                ips: vec![3],
                server: "nginx".into(),
                server_os: "freebsd".into(),
                encoding: "gzip".into(),
                file_type: "application/x-dosexec".into(),
                file_class: "executable".into(),
                http_code: 200,
                services: vec!["http".into()],
                header_flags: vec!["server-tokens".into()],
                created_day: 110,
            },
            UrlTruth {
                domain: None,
                ips: vec![5],
                server: "python".into(),
                server_os: "linux".into(),
                encoding: "identity".into(),
                file_type: "application/octet-stream".into(),
                file_class: "binary".into(),
                http_code: 404,
                services: vec!["http".into()],
                header_flags: vec![],
                created_day: 140,
            },
        ];

        let ind = |t: &str, v: &str| RawIndicator {
            indicator_type: t.into(),
            indicator: v.into(),
        };
        // Six reports, two per APT, with deliberate cross-event IOC
        // reuse and noisy spellings (defanged, mixed case, trailing
        // dot) plus one unparseable indicator.
        let raw_events: Vec<(u32, usize, Vec<&str>, Vec<RawIndicator>)> = vec![
            (
                100,
                0,
                vec!["sofacy", "APT28"],
                vec![
                    ind("URL", "http://alpha-command.net/gate.php"),
                    ind("domain", "alpha-command[.]net"),
                    ind("IPv4", "185.10.0.1"),
                ],
            ),
            (
                150,
                1,
                vec!["cozy-bear"],
                vec![
                    ind("hostname", "Bravo-Panel.ORG."),
                    ind("URL", "hxxp://bravo-panel[.]org/login"),
                    ind("IPv4", "185.10.0.3"),
                ],
            ),
            (
                200,
                2,
                vec!["APT27"],
                vec![
                    ind("URL", "http://charlie-drop.com/payload.exe"),
                    ind("IPv4", "193.20.0[.]1"),
                    ind("domain", "charlie-drop.com"),
                ],
            ),
            (
                250,
                0,
                vec!["APT28"],
                vec![
                    ind("IPv4", "185.10.0[.]1"),
                    ind("domain", "delta-cdn.io"),
                    ind("URL", "http://193.20.0.3/beacon"),
                ],
            ),
            (
                300,
                1,
                vec!["APT29"],
                vec![
                    ind("domain", "bravo-panel.org"),
                    ind("IPv4", "193.20.0.2"),
                    ind("domain", "not a domain!!"),
                ],
            ),
            (
                350,
                2,
                vec!["APT27"],
                vec![
                    ind("URL", "hxxp://charlie-drop[.]com/payload.exe"),
                    ind("IPv4", "193.20.0.3"),
                    ind("hostname", "charlie-drop.com."),
                ],
            ),
        ];
        let events: Vec<GeneratedEvent> = raw_events
            .into_iter()
            .enumerate()
            .map(|(i, (day, true_apt, tags, indicators))| GeneratedEvent {
                report: RawReport {
                    id: format!("FIX-{i:04}"),
                    created_day: day,
                    tags: tags.into_iter().map(str::to_owned).collect(),
                    indicators,
                },
                true_apt,
                day,
            })
            .collect();

        let index = |names: &[String]| -> HashMap<String, u32> {
            names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), i as u32))
                .collect()
        };
        let (ip_index, domain_index, url_index) =
            (index(&ip_names), index(&domain_names), index(&url_names));
        World {
            config,
            profiles: Vec::new(),
            asns,
            ips,
            ip_names,
            ip_index,
            domains,
            domain_names,
            domain_index,
            urls,
            url_names,
            url_index,
            events,
        }
    }
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

struct Generator {
    cfg: WorldConfig,
    rng: StdRng,
    profiles: Vec<AptProfile>,
    asns: Vec<AsnInfo>,
    ips: Vec<IpTruth>,
    ip_names: Vec<String>,
    ip_index: HashMap<String, u32>,
    domains: Vec<DomainTruth>,
    domain_names: Vec<String>,
    domain_index: HashMap<String, u32>,
    urls: Vec<UrlTruth>,
    url_names: Vec<String>,
    url_index: HashMap<String, u32>,
    backbones: Vec<Vec<u32>>,
    shared_ips: Vec<u32>,
    shared_domains: Vec<u32>,
    events: Vec<GeneratedEvent>,
    asn_by_country: HashMap<String, Vec<usize>>,
}

/// Geopolitical clusters: groups in the same cluster share hosting
/// habits, which is what makes e.g. APT37 confusable with APT38 in the
/// paper's Fig. 7.
fn cluster_of(name: &str) -> usize {
    match name {
        "APT37" | "APT38" | "KIMSUKY" => 0, // DPRK
        "APT1" | "APT3" | "APT10" | "APT17" | "APT27" | "APT40" | "APT41" => 1, // CN
        "APT28" | "APT29" | "TURLA" | "SANDWORM" => 2, // RU
        _ => 3,                             // crimeware
    }
}

const CLUSTER_COUNTRIES: [&[&str]; 4] = [
    &["kp", "cn", "ru"],
    &["cn", "hk", "sg"],
    &["ru", "nl", "lv"],
    &["us", "de", "nl"],
];

impl Generator {
    fn new(cfg: WorldConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            rng,
            profiles: Vec::new(),
            asns: Vec::new(),
            ips: Vec::new(),
            ip_names: Vec::new(),
            ip_index: HashMap::new(),
            domains: Vec::new(),
            domain_names: Vec::new(),
            domain_index: HashMap::new(),
            urls: Vec::new(),
            url_names: Vec::new(),
            url_index: HashMap::new(),
            backbones: Vec::new(),
            shared_ips: Vec::new(),
            shared_domains: Vec::new(),
            events: Vec::new(),
            asn_by_country: HashMap::new(),
        }
    }

    fn run(mut self) -> World {
        self.gen_asns();
        self.gen_profiles();
        self.gen_shared_infra();
        self.gen_backbones();
        self.gen_timeline();
        self.events.sort_by_key(|e| e.day);
        World {
            config: self.cfg,
            profiles: self.profiles,
            asns: self.asns,
            ips: self.ips,
            ip_names: self.ip_names,
            ip_index: self.ip_index,
            domains: self.domains,
            domain_names: self.domain_names,
            domain_index: self.domain_index,
            urls: self.urls,
            url_names: self.url_names,
            url_index: self.url_index,
            events: self.events,
        }
    }

    fn gen_asns(&mut self) {
        for i in 0..self.cfg.n_asns {
            let a = FIRST_OCTETS[i % FIRST_OCTETS.len()];
            let b = (i / FIRST_OCTETS.len()) as u8;
            let country = pools::COUNTRIES[self.rng.gen_range(0..pools::COUNTRIES.len())];
            let issuer = pools::ISSUERS[self.rng.gen_range(0..pools::ISSUERS.len())];
            self.asn_by_country
                .entry(country.to_owned())
                .or_default()
                .push(i);
            self.asns.push(AsnInfo {
                number: 64512 + i as u32,
                name: format!("AS-{}-{}", country.to_uppercase(), i),
                country: country.to_owned(),
                issuer: issuer.to_owned(),
                prefix: (a, b),
                size_log: self.rng.gen_range(8.0..20.0),
            });
        }
    }

    fn gen_profiles(&mut self) {
        let n = self.cfg.n_apts.min(APT_NAMES.len());
        for (rank, name) in APT_NAMES.iter().take(n).enumerate() {
            let mut p = AptProfile::generate(&mut self.rng, name, rank);
            // Cluster members share hosting countries (with individual order).
            let cluster = CLUSTER_COUNTRIES[cluster_of(name)];
            let mut order: Vec<&str> = cluster.to_vec();
            order.shuffle(&mut self.rng);
            p.countries = crate::profile::Preference {
                choices: order
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (c.to_owned(), 0.5f32.powi(i as i32)))
                    .collect(),
            };
            // Preferred ASNs drawn from the profile's top countries.
            for _ in 0..3 {
                let country = p.countries.sample(&mut self.rng).to_owned();
                if let Some(cands) = self.asn_by_country.get(&country) {
                    p.preferred_asns
                        .push(cands[self.rng.gen_range(0..cands.len())]);
                }
            }
            if p.preferred_asns.is_empty() {
                p.preferred_asns
                    .push(self.rng.gen_range(0..self.asns.len()));
            }
            self.profiles.push(p);
        }
    }

    fn gen_shared_infra(&mut self) {
        // Popular benign infrastructure many reports touch: public DNS,
        // CDNs, compromised shared hosting.
        for i in 0..self.cfg.shared_infra_size {
            let asn = self.rng.gen_range(0..self.asns.len());
            let ip = self.new_ip_on_asn(asn, 0, None);
            self.shared_ips.push(ip);
            if i % 2 == 0 {
                let d = self.new_domain_raw(None, 0, &[ip]);
                self.shared_domains.push(d);
            }
        }
        // Shared domains also resolve to several shared IPs → high-degree
        // noise hubs whose propagated labels wash out (paper Section VI-B).
        for &d in &self.shared_domains.clone() {
            for _ in 0..3 {
                let ip = self.shared_ips[self.rng.gen_range(0..self.shared_ips.len())];
                self.link_domain_ip(d, ip);
            }
        }
    }

    fn gen_backbones(&mut self) {
        for apt in 0..self.profiles.len() {
            let mut bb = Vec::new();
            for _ in 0..self.cfg.backbone_ips_per_apt {
                let asn = self.pick_asn(Some(apt));
                let ip = self.new_ip_on_asn(asn, 0, Some(apt));
                bb.push(ip);
            }
            self.backbones.push(bb);
        }
        // DPRK cluster groups share part of their backbones — the overlap
        // MITRE notes ("North Korean groups ... often all reported as
        // Lazarus"), which drives the Fig. 7 confusions.
        let nk: Vec<usize> = self
            .profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| cluster_of(&p.name) == 0)
            .map(|(i, _)| i)
            .collect();
        if nk.len() > 1 {
            let donor = nk[0];
            let shared: Vec<u32> = self.backbones[donor]
                .iter()
                .take(self.cfg.backbone_ips_per_apt / 2)
                .copied()
                .collect();
            for &g in &nk[1..] {
                self.backbones[g].extend_from_slice(&shared);
            }
        }
    }

    fn gen_timeline(&mut self) {
        // Assign main-window events to APTs by activity weight.
        let weights: Vec<f32> = self.profiles.iter().map(|p| p.activity_weight).collect();
        let total_w: f32 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total_w) * self.cfg.n_events as f32).round() as usize)
            .collect();
        // Paper rule: an APT needs >= 25 events to be included; enforce a
        // proportional floor so every class has train/test support.
        let floor = (self.cfg.n_events / self.cfg.n_apts / 4).max(5);
        for c in &mut counts {
            *c = (*c).max(floor);
        }

        let mut event_seq = 0usize;
        for (apt, &count) in counts.iter().enumerate() {
            let mut days: Vec<u32> = (0..count)
                .map(|_| self.rng.gen_range(0..self.cfg.cutoff_day))
                .collect();
            days.sort_unstable();
            let mut campaign = self.new_campaign(apt, *days.first().unwrap_or(&0));
            let mut remaining = self.campaign_length();
            for day in days {
                if remaining == 0 {
                    campaign = self.new_campaign(apt, day);
                    remaining = self.campaign_length();
                }
                remaining -= 1;
                let ev = self.gen_event(apt, &mut campaign, day, event_seq);
                self.events.push(ev);
                event_seq += 1;
            }
        }

        // Post-cutoff study window: drifting behaviour, NK-heavy mix.
        let nk_heavy: Vec<usize> = self
            .profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| cluster_of(&p.name) == 0 || p.name == "APT27")
            .map(|(i, _)| i)
            .collect();
        let mut study_campaigns: HashMap<usize, (Campaign, usize)> = HashMap::new();
        for month in 0..self.cfg.study_months {
            // Behavioural drift accumulates month over month.
            for apt in 0..self.profiles.len() {
                if self.rng.gen::<f32>() < 0.35 {
                    let mut p = self.profiles[apt].clone();
                    p.drift(&mut self.rng);
                    self.profiles[apt] = p;
                    study_campaigns.remove(&apt); // drift retires infrastructure
                }
            }
            for _ in 0..self.cfg.study_events_per_month {
                let apt = if self.rng.gen::<f32>() < 0.55 && !nk_heavy.is_empty() {
                    nk_heavy[self.rng.gen_range(0..nk_heavy.len())]
                } else {
                    self.rng.gen_range(0..self.profiles.len())
                };
                let day = self.cfg.cutoff_day
                    + month * DAYS_PER_MONTH
                    + self.rng.gen_range(0..DAYS_PER_MONTH);
                let length = self.campaign_length();
                let entry = match study_campaigns.remove(&apt) {
                    Some((c, rem)) if rem > 0 => (c, rem),
                    _ => (self.new_campaign(apt, day), length),
                };
                let (mut c, rem) = entry;
                let ev = self.gen_event(apt, &mut c, day, event_seq);
                self.events.push(ev);
                event_seq += 1;
                study_campaigns.insert(apt, (c, rem - 1));
            }
        }
    }

    fn campaign_length(&mut self) -> usize {
        // Geometric with the configured mean, at least 1.
        let p = 1.0 / self.cfg.mean_events_per_campaign.max(1.0);
        let mut n = 1;
        while self.rng.gen::<f32>() > p && n < 40 {
            n += 1;
        }
        n
    }

    // --- infrastructure creation ---------------------------------------

    fn pick_asn(&mut self, apt: Option<usize>) -> usize {
        if let Some(a) = apt {
            if self.rng.gen::<f32>() < self.cfg.ip_signal {
                let pref = &self.profiles[a].preferred_asns;
                return pref[self.rng.gen_range(0..pref.len())];
            }
        }
        self.rng.gen_range(0..self.asns.len())
    }

    fn new_ip_on_asn(&mut self, asn: usize, day: u32, apt: Option<usize>) -> u32 {
        let (a, b) = self.asns[asn].prefix;
        let text = loop {
            let t = format!(
                "{a}.{b}.{}.{}",
                self.rng.gen_range(0..256),
                self.rng.gen_range(1..255)
            );
            if !self.ip_index.contains_key(&t) {
                break t;
            }
        };
        let issuer = match apt {
            Some(i) if self.rng.gen::<f32>() < self.cfg.ip_signal => {
                self.profiles[i].issuers.sample(&mut self.rng).to_owned()
            }
            _ => self.asns[asn].issuer.clone(),
        };
        // Country-coherent geolocation: hash the country into a base
        // coordinate, then jitter.
        let h = trail_ioc::fnv1a(&self.asns[asn].country);
        let lat = ((h % 120) as f32 - 60.0) + self.rng.gen_range(-3.0..3.0);
        let lon = (((h >> 8) % 300) as f32 - 150.0) + self.rng.gen_range(-3.0..3.0);
        let idx = self.ips.len() as u32;
        self.ips.push(IpTruth {
            asn: asn as u32,
            issuer,
            lat,
            lon,
            first_day: day,
            last_day: day,
            domains: Vec::new(),
        });
        self.ip_names.push(text.clone());
        self.ip_index.insert(text, idx);
        // Co-hosted tenants: domains that resolve here but are never
        // reported in any event. Passive DNS surfaces them during
        // enrichment — they are the bulk of the paper's secondary nodes.
        let max_cohosted = (2.0 * self.cfg.pdns_domains_per_ip) as usize;
        if max_cohosted > 0 {
            let k = self.rng.gen_range(0..=max_cohosted);
            for _ in 0..k {
                self.new_domain_raw(None, day, &[idx]);
            }
        }
        idx
    }

    fn new_ip(&mut self, apt: Option<usize>, day: u32) -> u32 {
        let asn = self.pick_asn(apt);
        self.new_ip_on_asn(asn, day, apt)
    }

    /// A hidden (never-reported) IP carrying the APT's fingerprint,
    /// linked to `domain` — only discoverable through enrichment.
    fn attach_hidden_ip(&mut self, apt: usize, day: u32, domain: u32) {
        if self.rng.gen::<f32>() < self.cfg.hidden_ip_prob {
            let ip = self.new_ip(Some(apt), day);
            self.link_domain_ip(domain, ip);
        }
    }

    fn link_domain_ip(&mut self, d: u32, ip: u32) {
        if !self.domains[d as usize].ips.contains(&ip) {
            self.domains[d as usize].ips.push(ip);
        }
        if !self.ips[ip as usize].domains.contains(&d) {
            self.ips[ip as usize].domains.push(d);
        }
    }

    fn new_domain_raw(&mut self, apt: Option<usize>, day: u32, resolve_to: &[u32]) -> u32 {
        let (label, tld, subdomain) = match apt {
            Some(a) if self.rng.gen::<f32>() < self.cfg.domain_signal => {
                let p = self.profiles[a].clone();
                let label = if self.rng.gen::<f32>() < p.style.dga_prob {
                    let len = self.rng.gen_range(p.style.dga_len.0..=p.style.dga_len.1);
                    naming::dga_label(&mut self.rng, len, p.style.digit_affinity)
                } else {
                    naming::word_label(&mut self.rng)
                };
                let sub = if self.rng.gen::<f32>() < p.style.subdomain_prob {
                    let len = self.rng.gen_range(4..8);
                    Some(naming::dga_label(&mut self.rng, len, 0.3))
                } else {
                    None
                };
                (label, p.tlds.sample(&mut self.rng).to_owned(), sub)
            }
            _ => {
                let label = if self.rng.gen::<f32>() < 0.5 {
                    naming::word_label(&mut self.rng)
                } else {
                    let len = self.rng.gen_range(6..14);
                    naming::dga_label(&mut self.rng, len, 0.25)
                };
                (
                    label,
                    pools::TLDS[self.rng.gen_range(0..pools::TLDS.len())].to_owned(),
                    None,
                )
            }
        };
        let name = match subdomain {
            Some(s) => format!("{s}.{label}.{tld}"),
            None => format!("{label}.{tld}"),
        };
        if let Some(&existing) = self.domain_index.get(&name) {
            return existing; // rare collision: treat as reuse
        }
        let idx = self.domains.len() as u32;
        self.domains.push(DomainTruth {
            ips: Vec::new(),
            urls: Vec::new(),
            extra_records: [
                0,
                0,
                self.rng.gen_range(0..2),
                self.rng.gen_range(1..3),
                self.rng.gen_range(0..3),
                1,
                0,
                0,
            ],
            first_day: day,
            last_day: day,
        });
        self.domain_names.push(name.clone());
        self.domain_index.insert(name, idx);
        for &ip in resolve_to {
            self.link_domain_ip(idx, ip);
        }
        idx
    }

    fn new_url(&mut self, apt: usize, day: u32, campaign: &Campaign) -> u32 {
        let p = self.profiles[apt].clone();
        let signal = self.rng.gen::<f32>() < self.cfg.url_signal;
        // Host: usually a campaign domain, sometimes a bare IP.
        let (host, domain_idx, ip_idx) =
            if !campaign.domains.is_empty() && self.rng.gen::<f32>() < 0.9 {
                let d = campaign.domains[self.rng.gen_range(0..campaign.domains.len())];
                (self.domain_names[d as usize].clone(), Some(d), None)
            } else if !campaign.ips.is_empty() {
                let ip = campaign.ips[self.rng.gen_range(0..campaign.ips.len())];
                (self.ip_names[ip as usize].clone(), None, Some(ip))
            } else {
                let ip = self.new_ip(Some(apt), day);
                (self.ip_names[ip as usize].clone(), None, Some(ip))
            };
        let depth = self
            .rng
            .gen_range(p.style.path_depth.0..=p.style.path_depth.1);
        let entropy = if signal {
            p.style.path_entropy
        } else {
            self.rng.gen_range(0.0..1.0)
        };
        let (path, ext_idx) = naming::url_path(&mut self.rng, depth, entropy);
        let port = if self.rng.gen::<f32>() < p.style.port_prob {
            format!(
                ":{}",
                [8080u16, 8443, 443, 8000, 4443][self.rng.gen_range(0..5)]
            )
        } else {
            String::new()
        };
        let query = if self.rng.gen::<f32>() < p.style.query_prob {
            format!(
                "?{}={}",
                naming::dga_label(&mut self.rng, 2, 0.0),
                naming::dga_label(&mut self.rng, 6, 0.6)
            )
        } else {
            String::new()
        };
        let text = format!("http://{host}{port}{path}{query}");
        if let Some(&existing) = self.url_index.get(&text) {
            return existing;
        }
        let (ext, mime, class) = naming::EXTENSIONS[ext_idx];
        let _ = ext;
        let (server, os, encoding) = if signal {
            (
                p.servers.sample(&mut self.rng).to_owned(),
                p.oses.sample(&mut self.rng).to_owned(),
                p.encodings.sample(&mut self.rng).to_owned(),
            )
        } else {
            (
                {
                    let base = pools::SERVERS[self.rng.gen_range(0..pools::SERVERS.len())];
                    naming::server_banner(&mut self.rng, base)
                },
                pools::OSES[self.rng.gen_range(0..pools::OSES.len())].to_owned(),
                pools::ENCODINGS[self.rng.gen_range(0..pools::ENCODINGS.len())].to_owned(),
            )
        };
        let services: Vec<String> = if signal {
            let mut s = vec![p.services.top().to_owned()];
            if self.rng.gen::<f32>() < 0.5 {
                s.push(p.services.sample(&mut self.rng).to_owned());
            }
            s
        } else {
            vec![pools::SERVICES[self.rng.gen_range(0..pools::SERVICES.len())].to_owned()]
        };
        let header_flags: Vec<String> = if signal && self.rng.gen::<f32>() < 0.7 {
            vec![p.header_flags.sample(&mut self.rng).to_owned()]
        } else {
            Vec::new()
        };
        let resolved = match (domain_idx, ip_idx) {
            (Some(d), _) => self.domains[d as usize].ips.clone(),
            (None, Some(ip)) => vec![ip],
            _ => Vec::new(),
        };
        let idx = self.urls.len() as u32;
        self.urls.push(UrlTruth {
            domain: domain_idx,
            ips: resolved,
            server,
            server_os: os,
            encoding,
            file_type: mime.to_owned(),
            file_class: class.to_owned(),
            http_code: pools::HTTP_CODES[self.rng.gen_range(0..pools::HTTP_CODES.len())],
            services,
            header_flags,
            created_day: day,
        });
        if let Some(d) = domain_idx {
            self.domains[d as usize].urls.push(idx);
        }
        self.url_names.push(text.clone());
        self.url_index.insert(text, idx);
        idx
    }

    fn new_campaign(&mut self, apt: usize, day: u32) -> Campaign {
        let mut ips = Vec::new();
        for _ in 0..3 {
            ips.push(self.new_ip(Some(apt), day));
        }
        let favorite_c2 = ips[0];
        let mut domains = Vec::new();
        for _ in 0..4 {
            let n_res = self.rng.gen_range(1..=2usize);
            let resolve: Vec<u32> = (0..n_res)
                .map(|_| ips[self.rng.gen_range(0..ips.len())])
                .collect();
            let d = self.new_domain_raw(Some(apt), day, &resolve);
            // The enrichment-only connectivity: some campaign domains also
            // resolve to the APT backbone, which is rarely reported
            // directly — these links only surface via passive DNS.
            if self.rng.gen::<f32>() < self.cfg.backbone_link_prob {
                let bb = &self.backbones[apt];
                let ip = bb[self.rng.gen_range(0..bb.len())];
                self.link_domain_ip(d, ip);
            }
            domains.push(d);
        }
        // Hidden IPs behind campaign domains (enrichment-only links).
        for d in domains.clone() {
            self.attach_hidden_ip(apt, day, d);
        }
        let mut campaign = Campaign {
            ips,
            domains,
            urls: Vec::new(),
            favorite_c2,
        };
        for _ in 0..4 {
            let u = self.new_url(apt, day, &campaign);
            campaign.urls.push(u);
        }
        // Unreported URLs on campaign domains: same APT fingerprint,
        // only surfaced by the domain `url_list` enrichment.
        for _ in 0..self.cfg.hidden_urls_per_campaign {
            self.new_url(apt, day, &campaign);
        }
        campaign
    }

    // --- event generation -----------------------------------------------

    fn gen_event(
        &mut self,
        apt: usize,
        campaign: &mut Campaign,
        day: u32,
        seq: usize,
    ) -> GeneratedEvent {
        let lognorm = LogNormal::new(0.0, 0.55).expect("valid params");
        let n_iocs =
            ((self.cfg.mean_iocs_per_event * lognorm.sample(&mut self.rng) as f32) as usize).max(4);
        let mut indicators = Vec::with_capacity(n_iocs + 2);
        let mut seen = std::collections::HashSet::new();

        // The campaign's favorite C2 appears in most of its reports —
        // the Fig. 4 heavy-reuse tail (Cobalt Strike style servers).
        if self.rng.gen::<f32>() < 0.35 {
            let name = self.ip_names[campaign.favorite_c2 as usize].clone();
            seen.insert(name.clone());
            indicators.push(RawIndicator {
                indicator_type: "IPv4".into(),
                indicator: name,
            });
            self.touch_ip(campaign.favorite_c2, day);
        }

        for _ in 0..n_iocs {
            let roll = self.rng.gen::<f32>();
            let (itype, text) = if roll < 0.48 {
                ("URL", self.event_url(apt, day, campaign))
            } else if roll < 0.79 {
                ("domain", self.event_domain(apt, day, campaign))
            } else {
                ("IPv4", self.event_ip(apt, day, campaign))
            };
            if seen.insert(text.clone()) {
                // Reports defang a third of their indicators.
                let text = if self.rng.gen::<f32>() < 0.33 {
                    trail_ioc::defang::defang(&text)
                } else {
                    text
                };
                indicators.push(RawIndicator {
                    indicator_type: itype.into(),
                    indicator: text,
                });
            }
        }

        if self.rng.gen::<f32>() < self.cfg.junk_indicator_prob * n_iocs as f32 {
            indicators.push(RawIndicator {
                indicator_type: "URL".into(),
                indicator: "javascript:document.write('<img src=x>')".into(),
            });
        }

        // Tags: canonical name or an alias; label noise swaps the APT.
        let tagged_apt = if self.rng.gen::<f32>() < self.cfg.label_noise {
            self.rng.gen_range(0..self.profiles.len())
        } else {
            apt
        };
        let p = &self.profiles[tagged_apt];
        let mut tags = Vec::new();
        if !p.aliases.is_empty() && self.rng.gen::<f32>() < 0.4 {
            tags.push(p.aliases[self.rng.gen_range(0..p.aliases.len())].clone());
            if self.rng.gen::<f32>() < 0.5 {
                tags.push(p.name.clone());
            }
        } else {
            tags.push(p.name.clone());
        }

        GeneratedEvent {
            report: RawReport {
                id: format!("pulse-{seq:05}"),
                created_day: day,
                tags,
                indicators,
            },
            true_apt: apt,
            day,
        }
    }

    fn touch_ip(&mut self, ip: u32, day: u32) {
        let t = &mut self.ips[ip as usize];
        t.first_day = t.first_day.min(day);
        t.last_day = t.last_day.max(day);
    }

    fn touch_domain(&mut self, d: u32, day: u32) {
        let t = &mut self.domains[d as usize];
        t.first_day = t.first_day.min(day);
        t.last_day = t.last_day.max(day);
    }

    fn event_ip(&mut self, apt: usize, day: u32, campaign: &mut Campaign) -> String {
        let idx = if self.rng.gen::<f32>() < self.cfg.shared_infra_prob {
            self.shared_ips[self.rng.gen_range(0..self.shared_ips.len())]
        } else if self.rng.gen::<f32>() < self.cfg.pool_reuse_prob && !campaign.ips.is_empty() {
            campaign.ips[self.rng.gen_range(0..campaign.ips.len())]
        } else {
            let ip = self.new_ip(Some(apt), day);
            campaign.ips.push(ip);
            ip
        };
        self.touch_ip(idx, day);
        self.ip_names[idx as usize].clone()
    }

    fn event_domain(&mut self, apt: usize, day: u32, campaign: &mut Campaign) -> String {
        let idx = if self.rng.gen::<f32>() < self.cfg.shared_infra_prob
            && !self.shared_domains.is_empty()
        {
            self.shared_domains[self.rng.gen_range(0..self.shared_domains.len())]
        } else if self.rng.gen::<f32>() < self.cfg.pool_reuse_prob && !campaign.domains.is_empty() {
            campaign.domains[self.rng.gen_range(0..campaign.domains.len())]
        } else {
            let n_res = self.rng.gen_range(1..=2usize);
            let resolve: Vec<u32> = (0..n_res)
                .filter_map(|_| {
                    if campaign.ips.is_empty() {
                        None
                    } else {
                        Some(campaign.ips[self.rng.gen_range(0..campaign.ips.len())])
                    }
                })
                .collect();
            let d = self.new_domain_raw(Some(apt), day, &resolve);
            if self.rng.gen::<f32>() < self.cfg.backbone_link_prob {
                let bb = &self.backbones[apt];
                let ip = bb[self.rng.gen_range(0..bb.len())];
                self.link_domain_ip(d, ip);
            }
            self.attach_hidden_ip(apt, day, d);
            campaign.domains.push(d);
            d
        };
        self.touch_domain(idx, day);
        self.domain_names[idx as usize].clone()
    }

    fn event_url(&mut self, apt: usize, day: u32, campaign: &mut Campaign) -> String {
        let idx = if self.rng.gen::<f32>() < self.cfg.pool_reuse_prob && !campaign.urls.is_empty() {
            campaign.urls[self.rng.gen_range(0..campaign.urls.len())]
        } else {
            let u = self.new_url(apt, day, campaign);
            campaign.urls.push(u);
            u
        };
        if let Some(d) = self.urls[idx as usize].domain {
            self.touch_domain(d, day);
        }
        self.url_names[idx as usize].clone()
    }
}

/// A deterministic fault plan for the chaos drills.
///
/// Derived entirely from one seed by integer mixing (no RNG crate
/// involved), so the same seed produces the same faults, the same
/// mid-study kill points and the same log-corruption offsets on every
/// machine. The plan stays deliberately coarse: it perturbs the
/// *world's* fault knobs and names where to crash/corrupt; the tests
/// that drive it (`tests/chaos_test.rs`) decide what to assert.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// The seed this plan was derived from.
    pub seed: u64,
    /// Transient-fault probability injected into the world.
    pub transient_fault_prob: f32,
    /// Analysis-gap probability injected into the world.
    pub analysis_miss_prob: f32,
    /// One plan in three simulates a fully dead feed: every attempt
    /// faults, so enrichment must degrade rather than converge.
    pub feed_dead: bool,
    /// Study-window indices after which the run is killed and resumed
    /// from its write-ahead log (always non-empty, strictly
    /// increasing).
    pub kill_windows: Vec<u32>,
    /// Byte offsets (modulo log length at use time) to flip in the
    /// killed study's write-ahead log before it is resumed.
    pub corrupt_offsets: Vec<u64>,
    /// Byte offsets (modulo total WAL length at use time) at which the
    /// streaming writer is "killed" in the WAL drill of
    /// `tests/wal_recovery_test.rs`: the log is cut there — mid-append,
    /// mid-header, mid-rotation, wherever the offset lands — and
    /// recovery must replay the durable prefix bitwise.
    pub wal_cut_points: Vec<u64>,
    /// Byte offsets (modulo sealed-segment length at use time) to flip
    /// in a *sealed* WAL segment: recovery must surface a typed
    /// corruption error naming the segment, never a panic or a silent
    /// skip.
    pub wal_corrupt_offsets: Vec<u64>,
}

/// splitmix64 finalizer — the standard 64-bit mixer; good avalanche,
/// no state, perfect for deriving independent plan fields (or per-stage
/// RNG seeds) from one seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ChaosPlan {
    /// Derive the plan for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let feed_dead = mix64(seed ^ 0xdead).is_multiple_of(3);
        let transient_fault_prob = if feed_dead {
            1.0
        } else {
            // 0.30 ..= 0.90 in steps of 0.05: hostile but survivable.
            0.30 + (mix64(seed ^ 0xfa01) % 13) as f32 * 0.05
        };
        let analysis_miss_prob = 0.05 + (mix64(seed ^ 0x9155) % 4) as f32 * 0.05;
        // Two distinct kill points inside a study of >= 2 windows.
        let k1 = (mix64(seed ^ 0x0111) % 2) as u32; // window 0 or 1
        let k2 = k1 + 1 + (mix64(seed ^ 0x0222) % 2) as u32;
        let corrupt_offsets = (0..4).map(|i| mix64(seed ^ (0xc0_44 + i))).collect();
        let wal_cut_points = (0..4).map(|i| mix64(seed ^ (0x3a10 + i))).collect();
        let wal_corrupt_offsets = (0..2).map(|i| mix64(seed ^ (0xf1_1b + i))).collect();
        Self {
            seed,
            transient_fault_prob,
            analysis_miss_prob,
            feed_dead,
            kill_windows: vec![k1, k2],
            corrupt_offsets,
            wal_cut_points,
            wal_corrupt_offsets,
        }
    }

    /// Apply the plan's fault knobs to a world configuration.
    pub fn apply(&self, cfg: &mut WorldConfig) {
        cfg.transient_fault_prob = self.transient_fault_prob;
        cfg.analysis_miss_prob = self.analysis_miss_prob;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plan_is_deterministic_and_well_formed() {
        for seed in [0u64, 1, 2, 3, 0xfeed, u64::MAX] {
            let a = ChaosPlan::from_seed(seed);
            let b = ChaosPlan::from_seed(seed);
            assert_eq!(a, b, "plan for seed {seed} not reproducible");
            assert!(a.transient_fault_prob > 0.0 && a.transient_fault_prob <= 1.0);
            assert!(a.analysis_miss_prob > 0.0 && a.analysis_miss_prob < 0.5);
            if a.feed_dead {
                assert_eq!(a.transient_fault_prob, 1.0);
            }
            assert_eq!(a.kill_windows.len(), 2);
            assert!(a.kill_windows[0] < a.kill_windows[1]);
            assert_eq!(a.corrupt_offsets.len(), 4);
            assert_eq!(a.wal_cut_points.len(), 4);
            assert_eq!(a.wal_corrupt_offsets.len(), 2);
        }
        // Some seed in a small range exercises the dead-feed branch and
        // some seed does not.
        let dead = (0..8u64)
            .filter(|&s| ChaosPlan::from_seed(s).feed_dead)
            .count();
        assert!(dead > 0 && dead < 8, "{dead}/8 dead-feed plans");
    }

    #[test]
    fn chaos_plan_applies_to_config() {
        let plan = ChaosPlan::from_seed(7);
        let mut cfg = WorldConfig::tiny(7);
        plan.apply(&mut cfg);
        assert_eq!(cfg.transient_fault_prob, plan.transient_fault_prob);
        assert_eq!(cfg.analysis_miss_prob, plan.analysis_miss_prob);
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = World::generate(WorldConfig::tiny(42));
        let w2 = World::generate(WorldConfig::tiny(42));
        assert_eq!(w1.events.len(), w2.events.len());
        assert_eq!(w1.events[0].report, w2.events[0].report);
        assert_eq!(
            (w1.ips.len(), w1.domains.len(), w1.urls.len(), w1.asns.len()),
            (w2.ips.len(), w2.domains.len(), w2.urls.len(), w2.asns.len())
        );
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = World::generate(WorldConfig::tiny(1));
        let w2 = World::generate(WorldConfig::tiny(2));
        assert_ne!(
            w1.events[0].report.indicators,
            w2.events[0].report.indicators
        );
    }

    #[test]
    fn events_sorted_and_within_horizon() {
        let cfg = WorldConfig::tiny(7);
        let horizon = cfg.horizon_day();
        let w = World::generate(cfg);
        assert!(w.events.windows(2).all(|p| p[0].day <= p[1].day));
        assert!(w.events.iter().all(|e| e.day < horizon));
        // Both main-window and study-window events exist.
        assert!(w.events.iter().any(|e| e.day < w.config.cutoff_day));
        assert!(w.events.iter().any(|e| e.day >= w.config.cutoff_day));
    }

    #[test]
    fn every_apt_has_events() {
        let w = World::generate(WorldConfig::tiny(7));
        for apt in 0..w.config.n_apts {
            let n = w.events.iter().filter(|e| e.true_apt == apt).count();
            assert!(n >= 5, "APT {apt} has only {n} events");
        }
    }

    #[test]
    fn reports_contain_parseable_iocs() {
        let w = World::generate(WorldConfig::tiny(5));
        let mut total = 0;
        let mut ok = 0;
        for e in &w.events {
            let parsed = e.report.parse();
            total += e.report.indicators.len();
            ok += parsed.iocs.len();
        }
        // Nearly all indicators parse (junk is injected deliberately).
        assert!(ok as f32 / total as f32 > 0.9, "{ok}/{total}");
    }

    #[test]
    fn reuse_exists_across_events() {
        let w = World::generate(WorldConfig::tiny(11));
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for e in &w.events {
            let mut in_event = std::collections::HashSet::new();
            for ind in &e.report.indicators {
                in_event.insert(ind.indicator.as_str());
            }
            for t in in_event {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let reused = counts.values().filter(|&&c| c > 1).count();
        assert!(reused > 0, "no IOC reuse generated");
        // And a heavy tail: some IOC appears in many events.
        assert!(counts.values().copied().max().unwrap() >= 3);
    }

    #[test]
    fn truth_lookup() {
        let w = World::generate(WorldConfig::tiny(5));
        let e = &w.events[0];
        assert_eq!(w.truth(&e.report.id), Some(e.true_apt));
        assert_eq!(w.truth("pulse-99999"), None);
    }

    #[test]
    fn fixture_is_internally_consistent() {
        let w = World::fixture();
        // Index maps resolve every registry name to its position.
        for (i, n) in w.ip_names.iter().enumerate() {
            assert_eq!(w.ip_index[n], i as u32);
        }
        for (i, n) in w.domain_names.iter().enumerate() {
            assert_eq!(w.domain_index[n], i as u32);
        }
        for (i, n) in w.url_names.iter().enumerate() {
            assert_eq!(w.url_index[n], i as u32);
        }
        // Cross-links stay in bounds.
        for t in &w.ips {
            assert!((t.asn as usize) < w.asns.len());
            assert!(t.domains.iter().all(|&d| (d as usize) < w.domains.len()));
        }
        for t in &w.domains {
            assert!(t.ips.iter().all(|&i| (i as usize) < w.ips.len()));
            assert!(t.urls.iter().all(|&u| (u as usize) < w.urls.len()));
        }
        for t in &w.urls {
            assert!(t.domain.is_none_or(|d| (d as usize) < w.domains.len()));
            assert!(t.ips.iter().all(|&i| (i as usize) < w.ips.len()));
        }
        // Every event carries a resolvable label and lies pre-cutoff.
        for e in &w.events {
            assert!(e.true_apt < w.config.n_apts);
            assert!(e.day < w.config.cutoff_day);
            assert_eq!(e.report.created_day, e.day);
        }
        // Two fixtures are identical — no hidden randomness.
        let w2 = World::fixture();
        assert_eq!(w.events.len(), w2.events.len());
        for (a, b) in w.events.iter().zip(&w2.events) {
            assert_eq!(a.report, b.report);
        }
    }
}
