//! The 1,517-dimension URL feature encoder.
//!
//! Layout (offsets inclusive..exclusive):
//! `0..106` file type · `106..127` file class · `127..195` HTTP code ·
//! `195..207` encoding · `207..1151` server · `1151..1201` server OS ·
//! `1201..1384` services (multi-hot) · `1384..1484` TLD ·
//! `1484..1494` lexical · `1494..1517` header flags (multi-hot).

use crate::analysis::UrlAnalysis;
use crate::url::{UrlHost, UrlIoc, UrlLexical};
use crate::vocab::Vocab;

use super::*;

const FILE_TYPE: (usize, usize) = (0, 106);
const FILE_CLASS: (usize, usize) = (106, 21);
const HTTP_CODE: (usize, usize) = (127, 68);
const ENCODING: (usize, usize) = (195, 12);
const SERVER: (usize, usize) = (207, 944);
const SERVER_OS: (usize, usize) = (1151, 50);
const SERVICES: (usize, usize) = (1201, 183);
const TLD: (usize, usize) = (1384, 100);
const LEXICAL: (usize, usize) = (1484, 10);
const HEADER_FLAGS: (usize, usize) = (1494, 23);

/// Encoder for URL IOCs. Construct once and reuse.
#[derive(Debug, Clone)]
pub struct UrlEncoder {
    file_type: Vocab,
    file_class: Vocab,
    http_code: Vocab,
    encoding: Vocab,
    server: Vocab,
    server_os: Vocab,
    services: Vocab,
    tld: Vocab,
    header_flags: Vocab,
}

impl Default for UrlEncoder {
    fn default() -> Self {
        Self {
            file_type: Vocab::new("file_type", FILE_TYPE.1, COMMON_FILE_TYPES),
            file_class: Vocab::new("file_class", FILE_CLASS.1, COMMON_FILE_CLASSES),
            http_code: Vocab::new("http_code", HTTP_CODE.1, COMMON_HTTP_CODES),
            encoding: Vocab::new("encoding", ENCODING.1, COMMON_ENCODINGS),
            server: Vocab::new("server", SERVER.1, COMMON_SERVERS),
            server_os: Vocab::new("server_os", SERVER_OS.1, COMMON_OS),
            services: Vocab::new("service", SERVICES.1, COMMON_SERVICES),
            tld: Vocab::new("tld", TLD.1, COMMON_TLDS),
            header_flags: Vocab::new("header", HEADER_FLAGS.1, COMMON_HEADER_FLAGS),
        }
    }
}

impl UrlEncoder {
    /// Encode a URL and its enrichment analysis into a feature vector.
    pub fn encode(&self, url: &UrlIoc, analysis: &UrlAnalysis) -> Vec<f32> {
        let mut out = vec![0.0f32; URL_DIMS];
        set_opt(
            &mut out,
            FILE_TYPE.0,
            &self.file_type,
            analysis.file_type.as_deref(),
        );
        set_opt(
            &mut out,
            FILE_CLASS.0,
            &self.file_class,
            analysis.file_class.as_deref(),
        );
        if let Some(code) = analysis.http_code {
            out[HTTP_CODE.0 + self.http_code.slot(&code.to_string())] = 1.0;
        }
        set_opt(
            &mut out,
            ENCODING.0,
            &self.encoding,
            analysis.encoding.as_deref(),
        );
        set_opt(&mut out, SERVER.0, &self.server, analysis.server.as_deref());
        set_opt(
            &mut out,
            SERVER_OS.0,
            &self.server_os,
            analysis.server_os.as_deref(),
        );
        for svc in &analysis.services {
            out[SERVICES.0 + self.services.slot(svc)] = 1.0;
        }
        if let UrlHost::Domain(d) = &url.host {
            out[TLD.0 + self.tld.slot(d.tld())] = 1.0;
        }
        let lex = url.lexical().to_array();
        out[LEXICAL.0..LEXICAL.0 + LEXICAL.1].copy_from_slice(&lex);
        for flag in &analysis.header_flags {
            out[HEADER_FLAGS.0 + self.header_flags.slot(flag)] = 1.0;
        }
        out
    }

    /// Human-readable name of feature slot `idx`.
    pub fn feature_name(&self, idx: usize) -> String {
        debug_assert!(idx < URL_DIMS);
        for (range, vocab) in [
            (FILE_TYPE, &self.file_type),
            (FILE_CLASS, &self.file_class),
            (HTTP_CODE, &self.http_code),
            (ENCODING, &self.encoding),
            (SERVER, &self.server),
            (SERVER_OS, &self.server_os),
            (SERVICES, &self.services),
            (TLD, &self.tld),
        ] {
            if idx >= range.0 && idx < range.0 + range.1 {
                return vocab.slot_name(idx - range.0);
            }
        }
        if idx >= LEXICAL.0 && idx < LEXICAL.0 + LEXICAL.1 {
            return UrlLexical::NAMES[idx - LEXICAL.0].to_owned();
        }
        self.header_flags.slot_name(idx - HEADER_FLAGS.0)
    }
}

fn set_opt(out: &mut [f32], base: usize, vocab: &Vocab, value: Option<&str>) {
    if let Some(v) = value {
        out[base + vocab.slot(v)] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_sums_to_total() {
        let blocks = [
            FILE_TYPE,
            FILE_CLASS,
            HTTP_CODE,
            ENCODING,
            SERVER,
            SERVER_OS,
            SERVICES,
            TLD,
            LEXICAL,
            HEADER_FLAGS,
        ];
        let mut cursor = 0;
        for (start, len) in blocks {
            assert_eq!(start, cursor, "block starting at {start} leaves a gap");
            cursor += len;
        }
        assert_eq!(cursor, URL_DIMS);
    }

    #[test]
    fn encode_sets_expected_slots() {
        let enc = UrlEncoder::default();
        let url = UrlIoc::parse("http://a.b.example/x.php").unwrap();
        let analysis = UrlAnalysis {
            alive: true,
            file_type: Some("text/html".into()),
            file_class: Some("html".into()),
            http_code: Some(200),
            encoding: Some("gzip".into()),
            server: Some("nginx".into()),
            server_os: Some("linux".into()),
            services: vec!["http".into(), "ssh".into()],
            header_flags: vec!["hsts".into()],
            resolved_ips: vec![],
        };
        let v = enc.encode(&url, &analysis);
        assert_eq!(v.len(), URL_DIMS);
        assert_eq!(v[FILE_TYPE.0], 1.0); // text/html is curated slot 0
        assert_eq!(v[ENCODING.0], 1.0); // gzip is slot 0
        assert_eq!(v[SERVER.0], 1.0); // nginx is slot 0
        assert_eq!(v[SERVICES.0] + v[SERVICES.0 + 2], 2.0); // http + ssh
                                                            // TLD "example" hashes somewhere in the tld block.
        let tld_mass: f32 = v[TLD.0..TLD.0 + TLD.1].iter().sum();
        assert_eq!(tld_mass, 1.0);
        // Lexical block carries the raw URL length.
        assert_eq!(v[LEXICAL.0], url.lexical().length);
    }

    #[test]
    fn dead_url_encodes_sparsely() {
        let enc = UrlEncoder::default();
        let url = UrlIoc::parse("http://198.51.100.7/x").unwrap();
        let v = enc.encode(&url, &UrlAnalysis::default());
        // No analysis + IP host: only the lexical block is populated.
        let nonzero_outside: usize = (0..URL_DIMS)
            .filter(|&i| v[i] != 0.0 && !(LEXICAL.0..LEXICAL.0 + LEXICAL.1).contains(&i))
            .count();
        assert_eq!(nonzero_outside, 0);
    }

    #[test]
    fn every_slot_has_a_name() {
        let enc = UrlEncoder::default();
        assert_eq!(enc.feature_name(0), "file_type=text/html");
        assert_eq!(enc.feature_name(ENCODING.0), "encoding=gzip");
        assert_eq!(enc.feature_name(LEXICAL.0 + 6), "url_entropy");
        assert_eq!(enc.feature_name(HEADER_FLAGS.0), "header=hsts");
        // Exhaustive: no index panics and names are unique per slot kind.
        for i in 0..URL_DIMS {
            assert!(!enc.feature_name(i).is_empty());
        }
    }
}
