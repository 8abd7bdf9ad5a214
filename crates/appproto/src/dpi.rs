//! Protocol dispatch for censor-side deep packet inspection.
//!
//! A censor model hands this module a byte buffer — either a single
//! packet payload (non-reassembling boxes) or an assembled stream
//! (reassembling boxes) — and asks whether it contains the forbidden
//! token *for a given protocol's trigger grammar*. Each matcher is a
//! real parser requiring a complete protocol element, so segmentation
//! naturally defeats per-packet inspection (Strategy 8's mechanism).

use crate::{dns, ftp, http, smtp, tls};

/// The five application protocols of the paper's evaluation. Every
/// one rides a TCP connection (DNS here is DNS over TCP), which is
/// what makes `strata`'s TCP-liveness futility proofs sound for all
/// of them; a UDP transport would have to make those proofs stand
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppProtocol {
    /// DNS over TCP (RFC 7766).
    DnsTcp,
    /// FTP control channel.
    Ftp,
    /// HTTP/1.1.
    Http,
    /// TLS (SNI-based censorship).
    Https,
    /// SMTP.
    Smtp,
}

impl AppProtocol {
    /// All five protocols, in the paper's table order.
    pub fn all() -> [AppProtocol; 5] {
        [
            AppProtocol::DnsTcp,
            AppProtocol::Ftp,
            AppProtocol::Http,
            AppProtocol::Https,
            AppProtocol::Smtp,
        ]
    }

    /// Parse a case-insensitive protocol name (`dns`, `ftp`, `http`,
    /// `https`, `smtp`).
    pub fn parse(s: &str) -> Option<AppProtocol> {
        AppProtocol::all()
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
    }

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AppProtocol::DnsTcp => "DNS",
            AppProtocol::Ftp => "FTP",
            AppProtocol::Http => "HTTP",
            AppProtocol::Https => "HTTPS",
            AppProtocol::Smtp => "SMTP",
        }
    }

    /// The forbidden token used in our experiments for this protocol
    /// (mirroring §4.2's choices).
    pub fn default_keyword(self) -> &'static str {
        match self {
            AppProtocol::DnsTcp => "www.wikipedia.org",
            AppProtocol::Ftp => "ultrasurf",
            AppProtocol::Http => "ultrasurf",
            AppProtocol::Https => "www.wikipedia.org",
            AppProtocol::Smtp => smtp::FORBIDDEN_RCPT,
        }
    }
}

impl std::fmt::Display for AppProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Does `data` (packet payload or assembled stream) contain a complete
/// protocol element carrying the forbidden `keyword`?
pub fn forbidden_in(proto: AppProtocol, data: &[u8], keyword: &str) -> bool {
    match proto {
        AppProtocol::Http => http::request_is_forbidden(data, keyword),
        AppProtocol::Https => tls::parse_sni(data)
            .map(|sni| sni.contains(keyword))
            .unwrap_or(false),
        AppProtocol::DnsTcp => dns::parse_query_name(data)
            .map(|name| name.contains(keyword))
            .unwrap_or(false),
        AppProtocol::Ftp => ftp::parse_retr_filename(data)
            .map(|file| file.contains(keyword))
            .unwrap_or(false),
        AppProtocol::Smtp => smtp::parse_rcpt(data)
            .map(|rcpt| rcpt.contains(keyword))
            .unwrap_or(false),
    }
}

/// Is `payload` a *complete* protocol unit for per-packet inspection?
///
/// Non-reassembling censor boxes parse each in-sequence packet on its
/// own. When a packet ends mid-unit (a split command line, a truncated
/// DNS message or TLS record), a buggy parser has no way to find the
/// next unit boundary and wedges — the flow escapes inspection from
/// then on. This is the mechanism behind Strategy 8's 100 % success
/// against the GFW's SMTP box: the tiny advertised window splits the
/// client's very first command, and the box never recovers.
pub fn is_complete_unit(proto: AppProtocol, payload: &[u8]) -> bool {
    match proto {
        AppProtocol::Ftp | AppProtocol::Smtp => payload.ends_with(b"\r\n"),
        AppProtocol::Http => crate::http::contains(payload, b"\r\n\r\n"),
        AppProtocol::DnsTcp => {
            payload.len() >= 2
                && payload.len() >= 2 + usize::from(u16::from_be_bytes([payload[0], payload[1]]))
        }
        AppProtocol::Https => {
            payload.len() >= 5
                && payload.len() >= 5 + usize::from(u16::from_be_bytes([payload[3], payload[4]]))
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use endpoint::ClientApp;

    #[test]
    fn parse_accepts_any_case_of_each_name() {
        for p in AppProtocol::all() {
            assert_eq!(AppProtocol::parse(p.name()), Some(p));
            assert_eq!(AppProtocol::parse(&p.name().to_lowercase()), Some(p));
        }
        assert_eq!(AppProtocol::parse("gopher"), None);
        assert_eq!(AppProtocol::parse(""), None);
    }

    #[test]
    fn each_protocol_matches_its_own_forbidden_request() {
        // HTTP
        let http_req = crate::http::HttpClientApp::for_keyword_query("ultrasurf").request_bytes();
        assert!(forbidden_in(AppProtocol::Http, &http_req, "ultrasurf"));
        // HTTPS
        let hello = crate::tls::client_hello("www.wikipedia.org", 1);
        assert!(forbidden_in(AppProtocol::Https, &hello, "wikipedia"));
        // DNS
        let query = crate::dns::build_query("www.wikipedia.org", 7);
        assert!(forbidden_in(AppProtocol::DnsTcp, &query, "wikipedia"));
        // FTP
        assert!(forbidden_in(
            AppProtocol::Ftp,
            b"RETR ultrasurf\r\n",
            "ultrasurf"
        ));
        // SMTP
        assert!(forbidden_in(
            AppProtocol::Smtp,
            b"RCPT TO:<xiazai@upup.info>\r\n",
            "xiazai@upup.info"
        ));
    }

    #[test]
    fn matchers_do_not_cross_protocols() {
        let http_req = crate::http::HttpClientApp::for_keyword_query("ultrasurf").request_bytes();
        assert!(!forbidden_in(AppProtocol::Https, &http_req, "ultrasurf"));
        assert!(!forbidden_in(AppProtocol::DnsTcp, &http_req, "ultrasurf"));
        assert!(!forbidden_in(AppProtocol::Smtp, &http_req, "ultrasurf"));
        // FTP's line grammar also doesn't see an HTTP GET as a RETR.
        assert!(!forbidden_in(AppProtocol::Ftp, &http_req, "ultrasurf"));
    }

    #[test]
    fn innocuous_requests_pass() {
        let mut ok = crate::http::HttpClientApp::for_keyword_query("kittens");
        assert!(!forbidden_in(
            AppProtocol::Http,
            &ok.request(0),
            "ultrasurf"
        ));
        let hello = crate::tls::client_hello("example.org", 1);
        assert!(!forbidden_in(AppProtocol::Https, &hello, "wikipedia"));
    }

    #[test]
    fn complete_unit_detection() {
        assert!(is_complete_unit(AppProtocol::Smtp, b"RCPT TO:<a@b>\r\n"));
        assert!(!is_complete_unit(AppProtocol::Smtp, b"RCPT TO:<a@"));
        assert!(is_complete_unit(AppProtocol::Ftp, b"RETR x\r\n"));
        assert!(!is_complete_unit(AppProtocol::Ftp, b"RETR ultra"));
        let q = crate::dns::build_query("a.b", 1);
        assert!(is_complete_unit(AppProtocol::DnsTcp, &q));
        assert!(!is_complete_unit(AppProtocol::DnsTcp, &q[..q.len() - 1]));
        let hello = crate::tls::client_hello("a.b", 1);
        assert!(is_complete_unit(AppProtocol::Https, &hello));
        assert!(!is_complete_unit(AppProtocol::Https, &hello[..10]));
    }

    #[test]
    fn default_keywords_are_consistent() {
        for proto in AppProtocol::all() {
            assert!(!proto.default_keyword().is_empty());
            assert!(!proto.name().is_empty());
        }
    }
}
