//! Provider-hosted landing pages.
//!
//! A Tread can carry its disclosure on an external landing page instead of
//! in the ad creative (§3: "or could be in one of the landing pages that
//! the links within the ad point to") — that variant passes platform
//! policy review, but opens the one leakage channel the paper analyzes:
//! the provider serves the page, so it can set a cookie and log which
//! cookie fetched which disclosure URL.
//!
//! [`LandingServer`] is that provider-side server, with the access log a
//! real web server would have. Experiment E4 inspects the log to show (a)
//! linkage succeeds for cookie-bearing visitors, and (b) the paper's
//! mitigations (clearing or blocking cookies) break the linkage.

use crate::cookies::CookieJar;
use adsim_types::SimTime;
use std::collections::BTreeMap;

/// A landing page hosted by the transparency provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandingPage {
    /// Full URL (also the lookup key).
    pub url: String,
    /// Page content — for landing-page Treads, the disclosure text.
    pub content: String,
    /// Whether the server sets a tracking cookie on visits.
    pub sets_cookie: bool,
}

/// One entry in the provider's access log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitRecord {
    /// The URL fetched.
    pub url: String,
    /// The cookie the browser presented (or that the server just set),
    /// if any. **No user id** — a web server never sees one.
    pub cookie: Option<String>,
    /// When.
    pub at: SimTime,
}

/// The provider's landing-page server.
#[derive(Debug, Clone, Default)]
pub struct LandingServer {
    /// The server's cookie domain.
    pub domain: String,
    pages: BTreeMap<String, LandingPage>,
    access_log: Vec<VisitRecord>,
    next_cookie: u64,
}

impl LandingServer {
    /// A server at `domain`.
    pub fn new(domain: impl Into<String>) -> Self {
        Self {
            domain: domain.into(),
            ..Self::default()
        }
    }

    /// Publishes a landing page.
    pub fn publish(&mut self, page: LandingPage) {
        self.pages.insert(page.url.clone(), page);
    }

    /// Number of published pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Serves a request for `url` from a browser with the given cookie
    /// jar. Returns the page content if the URL exists.
    ///
    /// Server-side effects mirror a real web server: the presented cookie
    /// (if the jar has one for our domain) is logged; if the page sets
    /// cookies and the browser has none yet, a fresh identifier is issued
    /// (and stored only if the jar's policy accepts it — the *logged*
    /// value is what the *next* request would present, so a blocked
    /// cookie never reappears).
    pub fn visit(&mut self, url: &str, jar: &mut CookieJar, at: SimTime) -> Option<String> {
        let page = self.pages.get(url)?;
        let presented = jar.get(&self.domain).map(str::to_string);
        let cookie = match presented {
            Some(c) => Some(c),
            None if page.sets_cookie => {
                self.next_cookie += 1;
                let value = format!("pvid-{}", self.next_cookie);
                if jar.set(self.domain.clone(), value.clone()) {
                    Some(value)
                } else {
                    // Browser rejected it: the server handed out a cookie
                    // but will never see it again; log this visit as
                    // anonymous.
                    None
                }
            }
            None => None,
        };
        self.access_log.push(VisitRecord {
            url: url.to_string(),
            cookie,
            at,
        });
        Some(page.content.clone())
    }

    /// The provider's raw access log.
    pub fn access_log(&self) -> &[VisitRecord] {
        &self.access_log
    }

    /// Provider-side linkage attempt: groups disclosure URLs by cookie.
    /// Each entry is one pseudonymous visitor and the set of URLs (hence
    /// disclosed targeting parameters) linked to them.
    pub fn linkage_by_cookie(&self) -> BTreeMap<String, Vec<String>> {
        let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for rec in &self.access_log {
            if let Some(cookie) = &rec.cookie {
                let urls = map.entry(cookie.clone()).or_default();
                if !urls.contains(&rec.url) {
                    urls.push(rec.url.clone());
                }
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cookies::CookiePolicy;

    fn server_with_pages() -> LandingServer {
        let mut s = LandingServer::new("provider.example");
        for (url, content) in [
            (
                "/reveal/net-worth-2m",
                "Your platform profile includes: Net worth $2M+",
            ),
            ("/reveal/renter", "Your platform profile includes: Renter"),
        ] {
            s.publish(LandingPage {
                url: url.into(),
                content: content.into(),
                sets_cookie: true,
            });
        }
        s
    }

    #[test]
    fn visits_serve_content_and_log() {
        let mut s = server_with_pages();
        let mut jar = CookieJar::default();
        let content = s
            .visit("/reveal/net-worth-2m", &mut jar, SimTime(1))
            .expect("page");
        assert!(content.contains("Net worth"));
        assert_eq!(s.access_log().len(), 1);
        assert_eq!(s.page_count(), 2);
        assert!(s.visit("/no-such-page", &mut jar, SimTime(2)).is_none());
    }

    #[test]
    fn cookie_links_multiple_disclosures() {
        // The leakage the paper warns about: one cookie-bearing visitor
        // fetching two disclosure URLs is linkable across them.
        let mut s = server_with_pages();
        let mut jar = CookieJar::default();
        s.visit("/reveal/net-worth-2m", &mut jar, SimTime(1));
        s.visit("/reveal/renter", &mut jar, SimTime(2));
        let linkage = s.linkage_by_cookie();
        assert_eq!(linkage.len(), 1);
        let urls = linkage.values().next().expect("one visitor");
        assert_eq!(urls.len(), 2);
    }

    #[test]
    fn blocking_cookies_breaks_linkage() {
        let mut s = server_with_pages();
        let mut jar = CookieJar::new(CookiePolicy::Block);
        s.visit("/reveal/net-worth-2m", &mut jar, SimTime(1));
        s.visit("/reveal/renter", &mut jar, SimTime(2));
        assert!(s.linkage_by_cookie().is_empty());
        // Both visits are logged, but anonymously.
        assert_eq!(s.access_log().len(), 2);
        assert!(s.access_log().iter().all(|r| r.cookie.is_none()));
    }

    #[test]
    fn clearing_cookies_splits_identity() {
        let mut s = server_with_pages();
        let mut jar = CookieJar::default();
        s.visit("/reveal/net-worth-2m", &mut jar, SimTime(1));
        jar.clear(); // the paper's mitigation between visits
        s.visit("/reveal/renter", &mut jar, SimTime(2));
        let linkage = s.linkage_by_cookie();
        // Two pseudonymous visitors, one URL each — unlinkable.
        assert_eq!(linkage.len(), 2);
        assert!(linkage.values().all(|urls| urls.len() == 1));
    }

    #[test]
    fn distinct_users_get_distinct_cookies() {
        let mut s = server_with_pages();
        let mut jar_a = CookieJar::default();
        let mut jar_b = CookieJar::default();
        s.visit("/reveal/net-worth-2m", &mut jar_a, SimTime(1));
        s.visit("/reveal/net-worth-2m", &mut jar_b, SimTime(2));
        assert_ne!(jar_a.get("provider.example"), jar_b.get("provider.example"));
        assert_eq!(s.linkage_by_cookie().len(), 2);
    }

    #[test]
    fn pages_without_cookies_log_anonymous_visits() {
        let mut s = LandingServer::new("provider.example");
        s.publish(LandingPage {
            url: "/plain".into(),
            content: "hello".into(),
            sets_cookie: false,
        });
        let mut jar = CookieJar::default();
        s.visit("/plain", &mut jar, SimTime(1));
        assert!(jar.is_empty());
        assert!(s.access_log()[0].cookie.is_none());
    }
}
