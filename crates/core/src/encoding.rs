//! Encoding channels: how a disclosure travels inside an ad.
//!
//! §3 of the paper: the targeting information "could either be explicit
//! (immediately readable by humans), or encoded (and thus obfuscated) via
//! some mapping of targeting information to encodings that is provided to
//! users … Alternately, this information could be encoded into the ad
//! image or other multimedia content … via steganographic techniques".
//!
//! Four channels, all carrying the same canonical wire form
//! ([`crate::disclosure::Disclosure::to_wire`]):
//!
//! * [`Encoding::Explicit`] — Figure 1a: plain human-readable text.
//!   Violates platform ToS (the policy engine rejects it).
//! * [`Encoding::CodebookToken`] — Figure 1b: an innocuous numeric token
//!   ("2,830,120") resolved through a [`Codebook`] the provider shares
//!   with users at opt-in. Passes ToS review.
//! * [`Encoding::ZeroWidth`] — zero-width-character steganography in the
//!   ad text: the wire form's bits ride between the letters of a harmless
//!   cover sentence. Passes ToS review; needs no codebook.
//! * [`Encoding::ImageStego`] — least-significant-bit steganography in
//!   the ad image. Passes ToS review; needs no codebook.

use crate::disclosure::Disclosure;
use adsim_types::hash::sha256;
use adsim_types::{Error, Result};
use bytes::{BufMut, BytesMut};
use std::collections::BTreeMap;

/// The four disclosure-encoding channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Human-readable disclosure text in the ad body (Figure 1a).
    Explicit,
    /// Obfuscated numeric token resolved via the shared [`Codebook`]
    /// (Figure 1b).
    CodebookToken,
    /// Zero-width-character steganography inside innocuous cover text.
    ZeroWidth,
    /// LSB steganography in the ad's image payload.
    ImageStego,
}

impl Encoding {
    /// All channels, for sweeps.
    pub const ALL: [Encoding; 4] = [
        Encoding::Explicit,
        Encoding::CodebookToken,
        Encoding::ZeroWidth,
        Encoding::ImageStego,
    ];

    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Encoding::Explicit => "explicit",
            Encoding::CodebookToken => "codebook",
            Encoding::ZeroWidth => "zero-width",
            Encoding::ImageStego => "image-stego",
        }
    }
}

/// What an encoding produces, ready to drop into an
/// [`adplatform::campaign::AdCreative`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPayload {
    /// Ad body text.
    pub body: String,
    /// Optional image payload (only [`Encoding::ImageStego`] sets one).
    pub image: Option<Vec<u8>>,
}

/// The provider↔user shared mapping of disclosures to innocuous tokens.
///
/// "If the transparency provider obfuscates Treads …, the provider can
/// share the mapping of targeting information to encodings with users when
/// they opt-in." Tokens are 7-digit numbers rendered with thousands
/// separators (the paper's screenshot shows "2,830,120"), derived
/// deterministically from the codebook seed so provider and user builds
/// agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Codebook {
    seed: u64,
    token_to_wire: BTreeMap<String, String>,
    wire_to_token: BTreeMap<String, String>,
}

impl Codebook {
    /// An empty codebook with the given derivation seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            token_to_wire: BTreeMap::new(),
            wire_to_token: BTreeMap::new(),
        }
    }

    /// Builds a codebook covering the given disclosures.
    pub fn covering<'a, I: IntoIterator<Item = &'a Disclosure>>(seed: u64, disclosures: I) -> Self {
        let mut book = Self::new(seed);
        for d in disclosures {
            book.assign(d);
        }
        book
    }

    /// Number of assigned tokens.
    pub fn len(&self) -> usize {
        self.token_to_wire.len()
    }

    /// True if no tokens are assigned.
    pub fn is_empty(&self) -> bool {
        self.token_to_wire.is_empty()
    }

    /// Assigns (or returns the existing) token for a disclosure.
    ///
    /// Token derivation: a 7-digit number from `SHA-256(seed || wire)`,
    /// probing forward on (rare) collisions so the mapping stays a
    /// bijection.
    pub fn assign(&mut self, d: &Disclosure) -> String {
        let wire = d.to_wire();
        if let Some(tok) = self.wire_to_token.get(&wire) {
            return tok.clone();
        }
        let mut salt = 0u64;
        loop {
            let mut buf = Vec::with_capacity(16 + wire.len());
            buf.extend_from_slice(&self.seed.to_le_bytes());
            buf.extend_from_slice(&salt.to_le_bytes());
            buf.extend_from_slice(wire.as_bytes());
            let n = sha256(&buf).fingerprint() % 9_000_000 + 1_000_000;
            let token = format_with_commas(n);
            if !self.token_to_wire.contains_key(&token) {
                self.token_to_wire.insert(token.clone(), wire.clone());
                self.wire_to_token.insert(wire, token.clone());
                return token;
            }
            salt += 1;
        }
    }

    /// Resolves a token back to its disclosure.
    pub fn resolve(&self, token: &str) -> Option<Disclosure> {
        self.token_to_wire
            .get(token)
            .and_then(|w| Disclosure::from_wire(w).ok())
    }

    /// The token previously assigned to a disclosure, if any.
    pub fn token_of(&self, d: &Disclosure) -> Option<&str> {
        self.wire_to_token.get(&d.to_wire()).map(String::as_str)
    }

    /// Exports the codebook as the line-oriented text artifact the
    /// provider hands to users at opt-in:
    ///
    /// ```text
    /// treads-codebook v1 seed=7
    /// 2,830,120\tHAS|Net worth: $2M+
    /// …
    /// ```
    ///
    /// Tokens never contain tabs and wire forms never contain newlines,
    /// so the format needs no escaping.
    pub fn export(&self) -> String {
        let mut out = format!("treads-codebook v1 seed={}\n", self.seed);
        for (token, wire) in &self.token_to_wire {
            out.push_str(token);
            out.push('\t');
            out.push_str(wire);
            out.push('\n');
        }
        out
    }

    /// Imports a codebook previously produced by [`Codebook::export`].
    pub fn import(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| Error::DecodeFailure {
            reason: "empty codebook".into(),
        })?;
        let seed = header
            .strip_prefix("treads-codebook v1 seed=")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| Error::DecodeFailure {
                reason: format!("bad codebook header: {header:?}"),
            })?;
        let mut book = Codebook::new(seed);
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let (token, wire) = line.split_once('\t').ok_or_else(|| Error::DecodeFailure {
                reason: format!("codebook line {} has no separator", i + 2),
            })?;
            // Validate the wire form parses before trusting it.
            Disclosure::from_wire(wire)?;
            book.token_to_wire
                .insert(token.to_string(), wire.to_string());
            book.wire_to_token
                .insert(wire.to_string(), token.to_string());
        }
        Ok(book)
    }
}

/// Formats `2830120` as `"2,830,120"`.
fn format_with_commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    let offset = digits.len() % 3;
    for (i, c) in digits.chars().enumerate() {
        if i != 0 && (i + 3 - offset).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Zero-width characters used as stego bits (0 / 1) and terminator.
const ZW_ZERO: char = '\u{200B}'; // zero width space
const ZW_ONE: char = '\u{200C}'; // zero width non-joiner
const ZW_END: char = '\u{200D}'; // zero width joiner

/// Default innocuous cover sentence for text steganography.
pub const DEFAULT_COVER: &str = "Thanks for supporting ad transparency.";

/// Encodes a disclosure into an ad payload over the chosen channel.
///
/// For [`Encoding::CodebookToken`] the codebook is extended (that is how
/// the provider builds the book it later shares); the other channels
/// ignore it.
pub fn encode(d: &Disclosure, encoding: Encoding, codebook: &mut Codebook) -> EncodedPayload {
    match encoding {
        Encoding::Explicit => EncodedPayload {
            body: d.human_text(),
            image: None,
        },
        Encoding::CodebookToken => {
            let token = codebook.assign(d);
            EncodedPayload {
                body: format!("Ref: {token}"),
                image: None,
            }
        }
        Encoding::ZeroWidth => EncodedPayload {
            body: embed_zero_width(DEFAULT_COVER, &d.to_wire()),
            image: None,
        },
        Encoding::ImageStego => EncodedPayload {
            body: DEFAULT_COVER.to_string(),
            image: Some(embed_image(&cover_image(64, 64), &d.to_wire())),
        },
    }
}

/// Decodes a disclosure from an ad payload, trying the channels in
/// specificity order: zero-width, image stego, codebook token, explicit
/// text. This is what the browser extension runs on every captured ad; a
/// non-Tread ad decodes to an error.
pub fn decode(body: &str, image: Option<&[u8]>, codebook: &Codebook) -> Result<Disclosure> {
    if let Some(wire) = extract_zero_width(body) {
        return Disclosure::from_wire(&wire);
    }
    if let Some(img) = image {
        if let Some(wire) = extract_image(img) {
            return Disclosure::from_wire(&wire);
        }
    }
    if let Some(d) = decode_codebook_token(body, codebook) {
        return Ok(d);
    }
    if let Some(d) = decode_explicit(body) {
        return Ok(d);
    }
    Err(Error::DecodeFailure {
        reason: "no disclosure found in any channel".into(),
    })
}

/// Finds a codebook token ("Ref: 2,830,120" or a bare number) in the body.
fn decode_codebook_token(body: &str, codebook: &Codebook) -> Option<Disclosure> {
    // Scan for maximal runs of [0-9,] and try each against the book.
    let mut current = String::new();
    let mut candidates = Vec::new();
    for c in body.chars().chain(std::iter::once(' ')) {
        if c.is_ascii_digit() || c == ',' {
            current.push(c);
        } else if !current.is_empty() {
            candidates.push(std::mem::take(&mut current));
        }
    }
    candidates
        .into_iter()
        .find_map(|tok| codebook.resolve(tok.trim_matches(',')))
}

/// Parses the fixed explicit-text templates back into a disclosure.
fn decode_explicit(body: &str) -> Option<Disclosure> {
    if let Some(rest) =
        body.strip_prefix("According to this ad platform, you have the attribute: \"")
    {
        let name = rest.strip_suffix("\".")?;
        return Some(Disclosure::HasAttribute { name: name.into() });
    }
    if let Some(rest) = body.strip_prefix("According to this ad platform, the attribute \"") {
        let name = rest.strip_suffix("\" is false or missing for you.")?;
        return Some(Disclosure::LacksAttribute { name: name.into() });
    }
    if let Some(rest) = body.strip_prefix("According to this ad platform, bit ") {
        let (bit, rest) = rest.split_once(" of your \"")?;
        let group = rest.strip_suffix("\" value is 1.")?;
        return Some(Disclosure::GroupBit {
            group: group.into(),
            bit: bit.parse().ok()?,
        });
    }
    if let Some(rest) =
        body.strip_prefix("According to this ad platform, you recently visited ZIP code ")
    {
        let zip = rest.strip_suffix('.')?;
        return Some(Disclosure::VisitedZip { zip: zip.into() });
    }
    if let Some(rest) =
        body.strip_prefix("This ad platform holds the contact identifier you submitted in batch \"")
    {
        let batch = rest.strip_suffix("\".")?;
        return Some(Disclosure::HasPii {
            batch: batch.into(),
        });
    }
    None
}

/// Interleaves the wire form's bits (as zero-width characters) into cover
/// text. All hidden characters ride at the end of the cover, terminated by
/// a zero-width-joiner sentinel, so the visible text is untouched.
pub fn embed_zero_width(cover: &str, wire: &str) -> String {
    let mut out = String::with_capacity(cover.len() + wire.len() * 8 + 4);
    out.push_str(cover);
    for byte in wire.as_bytes() {
        for i in (0..8).rev() {
            out.push(if (byte >> i) & 1 == 1 {
                ZW_ONE
            } else {
                ZW_ZERO
            });
        }
    }
    out.push(ZW_END);
    out
}

/// Extracts a zero-width-embedded wire form, if present and well-formed.
pub fn extract_zero_width(text: &str) -> Option<String> {
    let mut bits = Vec::new();
    let mut terminated = false;
    for c in text.chars() {
        match c {
            ZW_ZERO => bits.push(0u8),
            ZW_ONE => bits.push(1u8),
            ZW_END => {
                terminated = true;
                break;
            }
            _ => {}
        }
    }
    if !terminated || bits.is_empty() || bits.len() % 8 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(bits.len() / 8);
    for chunk in bits.chunks_exact(8) {
        let mut b = 0u8;
        for &bit in chunk {
            b = (b << 1) | bit;
        }
        bytes.push(b);
    }
    String::from_utf8(bytes).ok()
}

/// The visible text of a zero-width payload (cover only).
pub fn strip_zero_width(text: &str) -> String {
    text.chars()
        .filter(|&c| c != ZW_ZERO && c != ZW_ONE && c != ZW_END)
        .collect()
}

/// Magic header marking an LSB-stego image payload.
const STEGO_MAGIC: [u8; 2] = [0x54, 0x52]; // "TR"

/// Generates a deterministic synthetic cover image: a `w × h` RGB buffer
/// with smooth gradients (stand-in for the ad's artwork).
pub fn cover_image(w: usize, h: usize) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(w * h * 3);
    for y in 0..h {
        for x in 0..w {
            buf.put_u8(((x * 255) / w.max(1)) as u8);
            buf.put_u8(((y * 255) / h.max(1)) as u8);
            buf.put_u8((((x + y) * 255) / (w + h).max(1)) as u8);
        }
    }
    buf.to_vec()
}

/// Embeds `wire` into the cover image's least-significant bits.
///
/// Layout: magic (2 bytes) + length (u16 BE) + payload, 1 bit per cover
/// byte. Panics if the cover is too small — Tread payloads are tens of
/// bytes and covers are thousands, so running out indicates a logic error,
/// not an input condition.
pub fn embed_image(cover: &[u8], wire: &str) -> Vec<u8> {
    let payload_len = wire.len();
    assert!(payload_len <= u16::MAX as usize, "payload too large");
    let mut message = Vec::with_capacity(4 + payload_len);
    message.extend_from_slice(&STEGO_MAGIC);
    message.extend_from_slice(&(payload_len as u16).to_be_bytes());
    message.extend_from_slice(wire.as_bytes());
    let needed_bits = message.len() * 8;
    assert!(
        cover.len() >= needed_bits,
        "cover image too small: {} bytes for {} bits",
        cover.len(),
        needed_bits
    );
    let mut out = cover.to_vec();
    for (i, byte) in message.iter().enumerate() {
        for bit in 0..8 {
            let value = (byte >> (7 - bit)) & 1;
            let idx = i * 8 + bit;
            out[idx] = (out[idx] & 0xFE) | value;
        }
    }
    out
}

/// Extracts an LSB-stego payload, if the magic header is present.
pub fn extract_image(image: &[u8]) -> Option<String> {
    let read_byte = |idx: usize| -> Option<u8> {
        let mut b = 0u8;
        for bit in 0..8 {
            let i = idx * 8 + bit;
            if i >= image.len() {
                return None;
            }
            b = (b << 1) | (image[i] & 1);
        }
        Some(b)
    };
    if read_byte(0)? != STEGO_MAGIC[0] || read_byte(1)? != STEGO_MAGIC[1] {
        return None;
    }
    let len = u16::from_be_bytes([read_byte(2)?, read_byte(3)?]) as usize;
    let mut bytes = Vec::with_capacity(len);
    for i in 0..len {
        bytes.push(read_byte(4 + i)?);
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Disclosure {
        Disclosure::HasAttribute {
            name: "Net worth: $2M+".into(),
        }
    }

    #[test]
    fn format_with_commas_matches_figure_1b() {
        assert_eq!(format_with_commas(2_830_120), "2,830,120");
        assert_eq!(format_with_commas(1_000_000), "1,000,000");
        assert_eq!(format_with_commas(999), "999");
        assert_eq!(format_with_commas(1_000), "1,000");
    }

    #[test]
    fn all_channels_round_trip() {
        for encoding in Encoding::ALL {
            let mut book = Codebook::new(7);
            let payload = encode(&sample(), encoding, &mut book);
            let decoded = decode(&payload.body, payload.image.as_deref(), &book).expect("decodes");
            assert_eq!(decoded, sample(), "channel {}", encoding.label());
        }
    }

    #[test]
    fn codebook_tokens_are_deterministic_and_bijective() {
        let disclosures: Vec<Disclosure> = (0..100)
            .map(|i| Disclosure::HasAttribute {
                name: format!("Attribute {i}"),
            })
            .collect();
        let book_a = Codebook::covering(42, &disclosures);
        let book_b = Codebook::covering(42, &disclosures);
        assert_eq!(book_a, book_b);
        assert_eq!(book_a.len(), 100);
        // Bijective: every token resolves to exactly its disclosure.
        for d in &disclosures {
            let token = book_a.token_of(d).expect("assigned");
            assert_eq!(book_a.resolve(token).expect("resolves"), *d);
        }
        // Different seeds give different tokens.
        let book_c = Codebook::covering(43, &disclosures);
        assert_ne!(
            book_a.token_of(&disclosures[0]),
            book_c.token_of(&disclosures[0])
        );
    }

    #[test]
    fn codebook_export_import_round_trip() {
        let disclosures: Vec<Disclosure> = (0..20)
            .map(|i| Disclosure::HasAttribute {
                name: format!("Attribute {i}"),
            })
            .collect();
        let book = Codebook::covering(9, &disclosures);
        let text = book.export();
        assert!(text.starts_with("treads-codebook v1 seed=9"));
        let imported = Codebook::import(&text).expect("imports");
        assert_eq!(imported, book);
        // The imported book decodes like the original.
        for d in &disclosures {
            let token = book.token_of(d).expect("assigned");
            assert_eq!(imported.resolve(token), Some(d.clone()));
        }
    }

    #[test]
    fn codebook_import_rejects_garbage() {
        assert!(Codebook::import("").is_err());
        assert!(Codebook::import("not a codebook").is_err());
        assert!(Codebook::import("treads-codebook v1 seed=x").is_err());
        // A valid header with a corrupt entry.
        assert!(Codebook::import("treads-codebook v1 seed=1\nno-separator-here").is_err());
        assert!(Codebook::import("treads-codebook v1 seed=1\n1,000\tWAT|x").is_err());
        // Header only: empty but valid.
        let empty = Codebook::import("treads-codebook v1 seed=1\n").expect("valid");
        assert!(empty.is_empty());
    }

    #[test]
    fn codebook_token_body_is_innocuous() {
        let mut book = Codebook::new(7);
        let payload = encode(&sample(), Encoding::CodebookToken, &mut book);
        // Body is "Ref: <number>" — no attribute vocabulary.
        assert!(payload.body.starts_with("Ref: "));
        assert!(!payload.body.to_lowercase().contains("net worth"));
        let token = payload.body.strip_prefix("Ref: ").expect("prefix");
        assert!(token.chars().all(|c| c.is_ascii_digit() || c == ','));
    }

    #[test]
    fn zero_width_is_invisible() {
        let mut book = Codebook::new(7);
        let payload = encode(&sample(), Encoding::ZeroWidth, &mut book);
        assert_eq!(strip_zero_width(&payload.body), DEFAULT_COVER);
        assert_ne!(payload.body, DEFAULT_COVER); // hidden bits are there
    }

    #[test]
    fn zero_width_handles_corruption() {
        // A truncated payload (missing terminator) must not decode.
        let embedded = embed_zero_width("cover", "HAS|x");
        let truncated: String = embedded
            .chars()
            .take(embedded.chars().count() - 1)
            .collect();
        assert!(extract_zero_width(&truncated).is_none());
        // Plain text has nothing hidden.
        assert!(extract_zero_width("just some text").is_none());
    }

    #[test]
    fn image_stego_survives_and_rejects() {
        let cover = cover_image(64, 64);
        let stego = embed_image(&cover, "GBIT|net_worth|3");
        assert_eq!(stego.len(), cover.len());
        assert_eq!(extract_image(&stego).as_deref(), Some("GBIT|net_worth|3"));
        // The cover itself carries nothing.
        assert!(extract_image(&cover).is_none());
        // Visual distortion is bounded to the LSB.
        for (a, b) in cover.iter().zip(stego.iter()) {
            assert!(a.abs_diff(*b) <= 1);
        }
    }

    #[test]
    fn explicit_decode_handles_all_variants() {
        for d in [
            Disclosure::HasAttribute {
                name: "Interest: coffee".into(),
            },
            Disclosure::LacksAttribute {
                name: "Housing: renter".into(),
            },
            Disclosure::GroupBit {
                group: "net_worth".into(),
                bit: 2,
            },
            Disclosure::VisitedZip {
                zip: "10001".into(),
            },
            Disclosure::HasPii {
                batch: "phone-2fa-2018w40".into(),
            },
        ] {
            assert_eq!(decode_explicit(&d.human_text()), Some(d));
        }
        assert_eq!(decode_explicit("Buy our coffee!"), None);
    }

    #[test]
    fn non_tread_ads_fail_to_decode() {
        let book = Codebook::new(7);
        assert!(decode("Buy our coffee! 20% off.", None, &book).is_err());
        // A number that is not in the codebook is not a disclosure.
        assert!(decode("Sale ends 12,31", None, &book).is_err());
    }

    /// Robustness under plausible platform creative transformations. Real
    /// platforms routinely re-encode images and normalize text; these
    /// tests document which channels survive what (an engineering caveat
    /// for would-be deployers — the paper does not discuss it).
    #[test]
    fn channel_robustness_under_platform_transformations() {
        let d = sample();
        let mut book = Codebook::new(7);

        // Image recompression destroys LSB steganography (simulated by
        // zeroing every LSB, as a lossy re-encode effectively does).
        let payload = encode(&d, Encoding::ImageStego, &mut book);
        let recompressed: Vec<u8> = payload
            .image
            .clone()
            .expect("stego image")
            .iter()
            .map(|b| b & 0xFE)
            .collect();
        assert!(
            decode(&payload.body, Some(&recompressed), &book).is_err(),
            "LSB stego must NOT survive image re-encoding"
        );

        // Unicode stripping (some sanitizers drop zero-width characters)
        // destroys the zero-width channel.
        let payload = encode(&d, Encoding::ZeroWidth, &mut book);
        let sanitized = strip_zero_width(&payload.body);
        assert!(
            decode(&sanitized, None, &book).is_err(),
            "zero-width must NOT survive a zero-width-stripping sanitizer"
        );

        // The codebook token survives whitespace normalization, casing,
        // and being wrapped in extra copy — it is just digits.
        let payload = encode(&d, Encoding::CodebookToken, &mut book);
        let token_line = payload.body.to_uppercase();
        let mangled = format!("  SPONSORED \u{00b7} {token_line}  \nLearn more");
        assert_eq!(
            decode(&mangled, None, &book).expect("codebook survives"),
            d,
            "the numeric token channel survives text normalization"
        );
    }

    #[test]
    fn cover_image_is_deterministic() {
        assert_eq!(cover_image(8, 8), cover_image(8, 8));
        assert_eq!(cover_image(8, 8).len(), 8 * 8 * 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_disclosure() -> impl Strategy<Value = Disclosure> {
        // Attribute names drawn from catalog-like characters, excluding
        // '|' (the wire separator, which real catalog names never use),
        // control characters, and the zero-width range.
        let name = "[A-Za-z0-9 :$+&'./()-]{1,40}";
        prop_oneof![
            name.prop_map(|name| Disclosure::HasAttribute { name }),
            name.prop_map(|name| Disclosure::LacksAttribute { name }),
            ("[a-z_]{1,20}", 0u8..16).prop_map(|(group, bit)| Disclosure::GroupBit { group, bit }),
            "[0-9a-f]{12}".prop_map(|batch| Disclosure::HasPii { batch }),
            "[0-9]{5}".prop_map(|zip| Disclosure::VisitedZip { zip }),
        ]
    }

    proptest! {
        /// Every channel round-trips every disclosure.
        #[test]
        fn channel_round_trip(d in arb_disclosure(), channel in 0usize..4) {
            let encoding = Encoding::ALL[channel];
            let mut book = Codebook::new(99);
            let payload = encode(&d, encoding, &mut book);
            let decoded = decode(&payload.body, payload.image.as_deref(), &book);
            prop_assert_eq!(decoded.expect("decodes"), d);
        }

        /// Zero-width embedding never alters the visible text.
        #[test]
        fn zero_width_preserves_cover(wire in "[ -~]{1,60}", cover in "[ -~]{1,60}") {
            let embedded = embed_zero_width(&cover, &wire);
            prop_assert_eq!(strip_zero_width(&embedded), cover);
            prop_assert_eq!(extract_zero_width(&embedded), Some(wire));
        }

        /// Image stego round-trips arbitrary printable payloads and only
        /// touches LSBs.
        #[test]
        fn image_stego_round_trip(wire in "[ -~]{1,100}") {
            let cover = cover_image(64, 64);
            let stego = embed_image(&cover, &wire);
            prop_assert_eq!(extract_image(&stego), Some(wire));
            for (a, b) in cover.iter().zip(stego.iter()) {
                prop_assert!(a.abs_diff(*b) <= 1);
            }
        }

        /// Codebook assignment is a bijection under arbitrary batches.
        #[test]
        fn codebook_bijection(names in prop::collection::btree_set("[A-Za-z0-9 ]{1,20}", 1..40)) {
            let disclosures: Vec<Disclosure> = names
                .into_iter()
                .map(|name| Disclosure::HasAttribute { name })
                .collect();
            let book = Codebook::covering(5, &disclosures);
            prop_assert_eq!(book.len(), disclosures.len());
            let mut tokens = std::collections::BTreeSet::new();
            for d in &disclosures {
                let t = book.token_of(d).expect("assigned").to_string();
                prop_assert!(tokens.insert(t.clone()), "token collision: {}", t);
                prop_assert_eq!(book.resolve(&t).expect("resolves"), d.clone());
            }
        }
    }
}
