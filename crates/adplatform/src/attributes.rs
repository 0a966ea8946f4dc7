//! The platform's targeting-attribute catalog.
//!
//! The paper reports that, as of early 2018, Facebook offered U.S.
//! advertisers **614 platform-computed attributes** plus **507 partner
//! categories** sourced from data brokers. This module reproduces that
//! catalog: platform attributes are generated deterministically across the
//! interest/demographic/behaviour families real platforms expose, and
//! partner attributes are registered from a `treads_broker::PartnerCatalog`.
//!
//! The catalog also implements the keyword search the paper mentions
//! (Facebook "allows advertisers to search by particular keywords and
//! select from a list of targeting attributes that match").

use adsim_types::AttributeId;
use std::collections::HashMap;

/// Where an attribute's data comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttributeSource {
    /// Computed by the platform from on-platform activity.
    Platform,
    /// Sourced from an external data broker ("partner category").
    Partner {
        /// Broker name, e.g. `"NorthStar Data"`.
        broker: String,
    },
}

impl AttributeSource {
    /// True for broker-sourced partner categories.
    pub fn is_partner(&self) -> bool {
        matches!(self, AttributeSource::Partner { .. })
    }
}

/// One targeting attribute in the platform catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// Platform-assigned identifier.
    pub id: AttributeId,
    /// Catalog-unique display name.
    pub name: String,
    /// Data source (platform vs partner).
    pub source: AttributeSource,
    /// Mutually-exclusive value group, if any (e.g. `"net_worth"`).
    pub group: Option<String>,
    /// Fraction of platform users holding the attribute, used by the
    /// platform's explanation generator ("most prevalent attribute") and
    /// by workload generation.
    pub prevalence: f64,
}

/// Number of platform-computed attributes the paper reports (early 2018).
pub const PLATFORM_ATTRIBUTE_COUNT: usize = 614;

/// The full attribute catalog.
#[derive(Debug, Clone, Default)]
pub struct AttributeCatalog {
    defs: Vec<AttributeDef>,
    by_name: HashMap<String, AttributeId>,
}

impl AttributeCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the catalog with the paper's U.S. composition: 614 platform
    /// attributes and the given partner catalog (507 attributes for
    /// [`treads_broker::PartnerCatalog::us`]).
    pub fn us_2018(partner: &treads_broker::PartnerCatalog) -> Self {
        let mut catalog = Self::new();
        for (name, group, prevalence) in platform_attribute_specs() {
            catalog.register(name, AttributeSource::Platform, group, prevalence);
        }
        assert_eq!(
            catalog.len(),
            PLATFORM_ATTRIBUTE_COUNT,
            "platform attribute generator must produce exactly {PLATFORM_ATTRIBUTE_COUNT}"
        );
        for attr in partner.attributes() {
            catalog.register(
                attr.name.clone(),
                AttributeSource::Partner {
                    broker: attr.broker.to_string(),
                },
                attr.group.map(str::to_string),
                attr.base_rate,
            );
        }
        catalog
    }

    /// Registers an attribute and returns its id. Panics on duplicate
    /// names — the catalog is constructed once, at platform boot, and a
    /// duplicate means a generator bug.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        source: AttributeSource,
        group: Option<String>,
        prevalence: f64,
    ) -> AttributeId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate attribute registration: {name}"
        );
        let id = AttributeId(self.defs.len() as u64 + 1);
        self.by_name.insert(name.clone(), id);
        self.defs.push(AttributeDef {
            id,
            name,
            source,
            group,
            prevalence,
        });
        id
    }

    /// Number of attributes in the catalog.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if no attributes are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Resolves an attribute by id.
    pub fn get(&self, id: AttributeId) -> Option<&AttributeDef> {
        let idx = id.raw().checked_sub(1)? as usize;
        self.defs.get(idx)
    }

    /// Resolves an attribute by exact name.
    pub fn id_of(&self, name: &str) -> Option<AttributeId> {
        self.by_name.get(name).copied()
    }

    /// All attributes, in registration order.
    pub fn all(&self) -> &[AttributeDef] {
        &self.defs
    }

    /// All partner-category attributes (the ones the platform's own
    /// transparency page hides).
    pub fn partner_attributes(&self) -> Vec<&AttributeDef> {
        self.defs.iter().filter(|d| d.source.is_partner()).collect()
    }

    /// All platform-computed attributes.
    pub fn platform_attributes(&self) -> Vec<&AttributeDef> {
        self.defs
            .iter()
            .filter(|d| !d.source.is_partner())
            .collect()
    }

    /// Case-insensitive keyword search over attribute names — the
    /// advertiser-facing search box the paper describes.
    pub fn search(&self, keyword: &str) -> Vec<&AttributeDef> {
        let needle = keyword.to_lowercase();
        self.defs
            .iter()
            .filter(|d| d.name.to_lowercase().contains(&needle))
            .collect()
    }

    /// Members of a mutually-exclusive group, in registration order.
    pub fn group(&self, group: &str) -> Vec<&AttributeDef> {
        self.defs
            .iter()
            .filter(|d| d.group.as_deref() == Some(group))
            .collect()
    }
}

/// Deterministic generator for the 614 platform-computed attributes.
///
/// The families mirror what real platforms expose (interests, demographics,
/// behaviours, life events, device usage); names are synthetic. Returns
/// `(name, group, prevalence)` triples.
fn platform_attribute_specs() -> Vec<(String, Option<String>, f64)> {
    let mut out = Vec::with_capacity(PLATFORM_ATTRIBUTE_COUNT);

    // Interests: 18 categories x 20 topics = 360.
    let interest_categories: [(&str, [&str; 20]); 18] = [
        (
            "Sports",
            [
                "soccer",
                "basketball",
                "american football",
                "baseball",
                "tennis",
                "golf",
                "running",
                "cycling",
                "swimming",
                "yoga",
                "martial arts",
                "boxing",
                "skiing",
                "snowboarding",
                "surfing",
                "climbing",
                "hiking",
                "fishing",
                "hunting",
                "esports",
            ],
        ),
        (
            "Music",
            [
                "rock",
                "pop",
                "hip hop",
                "jazz",
                "classical",
                "country",
                "electronic",
                "metal",
                "folk",
                "blues",
                "reggae",
                "latin",
                "k-pop",
                "opera",
                "musicals",
                "salsa dancing",
                "choir",
                "songwriting",
                "djing",
                "vinyl collecting",
            ],
        ),
        (
            "Food & Drink",
            [
                "cooking",
                "baking",
                "grilling",
                "wine",
                "craft beer",
                "coffee",
                "tea",
                "veganism",
                "vegetarianism",
                "organic food",
                "fine dining",
                "street food",
                "sushi",
                "pizza",
                "barbecue",
                "desserts",
                "cocktails",
                "food trucks",
                "farmers markets",
                "meal prep",
            ],
        ),
        (
            "Travel",
            [
                "beach vacations",
                "city breaks",
                "backpacking",
                "luxury travel",
                "cruises",
                "camping",
                "road trips",
                "national parks",
                "theme parks",
                "air travel",
                "train travel",
                "hostels",
                "resorts",
                "adventure travel",
                "ecotourism",
                "travel photography",
                "solo travel",
                "family travel",
                "business travel",
                "travel hacking",
            ],
        ),
        (
            "Technology",
            [
                "smartphones",
                "laptops",
                "gadgets",
                "artificial intelligence",
                "programming",
                "web development",
                "gaming pcs",
                "consoles",
                "virtual reality",
                "drones",
                "smart home",
                "wearables",
                "cryptocurrencies",
                "cybersecurity",
                "robotics",
                "3d printing",
                "open source",
                "tech startups",
                "electric vehicles",
                "space tech",
            ],
        ),
        (
            "Entertainment",
            [
                "movies",
                "television",
                "streaming",
                "documentaries",
                "comedy",
                "drama",
                "science fiction",
                "horror",
                "animation",
                "anime",
                "celebrities",
                "award shows",
                "film festivals",
                "stand-up comedy",
                "theater",
                "ballet",
                "circus",
                "magic",
                "podcasts",
                "audiobooks",
            ],
        ),
        (
            "Fashion & Beauty",
            [
                "fashion",
                "streetwear",
                "luxury brands",
                "sneakers",
                "jewelry",
                "watches",
                "makeup",
                "skincare",
                "haircare",
                "fragrance",
                "nail art",
                "modeling",
                "fashion design",
                "thrifting",
                "sustainable fashion",
                "menswear",
                "womenswear",
                "accessories",
                "tattoos",
                "piercings",
            ],
        ),
        (
            "Home & Garden",
            [
                "interior design",
                "diy projects",
                "woodworking",
                "gardening",
                "houseplants",
                "landscaping",
                "home renovation",
                "furniture",
                "home decor",
                "organization",
                "cleaning hacks",
                "smart appliances",
                "tiny homes",
                "architecture",
                "real estate",
                "feng shui",
                "composting",
                "beekeeping",
                "urban farming",
                "homesteading",
            ],
        ),
        (
            "Health & Fitness",
            [
                "weightlifting",
                "crossfit",
                "pilates",
                "meditation",
                "mindfulness",
                "nutrition",
                "weight loss",
                "marathon training",
                "triathlon",
                "home workouts",
                "gym culture",
                "physical therapy",
                "mental health",
                "sleep optimization",
                "supplements",
                "intermittent fasting",
                "keto diet",
                "paleo diet",
                "wellness retreats",
                "cold plunges",
            ],
        ),
        (
            "Business & Finance",
            [
                "entrepreneurship",
                "investing",
                "stock market",
                "personal finance",
                "budgeting",
                "retirement planning",
                "real estate investing",
                "side hustles",
                "freelancing",
                "marketing",
                "sales",
                "leadership",
                "productivity",
                "networking",
                "economics",
                "accounting",
                "venture capital",
                "small business",
                "e-commerce",
                "dropshipping",
            ],
        ),
        (
            "Family & Relationships",
            [
                "parenting",
                "pregnancy",
                "newborn care",
                "toddlers",
                "homeschooling",
                "adoption",
                "dating",
                "weddings",
                "marriage",
                "grandparenting",
                "family games",
                "family travel planning",
                "co-parenting",
                "foster care",
                "genealogy",
                "family photography",
                "birthday parties",
                "baby names",
                "childcare",
                "family budgeting",
            ],
        ),
        (
            "Vehicles",
            [
                "cars",
                "motorcycles",
                "trucks",
                "classic cars",
                "car restoration",
                "racing",
                "formula 1",
                "nascar",
                "off-roading",
                "boats",
                "rvs",
                "car detailing",
                "car audio",
                "motorcycling gear",
                "car shows",
                "auto repair",
                "car camping",
                "supercars",
                "car reviews",
                "driving",
            ],
        ),
        (
            "Arts & Culture",
            [
                "painting",
                "drawing",
                "sculpture",
                "photography",
                "museums",
                "art history",
                "poetry",
                "creative writing",
                "literature",
                "book clubs",
                "calligraphy",
                "pottery",
                "knitting",
                "quilting",
                "origami",
                "street art",
                "galleries",
                "antiques",
                "philosophy",
                "languages",
            ],
        ),
        (
            "Outdoors & Nature",
            [
                "birdwatching",
                "stargazing",
                "kayaking",
                "canoeing",
                "rafting",
                "sailing",
                "scuba diving",
                "snorkeling",
                "wildlife",
                "conservation",
                "foraging",
                "mushroom hunting",
                "rock collecting",
                "geocaching",
                "trail running",
                "mountaineering",
                "bouldering",
                "paragliding",
                "hot springs",
                "storm watching",
            ],
        ),
        (
            "Games & Hobbies",
            [
                "board games",
                "card games",
                "chess",
                "poker",
                "puzzles",
                "video games",
                "tabletop rpgs",
                "miniature painting",
                "model trains",
                "lego",
                "collectibles",
                "trading cards",
                "arcade games",
                "escape rooms",
                "trivia",
                "karaoke",
                "magic the gathering",
                "speedrunning",
                "game development",
                "cosplay",
            ],
        ),
        (
            "Science & Education",
            [
                "astronomy",
                "physics",
                "biology",
                "chemistry",
                "mathematics",
                "history",
                "archaeology",
                "geography",
                "psychology",
                "neuroscience",
                "climate science",
                "oceanography",
                "geology",
                "paleontology",
                "online courses",
                "test prep",
                "scholarships",
                "study abroad",
                "science museums",
                "citizen science",
            ],
        ),
        (
            "Pets & Animals",
            [
                "dogs",
                "cats",
                "dog training",
                "cat behavior",
                "aquariums",
                "reptiles",
                "birds",
                "horses",
                "rabbits",
                "hamsters",
                "pet adoption",
                "pet grooming",
                "pet photography",
                "exotic pets",
                "pet nutrition",
                "veterinary medicine",
                "animal rescue",
                "dog parks",
                "pet fashion",
                "pet tech",
            ],
        ),
        (
            "News & Society",
            [
                "local news",
                "world news",
                "politics",
                "elections",
                "public policy",
                "social causes",
                "volunteering",
                "activism",
                "charity",
                "community organizing",
                "urban planning",
                "public transit",
                "civic tech",
                "journalism",
                "fact checking",
                "debates",
                "law",
                "human rights",
                "environment",
                "sustainability",
            ],
        ),
    ];
    for (category, topics) in interest_categories {
        for topic in topics {
            out.push((format!("Interest: {topic} ({category})"), None, 0.08));
        }
    }

    // Demographics: 254 attributes with value groups.
    for band in ["18-24", "25-34", "35-44", "45-54", "55-64", "65+"] {
        out.push((
            format!("Age bracket: {band}"),
            Some("age_bracket".into()),
            0.16,
        ));
    }
    for g in ["female", "male", "unspecified"] {
        out.push((format!("Gender: {g}"), Some("gender".into()), 0.33));
    }
    for e in [
        "high school",
        "some college",
        "college degree",
        "graduate degree",
        "doctorate",
    ] {
        out.push((format!("Education: {e}"), Some("education".into()), 0.20));
    }
    for r in [
        "single",
        "in a relationship",
        "engaged",
        "married",
        "separated",
        "widowed",
    ] {
        out.push((
            format!("Relationship: {r}"),
            Some("relationship".into()),
            0.16,
        ));
    }
    for l in [
        "english",
        "spanish",
        "chinese",
        "french",
        "german",
        "portuguese",
        "hindi",
        "arabic",
        "korean",
        "vietnamese",
    ] {
        out.push((format!("Language: {l}"), Some("language".into()), 0.10));
    }
    // 50 US states as "lives in" demographics.
    for state in US_STATES {
        out.push((format!("Lives in: {state}"), Some("state".into()), 0.02));
    }
    // Life events (20).
    for ev in [
        "new job",
        "recently moved",
        "new relationship",
        "newly engaged",
        "newly married",
        "anniversary soon",
        "birthday this month",
        "new pet",
        "new baby",
        "recently graduated",
        "started college",
        "retired recently",
        "bought a home",
        "away from hometown",
        "away from family",
        "long-distance relationship",
        "upcoming travel",
        "recovering from surgery",
        "training for event",
        "starting a business",
    ] {
        out.push((format!("Life event: {ev}"), None, 0.04));
    }
    // Device/usage behaviours (40).
    for d in [
        "ios user",
        "android user",
        "desktop-primary user",
        "mobile-primary user",
        "tablet user",
        "smart tv app user",
        "4g user",
        "5g user",
        "wifi-primary user",
        "new device owner",
        "old device owner",
        "heavy app user",
        "light app user",
        "night-time user",
        "morning user",
        "weekend-heavy user",
        "frequent sharer",
        "frequent commenter",
        "frequent liker",
        "video watcher",
        "live video watcher",
        "stories viewer",
        "marketplace browser",
        "group participant",
        "event attender",
        "page follower (brands)",
        "page follower (news)",
        "page follower (sports)",
        "page follower (entertainment)",
        "messaging-heavy user",
        "photo uploader",
        "check-in user",
        "poll participant",
        "link clicker",
        "ad clicker",
        "in-app shopper",
        "payment user",
        "dating feature user",
        "job-search feature user",
        "gaming feature user",
    ] {
        out.push((format!("Behavior: {d}"), None, 0.12));
    }
    // Digital activity composites (remaining to reach 254 demographic-side):
    for c in [
        "frequent traveler (platform-inferred)",
        "commuter (platform-inferred)",
        "expat (platform-inferred)",
        "returned from trip recently",
        "lives near city center",
        "lives in suburbs",
        "lives in rural area",
        "recently used location services",
        "multi-device user",
        "cross-border friend network",
        "large friend network",
        "small friend network",
        "politically engaged (platform-inferred)",
        "likely early adopter",
        "deal hunter (platform-inferred)",
        "brand engager",
        "content creator",
        "influencer follower",
        "niche community member",
        "local business supporter",
    ] {
        out.push((format!("Inferred: {c}"), None, 0.07));
    }
    // Work: industries (24).
    for ind in [
        "education",
        "healthcare",
        "technology",
        "finance",
        "retail",
        "manufacturing",
        "construction",
        "transportation",
        "hospitality",
        "agriculture",
        "energy",
        "media",
        "government",
        "legal",
        "real estate",
        "telecommunications",
        "pharmaceuticals",
        "aerospace",
        "automotive industry",
        "entertainment industry",
        "nonprofit",
        "military",
        "consulting",
        "logistics",
    ] {
        out.push((format!("Works in: {ind}"), Some("industry".into()), 0.05));
    }
    // Education: fields of study (20).
    for field in [
        "computer science",
        "engineering",
        "business administration",
        "economics",
        "medicine",
        "nursing",
        "law",
        "education studies",
        "psychology",
        "sociology",
        "political science",
        "english literature",
        "history",
        "mathematics",
        "physics",
        "chemistry",
        "biology",
        "art and design",
        "communications",
        "environmental science",
    ] {
        out.push((
            format!("Studied: {field}"),
            Some("field_of_study".into()),
            0.04,
        ));
    }
    // Page-category affinities (30).
    for cat in [
        "local restaurants",
        "national brands",
        "sports teams",
        "musicians",
        "authors",
        "tv shows",
        "movies pages",
        "video game studios",
        "clothing brands",
        "beauty brands",
        "airlines",
        "hotels",
        "universities",
        "museums pages",
        "charities",
        "news outlets",
        "magazines",
        "podcasts pages",
        "fitness studios",
        "grocery chains",
        "coffee chains",
        "fast food chains",
        "car manufacturers",
        "tech companies",
        "financial institutions",
        "insurance companies",
        "telecom providers",
        "streaming services",
        "online retailers",
        "local services",
    ] {
        out.push((format!("Affinity: {cat}"), None, 0.09));
    }
    // Connectivity & account characteristics (20).
    for c in [
        "account age under 1 year",
        "account age 1-5 years",
        "account age over 5 years",
        "verified contact email",
        "verified contact phone",
        "two-factor enrolled",
        "connected instagram-like app",
        "connected messenger-like app",
        "business page admin",
        "group admin",
        "event creator",
        "marketplace seller",
        "developer account",
        "advertiser account holder",
        "creator fund participant",
        "public profile",
        "private profile",
        "high-engagement account",
        "dormant-then-returned account",
        "multilingual account",
    ] {
        out.push((format!("Account: {c}"), account_group(c), 0.10));
    }

    out
}

/// Account-age buckets are mutually exclusive; the rest of the account
/// characteristics are independent flags.
fn account_group(name: &str) -> Option<String> {
    if name.starts_with("account age") {
        Some("account_age".into())
    } else {
        None
    }
}

/// The 50 U.S. state names used for location demographics.
pub const US_STATES: [&str; 50] = [
    "Alabama",
    "Alaska",
    "Arizona",
    "Arkansas",
    "California",
    "Colorado",
    "Connecticut",
    "Delaware",
    "Florida",
    "Georgia",
    "Hawaii",
    "Idaho",
    "Illinois",
    "Indiana",
    "Iowa",
    "Kansas",
    "Kentucky",
    "Louisiana",
    "Maine",
    "Maryland",
    "Massachusetts",
    "Michigan",
    "Minnesota",
    "Mississippi",
    "Missouri",
    "Montana",
    "Nebraska",
    "Nevada",
    "New Hampshire",
    "New Jersey",
    "New Mexico",
    "New York",
    "North Carolina",
    "North Dakota",
    "Ohio",
    "Oklahoma",
    "Oregon",
    "Pennsylvania",
    "Rhode Island",
    "South Carolina",
    "South Dakota",
    "Tennessee",
    "Texas",
    "Utah",
    "Vermont",
    "Virginia",
    "Washington",
    "West Virginia",
    "Wisconsin",
    "Wyoming",
];

#[cfg(test)]
mod tests {
    use super::*;
    use treads_broker::PartnerCatalog;

    #[test]
    fn us_2018_catalog_has_paper_composition() {
        let partner = PartnerCatalog::us();
        let catalog = AttributeCatalog::us_2018(&partner);
        assert_eq!(catalog.platform_attributes().len(), 614);
        assert_eq!(catalog.partner_attributes().len(), 507);
        assert_eq!(catalog.len(), 614 + 507);
    }

    #[test]
    fn ids_resolve_round_trip() {
        let partner = PartnerCatalog::us();
        let catalog = AttributeCatalog::us_2018(&partner);
        for def in catalog.all() {
            assert_eq!(catalog.get(def.id).expect("id resolves").name, def.name);
            assert_eq!(catalog.id_of(&def.name), Some(def.id));
        }
        assert!(catalog.get(AttributeId(0)).is_none());
        assert!(catalog.get(AttributeId(99_999)).is_none());
    }

    #[test]
    fn partner_attributes_keep_broker_identity() {
        let partner = PartnerCatalog::us();
        let catalog = AttributeCatalog::us_2018(&partner);
        let id = catalog.id_of("Net worth: $2M+").expect("exists");
        let def = catalog.get(id).expect("resolves");
        match &def.source {
            AttributeSource::Partner { broker } => {
                assert!(treads_broker::catalog::BROKERS.contains(&broker.as_str()));
            }
            other => panic!("expected partner source, got {other:?}"),
        }
        assert!(def.source.is_partner());
    }

    #[test]
    fn keyword_search_matches_paper_example() {
        // The paper's running example targets people interested in Salsa
        // dancing — searchable by keyword.
        let partner = PartnerCatalog::us();
        let catalog = AttributeCatalog::us_2018(&partner);
        let hits = catalog.search("salsa");
        assert!(hits.iter().any(|d| d.name.contains("salsa dancing")));
        // Search is case-insensitive.
        assert_eq!(catalog.search("SALSA").len(), hits.len());
        // And scoped: nonsense finds nothing.
        assert!(catalog.search("xyzzy-no-such-topic").is_empty());
    }

    #[test]
    fn groups_span_platform_and_partner_attributes() {
        let partner = PartnerCatalog::us();
        let catalog = AttributeCatalog::us_2018(&partner);
        assert_eq!(catalog.group("age_bracket").len(), 6);
        assert_eq!(catalog.group("net_worth").len(), 9);
        assert_eq!(catalog.group("state").len(), 50);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute registration")]
    fn duplicate_registration_panics() {
        let mut catalog = AttributeCatalog::new();
        catalog.register("X", AttributeSource::Platform, None, 0.1);
        catalog.register("X", AttributeSource::Platform, None, 0.1);
    }

    #[test]
    fn empty_catalog_behaves() {
        let catalog = AttributeCatalog::new();
        assert!(catalog.is_empty());
        assert_eq!(catalog.len(), 0);
        assert!(catalog.search("anything").is_empty());
    }
}
