//! The partner-category catalog.
//!
//! Generates a deterministic taxonomy of exactly **507** U.S. partner
//! attributes — the number the paper reports Facebook sourced from data
//! brokers for U.S. advertisers as of early 2018. The names are synthetic
//! but shaped like the real catalog (net worth bands, "kinds of restaurants
//! purchased at", job roles, home types, automobile purchase intent, …),
//! and the eleven attributes the paper's author actually received Treads
//! for all exist verbatim so the validation scenario can reference them.
//!
//! Attributes are binary, but mutually-exclusive *groups* (e.g., the nine
//! net-worth bands) model the paper's non-binary attributes: a user holds
//! at most one attribute of a group, and the planner's log₂(m) bit-slice
//! plans (§3.1 "Scale") operate on groups.

use std::collections::HashMap;

/// Top-level taxonomy segment of a partner attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Net worth, income, investable assets.
    Financial,
    /// Purchase behaviour (restaurants, apparel, grocery, …).
    Purchase,
    /// Occupation and job role.
    Occupation,
    /// Housing: home type, value, ownership.
    Housing,
    /// Automotive: make/segment likely to be purchased, timing.
    Automotive,
    /// Travel habits.
    Travel,
    /// Charitable giving.
    Charitable,
    /// Media and device usage.
    Media,
    /// Household composition and life events.
    Household,
}

impl Segment {
    /// All segments, in catalog order.
    pub const ALL: [Segment; 9] = [
        Segment::Financial,
        Segment::Purchase,
        Segment::Occupation,
        Segment::Housing,
        Segment::Automotive,
        Segment::Travel,
        Segment::Charitable,
        Segment::Media,
        Segment::Household,
    ];

    /// Human-readable segment label.
    pub fn label(self) -> &'static str {
        match self {
            Segment::Financial => "Financial",
            Segment::Purchase => "Purchase behavior",
            Segment::Occupation => "Occupation",
            Segment::Housing => "Housing",
            Segment::Automotive => "Automotive",
            Segment::Travel => "Travel",
            Segment::Charitable => "Charitable giving",
            Segment::Media => "Media usage",
            Segment::Household => "Household",
        }
    }
}

/// One partner attribute as shipped by a data broker.
#[derive(Debug, Clone, PartialEq)]
pub struct PartnerAttribute {
    /// Catalog-unique name, e.g. `"Net worth: $2M+"`.
    pub name: String,
    /// Taxonomy segment.
    pub segment: Segment,
    /// The (synthetic) broker supplying this attribute.
    pub broker: &'static str,
    /// Mutually-exclusive group this attribute belongs to, if any
    /// (e.g. all nine net-worth bands share group `"net_worth"`).
    pub group: Option<&'static str>,
    /// Population base rate: fraction of broker-covered users holding this
    /// attribute, used by the coverage model.
    pub base_rate: f64,
}

/// The synthetic brokers supplying the feed. Fictional stand-ins for the
/// paper's Acxiom / Oracle Data Cloud / Epsilon.
pub const BROKERS: [&str; 3] = [
    "NorthStar Data",
    "Meridian Insights",
    "BlueHarbor Analytics",
];

/// The full U.S. partner-category catalog.
#[derive(Debug, Clone)]
pub struct PartnerCatalog {
    attributes: Vec<PartnerAttribute>,
    by_name: HashMap<String, usize>,
    groups: HashMap<&'static str, Vec<usize>>,
}

/// Number of U.S. partner categories the paper reports (early 2018).
pub const US_PARTNER_ATTRIBUTE_COUNT: usize = 507;

/// The eleven attributes the paper's validation actually revealed for one
/// author (net worth, restaurant & apparel purchases, job role, home type,
/// auto purchase intent). The validation scenario assigns exactly these.
pub const VALIDATION_ATTRIBUTES: [&str; 11] = [
    "Net worth: $2M+",
    "Purchase behavior: fine dining restaurants",
    "Purchase behavior: fast casual restaurants",
    "Purchase behavior: business apparel",
    "Purchase behavior: athletic apparel",
    "Job role: professor / educator",
    "Job role: senior management",
    "Home type: single-family home",
    "Likely auto purchase: luxury sedan",
    "Likely auto purchase: within 6 months",
    "Charitable giving: education causes",
];

impl PartnerCatalog {
    /// Builds the deterministic U.S. catalog of exactly
    /// [`US_PARTNER_ATTRIBUTE_COUNT`] attributes.
    pub fn us() -> Self {
        let mut attributes = Vec::with_capacity(US_PARTNER_ATTRIBUTE_COUNT);

        let push = |name: String,
                    segment: Segment,
                    group: Option<&'static str>,
                    base_rate: f64,
                    attributes: &mut Vec<PartnerAttribute>| {
            // Brokers are assigned round-robin — which broker supplies an
            // attribute is irrelevant to every experiment, but having
            // several reproduces the paper's "multiple data brokers" setup.
            let broker = BROKERS[attributes.len() % BROKERS.len()];
            attributes.push(PartnerAttribute {
                name,
                segment,
                broker,
                group,
                base_rate,
            });
        };

        // --- Financial (9 net worth + 10 income + 8 assets + 13 products = 40)
        for band in [
            "under $100k",
            "$100k-$250k",
            "$250k-$500k",
            "$500k-$750k",
            "$750k-$1M",
            "$1M-$1.5M",
            "$1.5M-$2M",
            "$2M+",
            "unknown band",
        ] {
            push(
                format!("Net worth: {band}"),
                Segment::Financial,
                Some("net_worth"),
                0.11,
                &mut attributes,
            );
        }
        for band in [
            "under $30k",
            "$30k-$40k",
            "$40k-$50k",
            "$50k-$75k",
            "$75k-$100k",
            "$100k-$125k",
            "$125k-$150k",
            "$150k-$250k",
            "$250k-$350k",
            "$350k+",
        ] {
            push(
                format!("Household income: {band}"),
                Segment::Financial,
                Some("household_income"),
                0.10,
                &mut attributes,
            );
        }
        for band in [
            "under $50k",
            "$50k-$100k",
            "$100k-$250k",
            "$250k-$500k",
            "$500k-$1M",
            "$1M-$2M",
            "$2M-$3M",
            "$3M+",
        ] {
            push(
                format!("Investable assets: {band}"),
                Segment::Financial,
                Some("investable_assets"),
                0.12,
                &mut attributes,
            );
        }
        for product in [
            "premium credit card holder",
            "travel rewards card holder",
            "store card holder",
            "active investor",
            "mutual fund investor",
            "retirement plan contributor",
            "life insurance holder",
            "auto insurance shopper",
            "home insurance shopper",
            "mortgage holder",
            "mortgage refinance prospect",
            "personal loan prospect",
            "high-yield savings user",
        ] {
            push(
                format!("Financial: {product}"),
                Segment::Financial,
                None,
                0.15,
                &mut attributes,
            );
        }

        // --- Purchase behaviour (170)
        for kind in [
            "fine dining restaurants",
            "fast casual restaurants",
            "fast food restaurants",
            "coffee shops",
            "family restaurants",
            "pizza restaurants",
            "ethnic cuisine restaurants",
            "steakhouses",
            "seafood restaurants",
            "vegetarian restaurants",
            "buffet restaurants",
            "delivery-first restaurants",
            "bakeries and desserts",
            "bars and pubs",
            "juice and smoothie shops",
        ] {
            push(
                format!("Purchase behavior: {kind}"),
                Segment::Purchase,
                Some("restaurants"),
                0.20,
                &mut attributes,
            );
        }
        for kind in [
            "business apparel",
            "athletic apparel",
            "luxury apparel",
            "casual apparel",
            "children's apparel",
            "shoes and footwear",
            "accessories and jewelry",
            "outdoor apparel",
            "plus-size apparel",
            "discount apparel",
            "online-first apparel",
            "seasonal apparel",
        ] {
            push(
                format!("Purchase behavior: {kind}"),
                Segment::Purchase,
                Some("apparel"),
                0.18,
                &mut attributes,
            );
        }
        let purchase_families: [(&str, &[&str]); 9] = [
            (
                "grocery",
                &[
                    "organic groceries",
                    "premium groceries",
                    "bulk groceries",
                    "prepared meals",
                    "specialty foods",
                    "health foods",
                    "store-brand groceries",
                    "grocery delivery",
                    "farmers markets",
                    "international groceries",
                    "snack foods",
                    "beverages",
                    "wine and spirits",
                    "craft beer",
                    "baby food",
                ],
            ),
            (
                "electronics",
                &[
                    "premium smartphones",
                    "budget smartphones",
                    "laptops and computers",
                    "gaming consoles",
                    "smart home devices",
                    "audio equipment",
                    "cameras",
                    "wearables",
                    "home theater",
                    "computer accessories",
                    "early technology adopter",
                    "refurbished electronics",
                ],
            ),
            (
                "beauty",
                &[
                    "premium cosmetics",
                    "skincare products",
                    "haircare products",
                    "fragrances",
                    "natural beauty products",
                    "men's grooming",
                    "salon services",
                    "spa services",
                    "nail care",
                    "beauty subscriptions",
                ],
            ),
            (
                "pets",
                &[
                    "dog products",
                    "cat products",
                    "premium pet food",
                    "pet healthcare",
                    "pet services",
                    "aquarium supplies",
                    "pet insurance",
                    "pet toys",
                ],
            ),
            (
                "children",
                &[
                    "baby products",
                    "toys and games",
                    "children's books",
                    "educational products",
                    "children's furniture",
                    "strollers and car seats",
                    "children's electronics",
                    "school supplies",
                ],
            ),
            (
                "sports",
                &[
                    "golf equipment",
                    "fitness equipment",
                    "running gear",
                    "cycling gear",
                    "team sports equipment",
                    "outdoor recreation",
                    "hunting and fishing",
                    "winter sports",
                    "water sports",
                    "gym memberships",
                    "yoga and pilates",
                    "sports memorabilia",
                ],
            ),
            (
                "home_garden",
                &[
                    "home improvement",
                    "furniture",
                    "home decor",
                    "kitchen appliances",
                    "gardening supplies",
                    "lawn care",
                    "smart home upgrades",
                    "bedding and bath",
                    "lighting",
                    "outdoor furniture",
                    "cleaning services",
                    "home security",
                ],
            ),
            (
                "online",
                &[
                    "frequent online shopper",
                    "marketplace shopper",
                    "subscription box buyer",
                    "flash sale shopper",
                    "coupon user",
                    "cross-border shopper",
                    "same-day delivery user",
                    "buy-online-pickup-in-store user",
                    "mobile app shopper",
                    "social commerce buyer",
                ],
            ),
            (
                "seasonal",
                &[
                    "holiday gift shopper",
                    "back-to-school shopper",
                    "black friday shopper",
                    "valentine's day shopper",
                    "halloween shopper",
                    "summer travel shopper",
                    "tax season purchaser",
                    "new year fitness purchaser",
                ],
            ),
        ];
        for (family, kinds) in purchase_families {
            // Family groups are informational only (not mutually exclusive),
            // so they are not registered as value groups.
            let _ = family;
            for kind in kinds {
                push(
                    format!("Purchase behavior: {kind}"),
                    Segment::Purchase,
                    None,
                    0.16,
                    &mut attributes,
                );
            }
        }
        // 15 + 12 + (15+12+10+8+8+12+12+10+8) = 27 + 95 = 122... plus 48 more below.
        for kind in [
            "premium brand affinity",
            "value brand affinity",
            "brand loyalist",
            "deal seeker",
            "impulse buyer",
            "research-heavy buyer",
            "gift card purchaser",
            "charitable checkout donor",
            "subscription services user",
            "streaming services payer",
            "big-box store shopper",
            "department store shopper",
            "convenience store shopper",
            "warehouse club member",
            "pharmacy shopper",
            "office supplies buyer",
            "books and media buyer",
            "musical instruments buyer",
            "art and craft supplies buyer",
            "collectibles buyer",
            "luggage buyer",
            "watch buyer",
            "sunglasses buyer",
            "handbag buyer",
            "premium chocolate buyer",
            "vitamins and supplements buyer",
            "organic personal care buyer",
            "eco-friendly products buyer",
            "small business supplies buyer",
            "party supplies buyer",
            "photography services buyer",
            "floral services buyer",
            "dry cleaning user",
            "meal kit subscriber",
            "coffee subscription user",
            "razor subscription user",
            "contact lens buyer",
            "hearing aid prospect",
            "mobility aids buyer",
            "medical alert prospect",
            "home oxygen prospect",
            "orthopedic products buyer",
            "premium mattress buyer",
            "air purifier buyer",
            "water filtration buyer",
            "solar installation prospect",
            "ev charger prospect",
            "generator buyer",
        ] {
            push(
                format!("Purchase behavior: {kind}"),
                Segment::Purchase,
                None,
                0.14,
                &mut attributes,
            );
        }

        // --- Occupation (42)
        for role in [
            "professor / educator",
            "senior management",
            "middle management",
            "small business owner",
            "healthcare professional",
            "nurse",
            "physician",
            "legal professional",
            "accountant / finance professional",
            "engineer",
            "software developer",
            "IT professional",
            "sales professional",
            "marketing professional",
            "human resources professional",
            "real estate professional",
            "construction worker",
            "skilled tradesperson",
            "manufacturing worker",
            "transportation worker",
            "truck driver",
            "retail worker",
            "food service worker",
            "hospitality worker",
            "government employee",
            "military / veteran",
            "police / fire / ems",
            "farmer / agriculture",
            "artist / designer",
            "writer / journalist",
            "scientist / researcher",
            "social worker",
            "clergy",
            "pilot / aviation",
            "pharmacist",
            "dentist",
            "veterinarian",
            "architect",
            "consultant",
            "freelancer / gig worker",
            "student (graduate)",
            "retired",
        ] {
            push(
                format!("Job role: {role}"),
                Segment::Occupation,
                Some("job_role"),
                0.05,
                &mut attributes,
            );
        }

        // --- Housing (35: 8 type + 12 value + 5 ownership + 10 profile)
        for t in [
            "single-family home",
            "townhouse",
            "condominium",
            "apartment",
            "mobile home",
            "multi-family home",
            "farm / ranch",
            "senior living",
        ] {
            push(
                format!("Home type: {t}"),
                Segment::Housing,
                Some("home_type"),
                0.13,
                &mut attributes,
            );
        }
        for band in [
            "under $100k",
            "$100k-$200k",
            "$200k-$300k",
            "$300k-$400k",
            "$400k-$500k",
            "$500k-$750k",
            "$750k-$1M",
            "$1M-$1.5M",
            "$1.5M-$2M",
            "$2M-$3M",
            "$3M-$5M",
            "$5M+",
        ] {
            push(
                format!("Home value: {band}"),
                Segment::Housing,
                Some("home_value"),
                0.08,
                &mut attributes,
            );
        }
        for o in [
            "homeowner",
            "renter",
            "first-time buyer prospect",
            "likely to move",
            "recent mover",
        ] {
            push(
                format!("Housing: {o}"),
                Segment::Housing,
                Some("ownership"),
                0.20,
                &mut attributes,
            );
        }
        for p in [
            "home built before 1960",
            "home built 1960-1990",
            "home built after 1990",
            "pool owner",
            "large lot owner",
            "vacation home owner",
            "investment property owner",
            "recently remodeled home",
            "energy-efficient home",
            "smart home equipped",
        ] {
            push(
                format!("Housing: {p}"),
                Segment::Housing,
                None,
                0.10,
                &mut attributes,
            );
        }

        // --- Automotive (60: 24 make + 14 segment + 6 timing + 16 profile)
        for make in [
            "domestic economy make",
            "domestic premium make",
            "japanese economy make",
            "japanese premium make",
            "german luxury make",
            "korean economy make",
            "electric vehicle make",
            "italian sports make",
            "british luxury make",
            "swedish safety make",
            "american truck make",
            "hybrid pioneer make",
            "budget import make",
            "premium suv make",
            "commercial van make",
            "classic muscle make",
            "off-road specialist make",
            "minivan specialist make",
            "luxury crossover make",
            "compact city make",
            "performance tuner make",
            "full-size luxury make",
            "mid-market sedan make",
            "adventure motorcycle make",
        ] {
            push(
                format!("Likely auto purchase make: {make}"),
                Segment::Automotive,
                Some("auto_make"),
                0.04,
                &mut attributes,
            );
        }
        for seg in [
            "luxury sedan",
            "economy sedan",
            "compact car",
            "mid-size sedan",
            "full-size sedan",
            "compact suv",
            "mid-size suv",
            "full-size suv",
            "pickup truck",
            "minivan",
            "sports car",
            "electric vehicle",
            "hybrid vehicle",
            "motorcycle",
        ] {
            push(
                format!("Likely auto purchase: {seg}"),
                Segment::Automotive,
                Some("auto_segment"),
                0.07,
                &mut attributes,
            );
        }
        for timing in [
            "within 3 months",
            "within 6 months",
            "within 12 months",
            "within 24 months",
            "new vehicle",
            "used vehicle",
        ] {
            push(
                format!("Likely auto purchase: {timing}"),
                Segment::Automotive,
                Some("auto_timing"),
                0.08,
                &mut attributes,
            );
        }
        for p in [
            "owns one vehicle",
            "owns two vehicles",
            "owns three or more vehicles",
            "luxury vehicle owner",
            "truck owner",
            "suv owner",
            "ev owner",
            "motorcycle owner",
            "vehicle over 10 years old",
            "recently purchased vehicle",
            "auto loan holder",
            "auto lease holder",
            "diy auto maintainer",
            "premium fuel buyer",
            "frequent car washer",
            "aftermarket parts buyer",
        ] {
            push(
                format!("Automotive: {p}"),
                Segment::Automotive,
                None,
                0.10,
                &mut attributes,
            );
        }

        // --- Travel (40)
        for t in [
            "frequent flyer",
            "frequent international traveler",
            "frequent domestic traveler",
            "business traveler",
            "luxury traveler",
            "budget traveler",
            "cruise traveler",
            "all-inclusive resort traveler",
            "adventure traveler",
            "family vacation traveler",
            "weekend getaway traveler",
            "road trip traveler",
            "camping and rv traveler",
            "ski vacation traveler",
            "beach vacation traveler",
            "theme park visitor",
            "casino visitor",
            "national parks visitor",
            "hotel loyalty member",
            "airline loyalty member",
            "vacation rental user",
            "travel package buyer",
            "last-minute booker",
            "early planner",
            "solo traveler",
            "group tour traveler",
            "eco-tourism traveler",
            "culinary tourism traveler",
            "wine country visitor",
            "golf vacation traveler",
            "spa retreat traveler",
            "timeshare owner",
            "timeshare prospect",
            "travel insurance buyer",
            "premium cabin flyer",
            "airport lounge user",
            "rental car user",
            "rideshare-to-airport user",
            "international data plan buyer",
            "travel credit card prospect",
        ] {
            push(
                format!("Travel: {t}"),
                Segment::Travel,
                None,
                0.12,
                &mut attributes,
            );
        }

        // --- Charitable (20)
        for c in [
            "education causes",
            "health causes",
            "children's causes",
            "animal welfare",
            "environmental causes",
            "religious organizations",
            "veterans causes",
            "arts and culture",
            "international relief",
            "disaster relief",
            "political causes",
            "local community causes",
            "food banks",
            "homeless services",
            "cancer research",
            "wildlife conservation",
            "human rights causes",
            "public broadcasting",
            "alumni giving",
            "high-value donor",
        ] {
            push(
                format!("Charitable giving: {c}"),
                Segment::Charitable,
                None,
                0.09,
                &mut attributes,
            );
        }

        // --- Media (40)
        for m in [
            "heavy tv viewer",
            "cord cutter",
            "streaming video subscriber",
            "premium cable subscriber",
            "sports broadcast viewer",
            "news broadcast viewer",
            "talk radio listener",
            "music streaming subscriber",
            "podcast listener",
            "audiobook listener",
            "print newspaper reader",
            "digital news subscriber",
            "magazine subscriber",
            "avid book reader",
            "video gamer (console)",
            "video gamer (pc)",
            "video gamer (mobile)",
            "esports follower",
            "social media heavy user",
            "video sharing heavy user",
            "early morning media consumer",
            "late night media consumer",
            "binge watcher",
            "reality tv viewer",
            "documentary viewer",
            "classic movies viewer",
            "premium streaming bundler",
            "live events streamer",
            "smart tv owner",
            "streaming device owner",
            "tablet-first consumer",
            "smartphone-first consumer",
            "desktop-first consumer",
            "smart speaker owner",
            "tech news follower",
            "finance news follower",
            "celebrity news follower",
            "diy content viewer",
            "cooking content viewer",
            "fitness content viewer",
        ] {
            push(
                format!("Media: {m}"),
                Segment::Media,
                None,
                0.15,
                &mut attributes,
            );
        }

        // --- Household (30)
        for h in [
            "married",
            "single",
            "new parent",
            "parent of toddler",
            "parent of school-age child",
            "parent of teenager",
            "empty nester",
            "multi-generational household",
            "single-parent household",
            "household of one",
            "household of two",
            "household of three or more",
            "recently engaged",
            "recently married",
            "expecting a child",
            "recent college graduate",
            "recent retiree",
            "caregiver for elderly parent",
            "grandparent",
            "pet household (dog)",
            "pet household (cat)",
            "new home purchaser",
            "recent job change",
            "recently relocated state",
            "military household",
            "college-bound household",
            "first-generation college household",
            "bilingual household",
            "work-from-home household",
            "high-education household",
            "dual-income household",
            "single-income household",
            "renter-to-owner transition",
            "downsizing household",
            "upsizing household",
            "urban household",
            "suburban household",
            "rural household",
            "gated community household",
            "hoa member household",
            "long commute household",
            "public transit household",
            "frequent mover",
            "long-tenure resident",
            "seasonal resident",
            "boat owner household",
            "rv owner household",
            "pool service household",
            "landscaping service household",
            "housekeeping service household",
            "childcare service household",
            "tutoring service household",
            "elder care service household",
            "home warranty holder",
            "solar panel household",
            "backup generator household",
            "well water household",
            "septic system household",
            "fireplace household",
            "home gym household",
        ] {
            push(
                format!("Household: {h}"),
                Segment::Household,
                None,
                0.11,
                &mut attributes,
            );
        }

        let mut by_name = HashMap::with_capacity(attributes.len());
        let mut groups: HashMap<&'static str, Vec<usize>> = HashMap::new();
        for (idx, attr) in attributes.iter().enumerate() {
            let prior = by_name.insert(attr.name.clone(), idx);
            assert!(prior.is_none(), "duplicate attribute name: {}", attr.name);
            if let Some(g) = attr.group {
                groups.entry(g).or_default().push(idx);
            }
        }

        let catalog = Self {
            attributes,
            by_name,
            groups,
        };
        assert_eq!(
            catalog.len(),
            US_PARTNER_ATTRIBUTE_COUNT,
            "US catalog must contain exactly {} attributes",
            US_PARTNER_ATTRIBUTE_COUNT
        );
        catalog
    }

    /// Number of attributes in the catalog.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True if the catalog is empty (never the case for [`PartnerCatalog::us`]).
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// All attributes, in stable catalog order.
    pub fn attributes(&self) -> &[PartnerAttribute] {
        &self.attributes
    }

    /// Looks up an attribute by its exact name.
    pub fn by_name(&self, name: &str) -> Option<&PartnerAttribute> {
        self.by_name.get(name).map(|&i| &self.attributes[i])
    }

    /// The member attributes of a mutually-exclusive group, in catalog
    /// order (e.g. `"net_worth"` → the nine bands).
    pub fn group(&self, group: &str) -> Vec<&PartnerAttribute> {
        self.groups
            .get(group)
            .map(|idxs| idxs.iter().map(|&i| &self.attributes[i]).collect())
            .unwrap_or_default()
    }

    /// Names of all mutually-exclusive groups, sorted.
    pub fn group_names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.groups.keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// All attributes in a segment, in catalog order.
    pub fn segment(&self, segment: Segment) -> Vec<&PartnerAttribute> {
        self.attributes
            .iter()
            .filter(|a| a.segment == segment)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_exactly_507_us_attributes() {
        let c = PartnerCatalog::us();
        assert_eq!(c.len(), 507);
        assert!(!c.is_empty());
    }

    #[test]
    fn names_are_unique() {
        let c = PartnerCatalog::us();
        let mut names = std::collections::HashSet::new();
        for a in c.attributes() {
            assert!(names.insert(&a.name), "duplicate: {}", a.name);
        }
    }

    #[test]
    fn validation_attributes_all_exist() {
        let c = PartnerCatalog::us();
        for name in VALIDATION_ATTRIBUTES {
            assert!(
                c.by_name(name).is_some(),
                "validation attribute missing from catalog: {name}"
            );
        }
    }

    #[test]
    fn net_worth_group_has_nine_bands() {
        let c = PartnerCatalog::us();
        let bands = c.group("net_worth");
        assert_eq!(bands.len(), 9);
        assert!(bands.iter().all(|a| a.segment == Segment::Financial));
        assert!(bands.iter().any(|a| a.name == "Net worth: $2M+"));
    }

    #[test]
    fn groups_are_consistent() {
        let c = PartnerCatalog::us();
        for g in c.group_names() {
            let members = c.group(g);
            assert!(members.len() >= 2, "group {g} has <2 members");
            for m in &members {
                assert_eq!(m.group, Some(g));
            }
        }
        // Specific group sizes used by the scale experiment.
        assert_eq!(c.group("home_value").len(), 12);
        assert_eq!(c.group("job_role").len(), 42);
        assert_eq!(c.group("auto_make").len(), 24);
    }

    #[test]
    fn every_segment_is_populated() {
        let c = PartnerCatalog::us();
        for seg in Segment::ALL {
            assert!(
                !c.segment(seg).is_empty(),
                "segment {seg:?} has no attributes"
            );
        }
        // Segment labels are human-readable and distinct.
        let labels: std::collections::HashSet<_> = Segment::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Segment::ALL.len());
    }

    #[test]
    fn brokers_are_all_represented() {
        let c = PartnerCatalog::us();
        for broker in BROKERS {
            assert!(
                c.attributes().iter().any(|a| a.broker == broker),
                "broker {broker} supplies nothing"
            );
        }
    }

    #[test]
    fn base_rates_are_probabilities() {
        let c = PartnerCatalog::us();
        for a in c.attributes() {
            assert!(
                a.base_rate > 0.0 && a.base_rate < 1.0,
                "{} has invalid base rate {}",
                a.name,
                a.base_rate
            );
        }
    }

    #[test]
    fn catalog_construction_is_deterministic() {
        let a = PartnerCatalog::us();
        let b = PartnerCatalog::us();
        assert_eq!(a.attributes(), b.attributes());
    }

    #[test]
    fn by_name_lookup() {
        let c = PartnerCatalog::us();
        assert!(c.by_name("Net worth: $2M+").is_some());
        assert!(c.by_name("No such attribute").is_none());
    }
}
