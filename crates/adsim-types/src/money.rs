//! Exact money arithmetic in micro-USD.
//!
//! Ad platforms bill in fractions of a cent — the paper's headline number
//! is **$0.002 per attribute revealed** (one impression at a $2 CPM bid).
//! Floating point would accumulate error across millions of simulated
//! impressions, so [`Money`] is a signed integer count of micro-dollars
//! (1 USD = 1,000,000 µ$). The CPM helpers convert between a
//! cost-per-mille price and a per-impression charge exactly.

/// An exact amount of money in micro-USD (1 USD = 1,000,000 µ$).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(pub i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// `n` whole dollars.
    pub fn dollars(n: i64) -> Money {
        Money(n * 1_000_000)
    }

    /// `n` cents.
    pub fn cents(n: i64) -> Money {
        Money(n * 10_000)
    }

    /// `n` micro-dollars (the raw unit).
    pub fn micros(n: i64) -> Money {
        Money(n)
    }

    /// The raw micro-dollar count.
    pub fn as_micros(self) -> i64 {
        self.0
    }

    /// This amount as a floating-point dollar value (for display and
    /// statistics only — never for accounting).
    pub fn as_dollars_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The per-impression price implied by this CPM (cost-per-mille)
    /// amount: CPM / 1000, rounding toward zero in micro-dollars.
    ///
    /// A $2 CPM yields $0.002 = 2,000 µ$ per impression — the paper's
    /// per-attribute reveal cost.
    pub fn cpm_per_impression(self) -> Money {
        Money(self.0 / 1_000)
    }

    /// The total cost of `n` impressions billed at this CPM.
    ///
    /// Computed as `n * cpm / 1000` with the multiplication first, so
    /// billing a thousand impressions at $2 CPM is exactly $2 with no
    /// rounding loss.
    pub fn cpm_cost_of(self, impressions: u64) -> Money {
        let total = (self.0 as i128) * (impressions as i128) / 1_000;
        Money(total as i64)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }

    /// True if this amount is strictly positive.
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }
}

impl std::ops::Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl std::ops::Mul<i64> for Money {
    type Output = Money;
    fn mul(self, rhs: i64) -> Money {
        Money(self.0 * rhs)
    }
}

impl std::iter::Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |acc, m| acc + m)
    }
}

impl std::fmt::Display for Money {
    /// Formats as dollars with enough precision for micro-dollar amounts,
    /// e.g. `$2.00`, `$0.002`, `-$0.10`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let dollars = abs / 1_000_000;
        let micros = abs % 1_000_000;
        if micros == 0 {
            write!(f, "{sign}${dollars}.00")
        } else {
            // Trim trailing zeros but keep at least 2 decimal places.
            let mut frac = format!("{micros:06}");
            while frac.len() > 2 && frac.ends_with('0') {
                frac.pop();
            }
            write!(f, "{sign}${dollars}.{frac}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_are_exact() {
        assert_eq!(Money::dollars(2).as_micros(), 2_000_000);
        assert_eq!(Money::cents(50).as_micros(), 500_000);
        assert_eq!(Money::micros(2_000).as_dollars_f64(), 0.002);
    }

    #[test]
    fn paper_cpm_figures() {
        // $2 CPM (Facebook's recommended US bid in the paper) → $0.002/imp.
        assert_eq!(Money::dollars(2).cpm_per_impression(), Money::micros(2_000));
        // The paper's elevated $10 CPM bid → $0.01/imp.
        assert_eq!(
            Money::dollars(10).cpm_per_impression(),
            Money::micros(10_000)
        );
        // 50 attributes at $2 CPM → $0.10 (the paper's 50-parameter user).
        assert_eq!(Money::dollars(2).cpm_cost_of(50), Money::cents(10));
    }

    #[test]
    fn cpm_cost_has_no_cumulative_rounding() {
        // 1000 impressions at $2 CPM is exactly $2.
        assert_eq!(Money::dollars(2).cpm_cost_of(1_000), Money::dollars(2));
        // 1,000,000 impressions at $1.999 CPM: exact via i128 intermediate.
        let cpm = Money::micros(1_999_000);
        assert_eq!(cpm.cpm_cost_of(1_000_000), Money::micros(1_999_000_000));
    }

    #[test]
    fn arithmetic() {
        let a = Money::dollars(1) + Money::cents(50);
        assert_eq!(a, Money::micros(1_500_000));
        assert_eq!(a - Money::cents(50), Money::dollars(1));
        assert_eq!(Money::cents(1) * 3, Money::micros(30_000));
        let total: Money = vec![Money::cents(10); 10].into_iter().sum();
        assert_eq!(total, Money::dollars(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Money::dollars(2).to_string(), "$2.00");
        assert_eq!(Money::micros(2_000).to_string(), "$0.002");
        assert_eq!(Money::cents(10).to_string(), "$0.10");
        assert_eq!(Money::micros(-100_000).to_string(), "-$0.10");
        assert_eq!(Money::micros(1_234_567).to_string(), "$1.234567");
    }

    #[test]
    fn saturating_add_does_not_overflow() {
        let big = Money(i64::MAX);
        assert_eq!(big.saturating_add(Money::dollars(1)), Money(i64::MAX));
    }

    #[test]
    fn is_positive() {
        assert!(Money::cents(1).is_positive());
        assert!(!Money::ZERO.is_positive());
        assert!(!Money::micros(-1).is_positive());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// CPM billing is near-additive: splitting a bill across two
        /// invocations loses at most one micro-dollar to floor division
        /// (⌊a⌋+⌊b⌋ ≤ ⌊a+b⌋ ≤ ⌊a⌋+⌊b⌋+1), and never overcharges.
        #[test]
        fn cpm_cost_is_superadditive_within_one_micro(
            cpm in 0i64..100_000_000,
            n in 0u64..1_000_000,
            m in 0u64..1_000_000,
        ) {
            let cpm = Money::micros(cpm);
            let split = cpm.cpm_cost_of(n) + cpm.cpm_cost_of(m);
            let joint = cpm.cpm_cost_of(n + m);
            let diff = joint.as_micros() - split.as_micros();
            prop_assert!((0..=1).contains(&diff), "diff {diff}");
        }

        /// One thousand impressions at any CPM cost exactly that CPM.
        #[test]
        fn thousand_impressions_cost_the_cpm(cpm in 0i64..1_000_000_000) {
            let cpm = Money::micros(cpm);
            prop_assert_eq!(cpm.cpm_cost_of(1_000), cpm);
        }

        /// Add/sub round-trips.
        #[test]
        fn add_sub_inverse(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let (a, b) = (Money::micros(a), Money::micros(b));
            prop_assert_eq!(a + b - b, a);
        }

        /// Display never panics and always starts with an optional sign
        /// and a dollar marker.
        #[test]
        fn display_shape(v in any::<i32>()) {
            let s = Money::micros(v as i64).to_string();
            prop_assert!(s.starts_with('$') || s.starts_with("-$"), "{}", s);
        }
    }
}
