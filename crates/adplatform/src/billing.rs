//! CPM billing.
//!
//! Every won impression charges the winning campaign `clearing_cpm / 1000`.
//! The ledger tracks spend per account, campaign, and ad, and enforces
//! campaign budgets.
//!
//! The **small-spend waiver** reproduces the paper's observation that its
//! validation "ads had zero cost since too few users were reached":
//! platforms do not invoice trace amounts, so campaigns whose total accrued
//! spend stays under the waiver threshold are billed $0 at invoice time.

use adsim_types::{AccountId, AdId, CampaignId, Money};
use std::collections::BTreeMap;

/// An account invoice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invoice {
    /// The invoiced account.
    pub account: AccountId,
    /// Sum of all accrued charges.
    pub gross: Money,
    /// Charges waived under the small-spend rule.
    pub waived: Money,
    /// Amount actually due (`gross - waived`).
    pub due: Money,
}

/// Read-only budget information, as seen by the eligibility check.
///
/// The live [`BillingLedger`] implements this, and so does the frozen
/// [`BudgetSnapshot`] the parallel engine hands its shards: eligibility is
/// a pure read, so the decide path never needs the mutable ledger.
pub trait BudgetView {
    /// True if a campaign with `budget` has spending room left.
    fn within_budget(&self, campaign: CampaignId, budget: Option<Money>) -> bool;
}

/// A frozen copy of per-campaign spend, taken at a tick boundary.
///
/// Shards check budgets against this snapshot while the tick's charges
/// accumulate in event batches, so every shard — and every shard *count* —
/// sees the same budget state for the same simulated tick.
#[derive(Debug, Clone, Default)]
pub struct BudgetSnapshot {
    campaign_spend: BTreeMap<CampaignId, Money>,
}

impl BudgetView for BudgetSnapshot {
    fn within_budget(&self, campaign: CampaignId, budget: Option<Money>) -> bool {
        match budget {
            None => true,
            Some(b) => {
                self.campaign_spend
                    .get(&campaign)
                    .copied()
                    .unwrap_or(Money::ZERO)
                    < b
            }
        }
    }
}

/// The platform's billing ledger.
#[derive(Debug, Clone, Default)]
pub struct BillingLedger {
    account_spend: BTreeMap<AccountId, Money>,
    campaign_spend: BTreeMap<CampaignId, Money>,
    ad_spend: BTreeMap<AdId, Money>,
    campaign_account: BTreeMap<CampaignId, AccountId>,
    /// Campaigns whose accrued spend is below this are waived at invoicing.
    pub small_spend_waiver: Money,
    // Lifetime observability counters, kept as primitives so `Default`
    // derives cleanly and reads are a plain copy.
    impressions_charged: u64,
    charged_micros: i64,
}

impl BillingLedger {
    /// A ledger with the given waiver threshold.
    pub fn new(small_spend_waiver: Money) -> Self {
        Self {
            small_spend_waiver,
            ..Self::default()
        }
    }

    /// Charges one impression at the given clearing CPM.
    pub fn charge_impression(
        &mut self,
        account: AccountId,
        campaign: CampaignId,
        ad: AdId,
        clearing_cpm: Money,
    ) -> Money {
        let price = clearing_cpm.cpm_per_impression();
        self.charge_total(account, campaign, ad, 1, price);
        price
    }

    /// Charges `impressions` impressions of `ad` costing `amount` in all:
    /// the state charging each of them in turn leaves, since every field
    /// is a sum or the campaign's account.
    pub(crate) fn charge_total(
        &mut self,
        account: AccountId,
        campaign: CampaignId,
        ad: AdId,
        impressions: u64,
        amount: Money,
    ) {
        *self.account_spend.entry(account).or_default() += amount;
        *self.campaign_spend.entry(campaign).or_default() += amount;
        *self.ad_spend.entry(ad).or_default() += amount;
        self.campaign_account.insert(campaign, account);
        self.impressions_charged += impressions;
        self.charged_micros += amount.as_micros();
    }

    /// Lifetime count of impressions this ledger has charged.
    pub fn impressions_charged(&self) -> u64 {
        self.impressions_charged
    }

    /// Lifetime sum of every charge (before waivers).
    pub fn total_charged(&self) -> Money {
        Money::micros(self.charged_micros)
    }

    /// Accrued spend of a campaign.
    pub fn campaign_spend(&self, campaign: CampaignId) -> Money {
        self.campaign_spend
            .get(&campaign)
            .copied()
            .unwrap_or(Money::ZERO)
    }

    /// Accrued spend of an ad.
    pub fn ad_spend(&self, ad: AdId) -> Money {
        self.ad_spend.get(&ad).copied().unwrap_or(Money::ZERO)
    }

    /// Accrued spend of an account.
    pub fn account_spend(&self, account: AccountId) -> Money {
        self.account_spend
            .get(&account)
            .copied()
            .unwrap_or(Money::ZERO)
    }

    /// The account a campaign has billed against, if it has billed at
    /// all (the link is recorded on first charge).
    pub fn campaign_account(&self, campaign: CampaignId) -> Option<AccountId> {
        self.campaign_account.get(&campaign).copied()
    }

    /// True if a campaign with `budget` has spending room left.
    pub fn within_budget(&self, campaign: CampaignId, budget: Option<Money>) -> bool {
        match budget {
            None => true,
            Some(b) => self.campaign_spend(campaign) < b,
        }
    }

    /// Freezes the current per-campaign spend into a [`BudgetSnapshot`].
    pub fn budget_snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            campaign_spend: self.campaign_spend.clone(),
        }
    }

    /// Exports the full ledger state for checkpointing.
    ///
    /// Every map is flattened to a sorted `Vec` so the encoding is
    /// canonical: two ledgers that compare equal export byte-identical
    /// state regardless of insertion history.
    pub fn export_state(&self) -> LedgerState {
        LedgerState {
            account_spend: self.account_spend.iter().map(|(k, v)| (*k, *v)).collect(),
            campaign_spend: self.campaign_spend.iter().map(|(k, v)| (*k, *v)).collect(),
            ad_spend: self.ad_spend.iter().map(|(k, v)| (*k, *v)).collect(),
            campaign_account: self
                .campaign_account
                .iter()
                .map(|(k, v)| (*k, *v))
                .collect(),
            small_spend_waiver: self.small_spend_waiver,
            impressions_charged: self.impressions_charged,
            charged_micros: self.charged_micros,
        }
    }

    /// Replaces this ledger's contents with a state exported by
    /// [`BillingLedger::export_state`].
    pub fn restore_state(&mut self, state: &LedgerState) {
        self.account_spend = state.account_spend.iter().copied().collect();
        self.campaign_spend = state.campaign_spend.iter().copied().collect();
        self.ad_spend = state.ad_spend.iter().copied().collect();
        self.campaign_account = state.campaign_account.iter().copied().collect();
        self.small_spend_waiver = state.small_spend_waiver;
        self.impressions_charged = state.impressions_charged;
        self.charged_micros = state.charged_micros;
    }

    /// Produces the account's invoice, applying the small-spend waiver per
    /// campaign.
    pub fn invoice(&self, account: AccountId) -> Invoice {
        let mut gross = Money::ZERO;
        let mut waived = Money::ZERO;
        for (&campaign, &spend) in &self.campaign_spend {
            if self.campaign_account.get(&campaign) != Some(&account) {
                continue;
            }
            gross += spend;
            if spend < self.small_spend_waiver {
                waived += spend;
            }
        }
        Invoice {
            account,
            gross,
            waived,
            due: gross - waived,
        }
    }
}

/// A flattened, canonical copy of a [`BillingLedger`], as stored in an
/// engine checkpoint.
///
/// All maps are exported as `Vec`s sorted by key (the source maps are
/// `BTreeMap`s, so iteration order is already canonical).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerState {
    /// Accrued spend per account, sorted by account id.
    pub account_spend: Vec<(AccountId, Money)>,
    /// Accrued spend per campaign, sorted by campaign id.
    pub campaign_spend: Vec<(CampaignId, Money)>,
    /// Accrued spend per ad, sorted by ad id.
    pub ad_spend: Vec<(AdId, Money)>,
    /// Campaign → owning account, sorted by campaign id.
    pub campaign_account: Vec<(CampaignId, AccountId)>,
    /// The waiver threshold in force when the checkpoint was taken.
    pub small_spend_waiver: Money,
    /// Lifetime impressions charged.
    pub impressions_charged: u64,
    /// Lifetime charged micro-dollars.
    pub charged_micros: i64,
}

impl BudgetView for BillingLedger {
    fn within_budget(&self, campaign: CampaignId, budget: Option<Money>) -> bool {
        BillingLedger::within_budget(self, campaign, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accrue_at_cpm_over_1000() {
        let mut ledger = BillingLedger::new(Money::cents(1));
        let price =
            ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(2));
        assert_eq!(price, Money::micros(2_000)); // $0.002
        assert_eq!(ledger.ad_spend(AdId(1)), Money::micros(2_000));
        assert_eq!(ledger.campaign_spend(CampaignId(1)), Money::micros(2_000));
        assert_eq!(ledger.account_spend(AccountId(1)), Money::micros(2_000));
        assert_eq!(ledger.impressions_charged(), 1);
        assert_eq!(ledger.total_charged(), Money::micros(2_000));
    }

    #[test]
    fn lifetime_counters_span_accounts_and_campaigns() {
        let mut ledger = BillingLedger::new(Money::ZERO);
        ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(2));
        ledger.charge_impression(AccountId(2), CampaignId(2), AdId(2), Money::dollars(4));
        assert_eq!(ledger.impressions_charged(), 2);
        assert_eq!(ledger.total_charged(), Money::micros(6_000));
    }

    #[test]
    fn budget_enforcement() {
        let mut ledger = BillingLedger::new(Money::ZERO);
        assert!(ledger.within_budget(CampaignId(1), Some(Money::cents(1))));
        assert!(ledger.within_budget(CampaignId(1), None));
        // Spend 10 impressions at $1 CPM = $0.01 total.
        for _ in 0..10 {
            ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(1));
        }
        assert!(!ledger.within_budget(CampaignId(1), Some(Money::cents(1))));
        assert!(ledger.within_budget(CampaignId(1), Some(Money::cents(2))));
    }

    #[test]
    fn small_spend_waiver_zeroes_validation_scale_campaigns() {
        // The paper's validation: a handful of impressions to 2 users at
        // $10 CPM accrues ~cents, which the platform never invoices.
        let mut ledger = BillingLedger::new(Money::cents(5));
        for _ in 0..3 {
            ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(10));
        }
        let invoice = ledger.invoice(AccountId(1));
        assert_eq!(invoice.gross, Money::cents(3));
        assert_eq!(invoice.waived, Money::cents(3));
        assert_eq!(invoice.due, Money::ZERO);
    }

    #[test]
    fn large_campaigns_are_invoiced_in_full() {
        let mut ledger = BillingLedger::new(Money::cents(5));
        for _ in 0..1_000 {
            ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(2));
        }
        let invoice = ledger.invoice(AccountId(1));
        assert_eq!(invoice.gross, Money::dollars(2));
        assert_eq!(invoice.waived, Money::ZERO);
        assert_eq!(invoice.due, Money::dollars(2));
    }

    #[test]
    fn invoices_are_per_account() {
        let mut ledger = BillingLedger::new(Money::ZERO);
        ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(1));
        ledger.charge_impression(AccountId(2), CampaignId(2), AdId(2), Money::dollars(1));
        assert_eq!(ledger.invoice(AccountId(1)).gross, Money::micros(1_000));
        assert_eq!(ledger.invoice(AccountId(2)).gross, Money::micros(1_000));
        // An account with no activity owes nothing.
        let empty = ledger.invoice(AccountId(3));
        assert_eq!(empty.due, Money::ZERO);
        assert_eq!(empty.gross, Money::ZERO);
    }

    #[test]
    fn snapshot_agrees_with_ledger_until_later_charges() {
        let mut ledger = BillingLedger::new(Money::ZERO);
        for _ in 0..5 {
            ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(1));
        }
        let snap = ledger.budget_snapshot();
        let budget = Some(Money::micros(6_000));
        assert_eq!(
            BudgetView::within_budget(&snap, CampaignId(1), budget),
            ledger.within_budget(CampaignId(1), budget)
        );
        assert!(snap.within_budget(CampaignId(2), budget)); // unseen campaign
        assert!(snap.within_budget(CampaignId(1), None));
        // Charges after the snapshot do not move it.
        ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(1));
        assert!(!ledger.within_budget(CampaignId(1), budget));
        assert!(BudgetView::within_budget(&snap, CampaignId(1), budget));
    }

    #[test]
    fn mixed_waiver_per_campaign() {
        let mut ledger = BillingLedger::new(Money::cents(5));
        // Campaign 1: big spender. Campaign 2: trace spend.
        for _ in 0..100 {
            ledger.charge_impression(AccountId(1), CampaignId(1), AdId(1), Money::dollars(2));
        }
        ledger.charge_impression(AccountId(1), CampaignId(2), AdId(2), Money::dollars(2));
        let invoice = ledger.invoice(AccountId(1));
        assert_eq!(invoice.gross, Money::cents(20) + Money::micros(2_000));
        assert_eq!(invoice.waived, Money::micros(2_000));
        assert_eq!(invoice.due, Money::cents(20));
    }
}
