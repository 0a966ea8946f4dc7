//! Integration test: fault injection, crash recovery, and
//! checkpoint/resume leave the simulation byte-identical.
//!
//! The resilience contract (DESIGN.md "Failure model & recovery") has
//! three clauses, each tested here against the fault-free oracle:
//!
//! 1. **Recoverable chaos is invisible.** Any seeded [`FaultPlan`] whose
//!    crashes stay within the supervisor's retry budget — plus any mix of
//!    duplicated and delayed batches — produces identical invoices, ad
//!    reports, impression logs, and decoded Tread sets, at 1, 2, and 8
//!    shards (chaos property test).
//! 2. **Checkpoint/resume is invisible.** Serializing a tick-boundary
//!    checkpoint, decoding it, and resuming on a freshly built host
//!    produces the identical outputs — including the *later* checkpoints,
//!    byte for byte.
//! 3. **Unrecoverable faults degrade with exact accounting.** A crash
//!    beyond the retry budget loses exactly the work the fault report
//!    itemizes: oracle counts = degraded counts + lost counts.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use treads_repro::adplatform::billing::Invoice;
use treads_repro::adplatform::compiled::EvalMode;
use treads_repro::adplatform::reporting::{AdReport, Impression};
use treads_repro::adsim_types::UserId;
use treads_repro::engine::resilience::{fold_frames, CheckpointFrame};
use treads_repro::engine::{
    Engine, EngineCheckpoint, EngineConfig, EngineReport, FaultPlan, FaultReport,
    ResilienceOptions, DAY_MS,
};
use treads_repro::serving::{
    OpportunityRequest, RejectReason, Response, ServingConfig, ServingEngine, ServingReport, Ticket,
};
use treads_repro::telemetry::Telemetry;
use treads_repro::treads::encoding::Encoding;
use treads_repro::treads::planner::CampaignPlan;
use treads_repro::treads::TreadClient;
use treads_repro::websim::{ArrivalSchedule, ExtensionLog, SessionConfig, SiteRegistry};
use treads_repro::workload::CohortScenario;

const SEED: u64 = 31;
const DAYS: u64 = 5;

/// Every output the resilience contract covers.
#[derive(Debug, PartialEq)]
struct RunOutput {
    invoices: Vec<Invoice>,
    reports: Vec<AdReport>,
    reveals: BTreeMap<UserId, BTreeSet<String>>,
    log: Vec<Impression>,
    report: EngineReport,
    faults: FaultReport,
    checkpoint_bytes: Vec<Vec<u8>>,
    /// The TRCK frame chain `checkpoint_bytes` encodes.
    frames: Vec<CheckpointFrame>,
}

/// How a run starts: cold, resumed from a decoded full checkpoint, or
/// resumed from a prefix of a base+delta frame chain.
enum Resume<'a> {
    Cold,
    Checkpoint(&'a EngineCheckpoint),
    Frames(&'a [CheckpointFrame]),
}

/// One full supervised engine run, built from scratch (scenario setup is
/// itself seed-deterministic). With `resume` the engine continues a
/// checkpointed run on the freshly built host instead of starting cold.
fn run(shards: usize, options: &ResilienceOptions, resume: Resume) -> RunOutput {
    run_with_eval(shards, EvalMode::Compiled, options, resume)
}

/// [`run`], with the targeting evaluation mode set explicitly — the
/// checkpoint codec carries the symbol table and facet sidecars, so a
/// resumed run must behave identically whichever evaluator is active.
fn run_with_eval(
    shards: usize,
    eval: EvalMode,
    options: &ResilienceOptions,
    resume: Resume,
) -> RunOutput {
    run_host(shards, eval, false, options, resume)
}

/// [`run_with_eval`], optionally adding a third site that embeds the
/// cohort's opt-in pixel and carries no ad slot: every user who browses
/// it joins the opt-in audience, so the audience grows during the run.
fn run_host(
    shards: usize,
    eval: EvalMode,
    optin_site: bool,
    options: &ResilienceOptions,
    resume: Resume,
) -> RunOutput {
    let mut s = CohortScenario::setup(SEED, 60, 30);
    let names: Vec<String> = s
        .platform
        .attributes
        .partner_attributes()
        .iter()
        .take(12)
        .map(|d| d.name.clone())
        .collect();
    let plan = CampaignPlan::binary_in_ad("chaos", &names, Encoding::CodebookToken);
    let receipt = s
        .provider
        .run_plan(&mut s.platform, &plan, s.optin_audience)
        .expect("plan runs");

    s.platform.campaigns.set_eval_mode(eval);

    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    sites.create("news.example", 1);
    if optin_site {
        let site = sites.create("optin.example", 0);
        sites.embed_pixel(site, s.optin_pixel);
    }

    let engine = Engine::new(EngineConfig {
        shards,
        session: SessionConfig {
            views_per_user_per_day: 6.0,
            days: DAYS,
        },
        seed: SEED,
        ..EngineConfig::default()
    });
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let resilient = match resume {
        Resume::Cold => engine
            .run_resilient(&mut s.platform, &sites, &s.users, &extension_users, options)
            .expect("supervised run completes"),
        Resume::Checkpoint(cp) => engine
            .resume_from(
                &mut s.platform,
                &sites,
                &s.users,
                &extension_users,
                options,
                cp,
            )
            .expect("resume completes"),
        Resume::Frames(frames) => engine
            .resume_from_frames(
                &mut s.platform,
                &sites,
                &s.users,
                &extension_users,
                options,
                frames,
            )
            .expect("delta resume completes"),
    };

    let invoices = s
        .provider
        .accounts
        .iter()
        .map(|&a| s.platform.invoice(a))
        .collect();
    let reports = receipt
        .placed
        .iter()
        .filter(|p| p.approved)
        .map(|p| {
            s.platform
                .ad_report(receipt.account, p.ad)
                .expect("placed ad reports")
        })
        .collect();
    let client = TreadClient::new(s.provider.codebook.clone(), &s.platform.attributes);
    let reveals = resilient
        .outcome
        .extensions
        .iter()
        .map(|(&u, log)| (u, client.decode_log(log, |_| None).has))
        .collect();
    RunOutput {
        invoices,
        reports,
        reveals,
        log: s.platform.log.all().to_vec(),
        report: resilient.outcome.report,
        faults: resilient.faults,
        checkpoint_bytes: resilient
            .frames
            .iter()
            .map(CheckpointFrame::to_bytes)
            .collect(),
        frames: resilient.frames,
    }
}

/// Fault-free oracle at a given shard count.
fn oracle(shards: usize) -> RunOutput {
    run(shards, &ResilienceOptions::default(), Resume::Cold)
}

/// Asserts the simulation-visible outputs of `a` and `b` are identical
/// (fault accounting aside, which legitimately differs).
fn assert_same_simulation(a: &RunOutput, b: &RunOutput, context: &str) {
    assert_eq!(a.invoices, b.invoices, "invoices differ: {context}");
    assert_eq!(a.reports, b.reports, "ad reports differ: {context}");
    assert_eq!(a.reveals, b.reveals, "decoded Treads differ: {context}");
    assert_eq!(a.log, b.log, "impression logs differ: {context}");
    assert_eq!(a.report, b.report, "engine reports differ: {context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Delta chains under chaos: with any recoverable fault plan and any
    /// base cadence, the delta-mode run's frame chain folds — at *every*
    /// prefix — to a checkpoint byte-identical to the one the full-mode
    /// run took at the same tick, at 1, 2, and 8 shards. The digest check
    /// inside [`fold_frames`] makes this also a proof that the dirty-set
    /// bookkeeping missed no mutated slot.
    #[test]
    fn delta_chains_fold_byte_identical_under_chaos(
        fault_seed in 0u64..1000,
        delta_base in 2u64..5,
    ) {
        for shards in [1usize, 2, 8] {
            let plan = FaultPlan::random_recoverable(fault_seed, DAYS, shards, 3);
            let full_options = ResilienceOptions {
                faults: plan,
                max_retries_per_shard_tick: 3,
                checkpoint_every_ticks: 1,
                delta_base_every: 0,
            };
            let delta_options = ResilienceOptions {
                delta_base_every: delta_base,
                ..full_options.clone()
            };
            let full = run(shards, &full_options, Resume::Cold);
            let delta = run(shards, &delta_options, Resume::Cold);
            assert_same_simulation(
                &full,
                &delta,
                &format!("full vs delta cadence, fault seed {fault_seed}, {shards} shards"),
            );
            prop_assert_eq!(delta.frames.len(), full.checkpoint_bytes.len());
            for i in 0..delta.frames.len() {
                let folded = fold_frames(&delta.frames[..=i]).expect("frame chain folds");
                prop_assert_eq!(
                    folded.to_bytes(),
                    full.checkpoint_bytes[i].clone(),
                    "prefix {} of {} (base every {}, {} shards)",
                    i,
                    delta.frames.len(),
                    delta_base,
                    shards
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Clause 1: any recoverable fault plan, at any shard count, is
    /// byte-identical to fault-free.
    #[test]
    fn recoverable_chaos_is_byte_identical(fault_seed in 0u64..1000) {
        for shards in [1usize, 2, 8] {
            let clean = oracle(shards);
            let plan = FaultPlan::random_recoverable(fault_seed, DAYS, shards, 3);
            let options = ResilienceOptions {
                faults: plan,
                max_retries_per_shard_tick: 3,
                checkpoint_every_ticks: 0,
                delta_base_every: 0,
            };
            let chaotic = run(shards, &options, Resume::Cold);
            prop_assert_eq!(chaotic.faults.unrecoverable, 0);
            prop_assert!(chaotic.faults.lost.is_empty());
            assert_same_simulation(
                &clean,
                &chaotic,
                &format!("fault seed {fault_seed}, {shards} shards"),
            );
            // The same chaos replays exactly, accounting included.
            let replay = run(shards, &options, Resume::Cold);
            prop_assert_eq!(&replay.faults, &chaotic.faults);
            assert_same_simulation(&chaotic, &replay, "chaos replay");
        }
    }
}

#[test]
fn targeted_faults_recover_at_every_shard_count() {
    // A hand-built plan exercising all three engine faults at once, placed
    // where a 5-tick run is sure to hit them.
    for shards in [1usize, 2, 8] {
        let clean = oracle(shards);
        let plan = FaultPlan::new()
            .crash_shard(1, 0, 2)
            .duplicate_batch(2, 0)
            .delay_batch(3, shards.saturating_sub(1));
        let options = ResilienceOptions {
            faults: plan,
            max_retries_per_shard_tick: 3,
            checkpoint_every_ticks: 0,
            delta_base_every: 0,
        };
        let chaotic = run(shards, &options, Resume::Cold);
        assert!(chaotic.faults.injected > 0, "faults were actually injected");
        assert_eq!(chaotic.faults.unrecoverable, 0);
        assert_same_simulation(
            &clean,
            &chaotic,
            &format!("targeted faults, {shards} shards"),
        );
    }
}

#[test]
fn checkpoint_resume_round_trip_is_byte_identical() {
    let options = ResilienceOptions {
        faults: FaultPlan::new(),
        max_retries_per_shard_tick: 3,
        checkpoint_every_ticks: 2,
        delta_base_every: 0,
    };
    for shards in [1usize, 2, 8] {
        let full = run(shards, &options, Resume::Cold);
        // 5 ticks at a 2-tick cadence: checkpoints after ticks 2 and 4.
        assert_eq!(full.checkpoint_bytes.len(), 2);

        // Serialize → decode → resume on a freshly built host.
        let decoded = EngineCheckpoint::from_bytes(&full.checkpoint_bytes[0]).expect("decodes");
        assert_eq!(
            decoded.to_bytes(),
            full.checkpoint_bytes[0],
            "checkpoint re-encode is canonical"
        );
        let resumed = run(shards, &options, Resume::Checkpoint(&decoded));
        assert_same_simulation(&full, &resumed, &format!("resume at {shards} shards"));
        // The resumed run retakes the *later* checkpoint, byte for byte.
        assert_eq!(
            resumed.checkpoint_bytes,
            full.checkpoint_bytes[1..].to_vec()
        );
    }

    // A mismatched host is rejected before anything mutates.
    let decoded = {
        let full = run(2, &options, Resume::Cold);
        EngineCheckpoint::from_bytes(&full.checkpoint_bytes[0]).expect("decodes")
    };
    let mut s = CohortScenario::setup(SEED, 60, 30);
    let wrong_engine = Engine::new(EngineConfig {
        shards: 4, // checkpoint was taken at 2 shards
        session: SessionConfig {
            views_per_user_per_day: 6.0,
            days: DAYS,
        },
        seed: SEED,
        ..EngineConfig::default()
    });
    let sites = SiteRegistry::new();
    let err = wrong_engine
        .resume_from(
            &mut s.platform,
            &sites,
            &s.users,
            &BTreeSet::new(),
            &options,
            &decoded,
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("does not match"),
        "unexpected resume error: {err}"
    );
}

#[test]
fn compiled_resume_matches_tree_and_compiled_full_runs() {
    // The v2 checkpoint sections (symbol table, facet sidecars) must hand a
    // resumed host everything compiled evaluation depends on: a run that
    // checkpoints mid-flight with compiled targeting explicitly enabled and
    // resumes on a fresh host is byte-identical to the uninterrupted run —
    // and to the tree-oracle run, closing the loop across both axes.
    let options = ResilienceOptions {
        faults: FaultPlan::new(),
        max_retries_per_shard_tick: 3,
        checkpoint_every_ticks: 2,
        delta_base_every: 0,
    };
    for shards in [1usize, 2] {
        let tree = run_with_eval(shards, EvalMode::Tree, &options, Resume::Cold);
        let compiled = run_with_eval(shards, EvalMode::Compiled, &options, Resume::Cold);
        assert_same_simulation(
            &tree,
            &compiled,
            &format!("tree vs compiled full runs, {shards} shards"),
        );
        assert_eq!(
            tree.checkpoint_bytes, compiled.checkpoint_bytes,
            "checkpoints must not encode the evaluation mode ({shards} shards)"
        );

        let decoded = EngineCheckpoint::from_bytes(&compiled.checkpoint_bytes[0]).expect("decodes");
        let resumed = run_with_eval(
            shards,
            EvalMode::Compiled,
            &options,
            Resume::Checkpoint(&decoded),
        );
        assert_same_simulation(
            &compiled,
            &resumed,
            &format!("compiled resume, {shards} shards"),
        );
        assert_eq!(
            resumed.checkpoint_bytes,
            compiled.checkpoint_bytes[1..].to_vec(),
            "resumed run retakes later checkpoints byte-for-byte ({shards} shards)"
        );
    }
}

/// Durable outputs of one serving run over the chaos scenario.
struct ServingRun {
    invoices: Vec<Invoice>,
    log: Vec<Impression>,
    extensions: BTreeMap<UserId, ExtensionLog>,
    report: ServingReport,
    faults: FaultReport,
    responses: Vec<Response>,
}

/// One serving run over the same scenario family as [`run`], offering the
/// engine's own session stream request-by-request under `options.faults`.
fn serving_run(shards: usize, options: &ResilienceOptions) -> ServingRun {
    const SERVING_DAYS: u64 = 2;
    let mut s = CohortScenario::setup(SEED, 40, 20);
    let names: Vec<String> = s
        .platform
        .attributes
        .partner_attributes()
        .iter()
        .take(12)
        .map(|d| d.name.clone())
        .collect();
    let plan = CampaignPlan::binary_in_ad("chaos", &names, Encoding::CodebookToken);
    s.provider
        .run_plan(&mut s.platform, &plan, s.optin_audience)
        .expect("plan runs");

    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    sites.create("news.example", 1);
    let session = SessionConfig {
        views_per_user_per_day: 6.0,
        days: SERVING_DAYS,
    };
    let arrivals = ArrivalSchedule::from_sessions(&s.users, &sites.ids(), &session, SEED);

    let engine = ServingEngine::new(ServingConfig {
        shards,
        tick_ms: DAY_MS,
        horizon_ms: SERVING_DAYS * DAY_MS,
        seed: SEED,
        queue_watermark: u64::MAX,
        ..ServingConfig::default()
    });
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let mut telemetry = Telemetry::disabled();
    let (outcome, responses) = engine.serve_with_telemetry(
        &mut s.platform,
        &sites,
        &extension_users,
        options,
        &mut telemetry,
        |frontend| {
            let tickets: Vec<_> = arrivals
                .arrivals()
                .iter()
                .map(|a| {
                    frontend.submit(OpportunityRequest {
                        user: a.user,
                        site: a.site,
                        at: a.at,
                    })
                })
                .collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        },
    );
    ServingRun {
        invoices: s
            .provider
            .accounts
            .iter()
            .map(|&a| s.platform.invoice(a))
            .collect(),
        log: s.platform.log.all().to_vec(),
        extensions: outcome.extensions,
        report: outcome.report,
        faults: outcome.faults,
        responses,
    }
}

#[test]
fn serving_tick_under_shard_crash_degrades_instead_of_panicking() {
    let clean = serving_run(2, &ResilienceOptions::default());
    assert_eq!(clean.report.shed, 0, "fault-free serving sheds nothing");
    assert!(clean.report.impressions > 0);

    // A crash within the retry budget is invisible: the worker restores
    // its batch-start state after each failing attempt and every durable
    // output is byte-identical to the fault-free run.
    let recoverable = serving_run(
        2,
        &ResilienceOptions {
            faults: FaultPlan::new().crash_shard(0, 0, 2),
            max_retries_per_shard_tick: 3,
            checkpoint_every_ticks: 0,
            delta_base_every: 0,
        },
    );
    assert_eq!(recoverable.faults.injected, 2);
    assert_eq!(recoverable.faults.recovered, 1);
    assert_eq!(recoverable.faults.unrecoverable, 0);
    assert_eq!(recoverable.report.shed, 0);
    assert_eq!(
        clean.invoices, recoverable.invoices,
        "recovery is invisible"
    );
    assert_eq!(clean.log, recoverable.log);
    assert_eq!(clean.extensions, recoverable.extensions);

    // A crash beyond the budget degrades: the shard's tick sheds with
    // retry-after hints, the loss is itemized, the run keeps serving.
    let degraded = serving_run(
        2,
        &ResilienceOptions {
            faults: FaultPlan::new().crash_shard(0, 0, 10),
            max_retries_per_shard_tick: 2,
            checkpoint_every_ticks: 0,
            delta_base_every: 0,
        },
    );
    assert_eq!(degraded.faults.injected, 3, "budget + 1 failing attempts");
    assert_eq!(degraded.faults.unrecoverable, 1);
    assert!(
        degraded.report.shed_failure > 0,
        "the dead tick shed requests"
    );
    assert_eq!(degraded.report.shed, degraded.report.shed_failure);
    let failures: Vec<_> = degraded
        .responses
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Rejected {
                    reason: RejectReason::ShardFailure,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(failures.len() as u64, degraded.report.shed_failure);
    assert!(
        failures.iter().all(|r| match r {
            Response::Rejected { retry_after_ms, .. } => *retry_after_ms > 0,
            Response::Served(_) => false,
        }),
        "degraded responses carry a retry hint"
    );
    // Exact loss accounting, serving flavour: the lost work is itemized
    // against the crashed (tick, shard) and covers every shed page view.
    let lost_views: u64 = degraded.faults.lost.iter().map(|l| l.page_views).sum();
    assert!(degraded
        .faults
        .lost
        .iter()
        .all(|l| (l.tick, l.shard) == (0, 0)));
    assert_eq!(lost_views, degraded.report.shed_failure);
    // Shed requests are never billed: the log holds exactly the ads on
    // served pages, and the run completed every tick regardless.
    let served_ads: u64 = degraded
        .responses
        .iter()
        .filter_map(|r| r.page())
        .map(|p| p.ads.len() as u64)
        .sum();
    assert_eq!(degraded.log.len() as u64, served_ads);
    assert_eq!(degraded.report.ticks, clean.report.ticks);
    // Fewer page views were auctioned; budget-limited delivery may catch
    // up in later ticks, but the run cannot out-deliver the oracle and its
    // actual impression log visibly diverged.
    assert!(degraded.report.opportunities < clean.report.opportunities);
    assert!(degraded.report.impressions <= clean.report.impressions);
    assert_ne!(degraded.log, clean.log);
}

#[test]
fn delta_resume_from_base_plus_two_deltas_is_byte_identical() {
    // The CI chaos-smoke case: checkpoint every tick with a delta chain
    // (full base every 8th frame → one base + four deltas over the 5-day
    // run), hand a fresh host only the base and the first two deltas, and
    // finish the run. Every simulation-visible output must be identical,
    // and the frames the resumed run takes must fold to the same final
    // state, at 1, 2, and 8 shards.
    let options = ResilienceOptions {
        faults: FaultPlan::new(),
        max_retries_per_shard_tick: 3,
        checkpoint_every_ticks: 1,
        delta_base_every: 8,
    };
    for shards in [1usize, 2, 8] {
        let uninterrupted = run(shards, &options, Resume::Cold);
        assert_eq!(uninterrupted.frames.len() as u64, DAYS);
        assert!(
            matches!(uninterrupted.frames[0], CheckpointFrame::Full(_)),
            "chain starts with a full base frame"
        );
        assert!(
            uninterrupted.frames[1..]
                .iter()
                .all(|f| matches!(f, CheckpointFrame::Delta(_))),
            "every later frame is a delta"
        );

        let resumed = run(shards, &options, Resume::Frames(&uninterrupted.frames[..3]));
        assert_same_simulation(
            &uninterrupted,
            &resumed,
            &format!("resume from base+2 deltas, {shards} shards"),
        );
        // The resumed run restarts its own chain (its first frame is a
        // fresh base), but both chains must fold to the same final state.
        let final_full = fold_frames(&uninterrupted.frames).expect("uninterrupted chain folds");
        let resumed_full = fold_frames(&resumed.frames).expect("resumed chain folds");
        assert_eq!(
            resumed_full.to_bytes(),
            final_full.to_bytes(),
            "final folded state is byte-identical ({shards} shards)"
        );
    }
}

#[test]
fn audience_growth_between_frames_folds_and_resumes_byte_identical() {
    // A site embedding the opt-in pixel grows the opt-in audience on every
    // tick a new user browses it, so delta frames carry audience adds.
    // Every prefix of the every-tick delta chain folds to the all-base
    // run's frame at that tick, and a resume from the base and two deltas
    // equals the uninterrupted run, at 1, 2 and 8 shards.
    let delta = ResilienceOptions {
        checkpoint_every_ticks: 1,
        delta_base_every: 8,
        ..ResilienceOptions::default()
    };
    let all_base = ResilienceOptions {
        checkpoint_every_ticks: 1,
        delta_base_every: 1,
        ..ResilienceOptions::default()
    };
    for shards in [1usize, 2, 8] {
        let chain = run_host(shards, EvalMode::Compiled, true, &delta, Resume::Cold);
        assert!(
            chain.frames.iter().any(|f| matches!(
                f,
                CheckpointFrame::Delta(d) if !d.audience_adds.is_empty()
            )),
            "some delta carries audience adds ({shards} shards)"
        );
        let bases = run_host(shards, EvalMode::Compiled, true, &all_base, Resume::Cold);
        assert_same_simulation(
            &chain,
            &bases,
            &format!("delta vs all-base, {shards} shards"),
        );
        assert_eq!(chain.frames.len(), bases.checkpoint_bytes.len());
        for (i, bytes) in bases.checkpoint_bytes.iter().enumerate() {
            let folded = fold_frames(&chain.frames[..=i]).expect("frame chain folds");
            assert_eq!(&folded.to_bytes(), bytes, "frame {i} ({shards} shards)");
        }
        let resumed = run_host(
            shards,
            EvalMode::Compiled,
            true,
            &delta,
            Resume::Frames(&chain.frames[..3]),
        );
        assert_same_simulation(
            &chain,
            &resumed,
            &format!("resume from base+2 deltas, {shards} shards"),
        );
    }
}

#[test]
fn all_base_cadences_emit_identical_full_frames() {
    // `delta_base_every` 0 and 1 both make every frame a full base: an
    // every-tick cadence yields one frame per day under either, the two
    // chains are byte-identical, and each frame is the checkpoint its
    // chain prefix folds to.
    for shards in [1usize, 2, 8] {
        let [zero, one] = [0, 1].map(|delta_base_every| {
            let options = ResilienceOptions {
                checkpoint_every_ticks: 1,
                delta_base_every,
                ..ResilienceOptions::default()
            };
            run(shards, &options, Resume::Cold)
        });
        assert_same_simulation(&zero, &one, &format!("base every 0 vs 1, {shards} shards"));
        for out in [&zero, &one] {
            assert_eq!(out.frames.len() as u64, DAYS, "{shards} shards");
            assert!(
                out.frames
                    .iter()
                    .all(|f| matches!(f, CheckpointFrame::Full(_))),
                "every frame is a base ({shards} shards)"
            );
        }
        assert_eq!(
            zero.checkpoint_bytes, one.checkpoint_bytes,
            "frames are byte-identical ({shards} shards)"
        );
        for (i, bytes) in zero.checkpoint_bytes.iter().enumerate() {
            let folded = fold_frames(&zero.frames[..=i]).expect("frame chain folds");
            assert_eq!(&folded.to_bytes(), bytes, "frame {i} ({shards} shards)");
        }
    }
}

#[test]
fn unrecoverable_crash_degrades_with_exact_accounting() {
    for shards in [2usize, 8] {
        let clean = oracle(shards);
        // Shard 0 crashes on tick 1 more times than the budget allows.
        let options = ResilienceOptions {
            faults: FaultPlan::new().crash_shard(1, 0, 10),
            max_retries_per_shard_tick: 2,
            checkpoint_every_ticks: 0,
            delta_base_every: 0,
        };
        let degraded = run(shards, &options, Resume::Cold);
        assert_eq!(degraded.faults.unrecoverable, 1);
        assert_eq!(degraded.faults.lost.len(), 1);
        let lost = &degraded.faults.lost[0];
        assert_eq!((lost.tick, lost.shard), (1, 0));
        assert!(lost.page_views > 0, "the lost tick had real work");
        // Exact accounting: nothing vanishes untracked.
        assert_eq!(
            degraded.report.page_views + lost.page_views,
            clean.report.page_views,
            "page views: degraded + lost = oracle ({shards} shards)"
        );
        assert_eq!(
            degraded.report.opportunities + lost.opportunities,
            clean.report.opportunities,
            "opportunities: degraded + lost = oracle ({shards} shards)"
        );
        assert_eq!(
            degraded.report.pixel_fires + lost.pixel_fires,
            clean.report.pixel_fires,
            "pixel fires: degraded + lost = oracle ({shards} shards)"
        );
        // Delivery degraded but never over-billed: fewer impressions, and
        // the run kept going for the remaining ticks.
        assert!(degraded.report.impressions <= clean.report.impressions);
        assert_eq!(degraded.report.ticks, clean.report.ticks);
        // Degradation replays exactly too.
        let replay = run(shards, &options, Resume::Cold);
        assert_same_simulation(&degraded, &replay, "degraded replay");
        assert_eq!(replay.faults, degraded.faults);
    }
}
