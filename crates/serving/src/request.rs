//! Request/response vocabulary of the serving front end.

use adsim_types::{AdId, SimTime, SiteId, UserId};
use crossbeam::channel::Receiver;
use treads_telemetry::{RequestTrace, TraceEventKind, TraceId, SHED_SEQ};

/// One impression opportunity: a user loading a site at a simulated
/// instant. The serving-side twin of one
/// [`websim::BrowsingEvent::PageView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpportunityRequest {
    /// The browsing user.
    pub user: UserId,
    /// The site being loaded (its registry entry defines ad slots and
    /// embedded pixels).
    pub site: SiteId,
    /// Simulated instant of the page view. Must be non-decreasing across
    /// `submit` calls — the serving clock only moves forward.
    pub at: SimTime,
}

impl OpportunityRequest {
    /// The trace id of this request when it is shed before its page view
    /// begins: it never consumed a user sequence number, so the shed
    /// stand-in seq keys it.
    pub(crate) fn shed_trace_id(&self, seed: u64) -> TraceId {
        TraceId::from_key(seed, self.at, self.user.raw(), SHED_SEQ)
    }

    /// The always-retained tail trace of this request, shed for `reason`,
    /// and its `request` root span for any further events.
    pub(crate) fn shed_trace(&self, id: TraceId, reason: &'static str) -> (RequestTrace, usize) {
        let mut t = RequestTrace::tail(id, self.at, self.user.raw(), SHED_SEQ);
        let span = t.span("request", None, self.at);
        t.event(span, TraceEventKind::Shed { reason });
        (t, span)
    }
}

/// The served side of a [`Response`]: the ads chosen for the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedPage {
    /// The request's simulated instant, echoed back.
    pub at: SimTime,
    /// Winning ads, one per filled slot (unfilled slots are absent).
    pub ads: Vec<AdId>,
    /// Ad slots the page offered.
    pub slots: u32,
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The owning shard's queue was over the admission watermark.
    Overload,
    /// The request landed inside a scheduled API brownout
    /// ([`treads_resilience::fault::ApiFault::Brownout`]).
    Brownout,
    /// The owning shard's tick crashed unrecoverably; its work this tick
    /// is degraded to load shedding.
    ShardFailure,
    /// The user is not registered on the platform.
    UnknownUser,
    /// The request's timestamp is at or past the serving horizon.
    AfterHorizon,
}

/// What the front end answers a request with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The page was auctioned; here are its ads.
    Served(ServedPage),
    /// The request was shed.
    Rejected {
        /// Why it was shed.
        reason: RejectReason,
        /// How long the client should back off before retrying, in
        /// wall-clock milliseconds (0 = don't retry: the rejection is
        /// permanent, e.g. [`RejectReason::AfterHorizon`]).
        retry_after_ms: u64,
    },
}

impl Response {
    /// True if the request was served.
    pub fn is_served(&self) -> bool {
        matches!(self, Response::Served(_))
    }

    /// True if the request was shed.
    pub fn is_shed(&self) -> bool {
        !self.is_served()
    }

    /// The served page, if any.
    pub fn page(&self) -> Option<&ServedPage> {
        match self {
            Response::Served(page) => Some(page),
            Response::Rejected { .. } => None,
        }
    }
}

/// A claim on a submitted request's eventual [`Response`].
///
/// [`crate::Frontend::submit`] returns immediately with a ticket; the
/// response materializes when the owning shard's micro-batch closes.
/// Front-end rejections (overload, brownout, after-horizon) are ready
/// instantly. A ticket is single-use: [`Ticket::wait`] consumes it.
#[derive(Debug)]
pub struct Ticket {
    inner: TicketInner,
}

#[derive(Debug)]
enum TicketInner {
    /// Decided at submit time.
    Ready(Response),
    /// In flight to a shard worker; the receiver yields the reply.
    Pending(Receiver<Response>, u64),
}

impl Ticket {
    /// A ticket whose response was decided at submit time.
    pub(crate) fn ready(response: Response) -> Self {
        Self {
            inner: TicketInner::Ready(response),
        }
    }

    /// A ticket waiting on a shard worker's reply. `retry_after_ms` is the
    /// back-off hint should the worker die before replying.
    pub(crate) fn pending(rx: Receiver<Response>, retry_after_ms: u64) -> Self {
        Self {
            inner: TicketInner::Pending(rx, retry_after_ms),
        }
    }

    /// True if the response is already decided (no blocking possible).
    pub fn is_ready(&self) -> bool {
        matches!(self.inner, TicketInner::Ready(_))
    }

    /// Blocks until the response arrives and returns it.
    ///
    /// If the owning worker disconnected without replying (it cannot in a
    /// healthy run — even degraded ticks shed with a reply), the wait
    /// degrades to a [`RejectReason::ShardFailure`] rejection rather than
    /// panicking.
    pub fn wait(self) -> Response {
        match self.inner {
            TicketInner::Ready(response) => response,
            TicketInner::Pending(rx, retry_after_ms) => rx.recv().unwrap_or(Response::Rejected {
                reason: RejectReason::ShardFailure,
                retry_after_ms,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;

    #[test]
    fn response_accessors() {
        let served = Response::Served(ServedPage {
            at: SimTime(5),
            ads: vec![AdId(1)],
            slots: 2,
        });
        assert!(served.is_served());
        assert!(!served.is_shed());
        assert_eq!(served.page().expect("served").ads, vec![AdId(1)]);

        let shed = Response::Rejected {
            reason: RejectReason::Overload,
            retry_after_ms: 10,
        };
        assert!(shed.is_shed());
        assert!(shed.page().is_none());
    }

    #[test]
    fn ready_tickets_resolve_immediately() {
        let t = Ticket::ready(Response::Rejected {
            reason: RejectReason::AfterHorizon,
            retry_after_ms: 0,
        });
        assert!(t.is_ready());
        assert!(matches!(
            t.wait(),
            Response::Rejected {
                reason: RejectReason::AfterHorizon,
                ..
            }
        ));
    }

    #[test]
    fn pending_ticket_yields_the_workers_reply() {
        let (tx, rx) = channel::bounded(1);
        let t = Ticket::pending(rx, 10);
        assert!(!t.is_ready());
        tx.send(Response::Served(ServedPage {
            at: SimTime(1),
            ads: vec![],
            slots: 1,
        }))
        .expect("receiver alive");
        assert!(t.wait().is_served());
    }

    #[test]
    fn dead_worker_degrades_to_shard_failure() {
        let (tx, rx) = channel::bounded::<Response>(1);
        drop(tx);
        let t = Ticket::pending(rx, 7);
        assert_eq!(
            t.wait(),
            Response::Rejected {
                reason: RejectReason::ShardFailure,
                retry_after_ms: 7,
            }
        );
    }
}
