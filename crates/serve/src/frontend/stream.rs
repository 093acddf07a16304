//! Client-side handles: submission and per-request token streams.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;

use crate::error::ServeError;
use crate::request::{Completion, GenRequest, RequestId};

/// One notification on a request's stream, in delivery order:
/// [`StreamEvent::Queued`] once at intake, [`StreamEvent::Started`]
/// once at admission, then [`StreamEvent::Token`] per sampled token,
/// closed by exactly one terminal event ([`StreamEvent::Done`],
/// [`StreamEvent::Cancelled`], [`StreamEvent::Expired`],
/// [`StreamEvent::Failed`], or [`StreamEvent::Rejected`]) — the
/// per-request view of TGI-style server-sent token streaming.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// The request entered the engine's queue.
    Queued {
        /// Engine step at intake.
        step: u64,
    },
    /// The request was admitted to a slot; prefill starts.
    Started {
        /// Admission step.
        step: u64,
    },
    /// One generated token.
    Token {
        /// The sampled token id.
        token: u32,
        /// The sampling step.
        step: u64,
    },
    /// Terminal: the request ran to completion (EOS or token budget);
    /// the full [`Completion`] record carries the tokens and stamps.
    Done(Box<Completion>),
    /// Terminal: the request was cancelled (explicitly or by dropping
    /// its [`TokenStream`]) — tokens streamed so far remain valid.
    Cancelled {
        /// The step the engine processed the cancellation.
        step: u64,
    },
    /// Terminal: the request's deadline expired before it finished.
    Expired {
        /// The eviction step.
        step: u64,
    },
    /// Terminal: the request was retired by a backend fault — its
    /// serving backend errored or panicked mid-flight and the engine
    /// failed the in-flight work rather than retry it (tokens streamed
    /// so far remain valid). Also synthesized with `step: None` when
    /// the engine thread dies outright, so readers never hang or end
    /// silently on engine death.
    Failed {
        /// The step the engine retired the request, or `None` when the
        /// stream synthesized this event because the engine thread is
        /// gone.
        step: Option<u64>,
    },
    /// Terminal: the request was shed at admission under overload
    /// (queue over [`crate::resilience::ResilienceConfig::queue_limit`])
    /// — it never held a slot.
    Rejected {
        /// The shed step.
        step: u64,
        /// Engine-suggested virtual-time resubmission delay.
        retry_after_steps: u64,
    },
}

impl StreamEvent {
    /// Whether this event closes the stream (no further events follow).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            StreamEvent::Done(_)
                | StreamEvent::Cancelled { .. }
                | StreamEvent::Expired { .. }
                | StreamEvent::Failed { .. }
                | StreamEvent::Rejected { .. }
        )
    }
}

/// What clients send the engine thread over the intake channel.
pub(crate) enum ClientMsg {
    /// A new request plus the sending half of its event stream.
    Submit {
        /// The request (id already assigned by the handle).
        req: GenRequest,
        /// Where the engine loop delivers this request's events.
        events: SyncSender<StreamEvent>,
    },
    /// Client hang-up for an in-flight request.
    Cancel(RequestId),
}

/// Undelivered events each [`TokenStream`] buffers before the engine
/// thread blocks on it.
const STREAM_CAPACITY: usize = 16;

/// Cloneable client handle to a running serving frontend
/// ([`crate::frontend::run_frontend`]). Each [`FrontendHandle::submit`]
/// returns a private [`TokenStream`]; clones share one intake queue and
/// one id space, so any number of concurrent clients can feed the same
/// engine.
#[derive(Clone)]
pub struct FrontendHandle {
    intake: Sender<ClientMsg>,
    next_id: Arc<AtomicU64>,
    /// Vocabulary size per registered model (intake validation).
    vocab_sizes: Arc<[usize]>,
}

impl std::fmt::Debug for FrontendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendHandle")
            .field("n_models", &self.vocab_sizes.len())
            .finish()
    }
}

impl FrontendHandle {
    pub(crate) fn new(intake: Sender<ClientMsg>, vocab_sizes: Vec<usize>) -> Self {
        FrontendHandle {
            intake,
            next_id: Arc::new(AtomicU64::new(0)),
            vocab_sizes: vocab_sizes.into(),
        }
    }

    /// Submits a request and returns its event stream. The handle
    /// assigns the request id (overwriting `req.id` — ids must be
    /// unique across all clients) and stamps the arrival step when the
    /// engine thread picks the request up, so wall-clock submission
    /// order is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an empty prompt, a
    /// request for zero new tokens or a prompt token outside the target
    /// model's vocabulary (or a
    /// frontend whose engine thread has already shut down) and
    /// [`ServeError::UnknownModel`] for an out-of-range model id — the
    /// same intake validation the engine applies, run here so the
    /// engine thread never sees a rejectable request.
    pub fn submit(&self, mut req: GenRequest) -> Result<TokenStream, ServeError> {
        req.validate(&self.vocab_sizes)?;
        req.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id = req.id;
        let (events, rx) = sync_channel(STREAM_CAPACITY);
        self.intake
            .send(ClientMsg::Submit { req, events })
            .map_err(|_| {
                ServeError::InvalidConfig("serving frontend has already shut down".into())
            })?;
        Ok(TokenStream {
            id,
            rx,
            intake: self.intake.clone(),
            finished: false,
        })
    }
}

/// The receiving half of one request's event stream. Dropping it
/// before the terminal event cancels the request — a disconnected
/// client frees its slot within one engine step, exactly like an
/// explicit [`TokenStream::cancel`].
#[derive(Debug)]
pub struct TokenStream {
    id: RequestId,
    rx: Receiver<StreamEvent>,
    intake: Sender<ClientMsg>,
    finished: bool,
}

impl TokenStream {
    /// The id the frontend assigned this request.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks for the next event; `None` after the terminal event. If
    /// the engine thread stops without delivering one (it died, or the
    /// run hit its step budget), the stream synthesizes a single
    /// terminal [`StreamEvent::Failed`]` { step: None }` so readers
    /// and [`TokenStream::wait`] observe the failure instead of the
    /// stream silently ending.
    pub fn recv(&mut self) -> Option<StreamEvent> {
        if self.finished {
            return None;
        }
        match self.rx.recv() {
            Ok(ev) => {
                if ev.is_terminal() {
                    self.finished = true;
                }
                Some(ev)
            }
            Err(_) => {
                // The sender is gone with no terminal event delivered:
                // the engine thread is dead (or stopped at its step
                // budget). Surface that as an explicit failure, once.
                self.finished = true;
                Some(StreamEvent::Failed { step: None })
            }
        }
    }

    /// Cancels the request mid-stream. Already-streamed tokens stay
    /// valid; the stream still delivers its terminal event
    /// ([`StreamEvent::Cancelled`], or [`StreamEvent::Done`] if the
    /// cancel raced a natural completion), so keep reading to observe
    /// which won.
    pub fn cancel(&mut self) {
        if !self.finished {
            let _ = self.intake.send(ClientMsg::Cancel(self.id));
        }
    }

    /// Drains the stream to its terminal event and returns the
    /// [`Completion`] if the request ran to completion (`None` if it
    /// was cancelled, expired, or the engine stopped first).
    pub fn wait(mut self) -> Option<Completion> {
        while let Some(ev) = self.recv() {
            if let StreamEvent::Done(c) = ev {
                return Some(*c);
            }
        }
        None
    }
}

impl Iterator for TokenStream {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        self.recv()
    }
}

impl Drop for TokenStream {
    fn drop(&mut self) {
        // A dropped stream is a disconnected client: cancel unless the
        // request already reached its terminal event. Send failure
        // means the engine thread is gone — nothing left to cancel.
        if !self.finished {
            let _ = self.intake.send(ClientMsg::Cancel(self.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn orphan_stream() -> (SyncSender<StreamEvent>, TokenStream) {
        // The intake receiver is dropped immediately: the cancel sends
        // a dying stream attempts are harmless no-ops, exactly like a
        // dead engine thread.
        let (intake, _) = channel();
        let (tx, rx) = sync_channel(4);
        (
            tx,
            TokenStream {
                id: 0,
                rx,
                intake,
                finished: false,
            },
        )
    }

    #[test]
    fn engine_death_synthesizes_exactly_one_terminal_failed_event() {
        let (tx, mut stream) = orphan_stream();
        tx.send(StreamEvent::Queued { step: 0 }).unwrap();
        drop(tx); // the engine thread died without a terminal event
        assert!(matches!(stream.recv(), Some(StreamEvent::Queued { .. })));
        let failed = stream.recv().expect("death surfaces as an event");
        assert!(
            matches!(failed, StreamEvent::Failed { step: None }),
            "{failed:?}"
        );
        assert!(failed.is_terminal());
        assert!(
            stream.recv().is_none(),
            "the synthesized terminal fires once"
        );
    }

    #[test]
    fn wait_returns_none_instead_of_hanging_on_engine_death() {
        let (tx, stream) = orphan_stream();
        drop(tx);
        assert!(stream.wait().is_none());
    }
}
