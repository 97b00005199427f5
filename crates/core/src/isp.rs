//! The IS-process: state and tasks of the paper's IS-protocols.
//!
//! An IS-process `isp^k` is "a special kind of application process",
//! attached to an exclusive MCS-process that replicates every shared
//! variable. Its job (Figs. 1–3):
//!
//! * **`Propagate_out(x,v)`** — activated by the `post_update(x,v)`
//!   upcall (i.e. immediately after the local replica of `x` was updated
//!   with `v` by a write *not* issued by the IS-process itself): read
//!   `v` from `x`, send the pair `⟨x,v⟩` to the peer IS-process.
//! * **`Propagate_in(y,u)`** — activated when `⟨y,u⟩` arrives on the
//!   inter-system channel: issue the local causal write `w(y)u`.
//!   Updates caused by this write generate no upcall, so "a pair
//!   received from `isp^k̄` cannot be sent back".
//! * **`Pre_Propagate_out(x)`** (variant 2 only, Fig. 2) — activated by
//!   the `pre_update(x)` upcall: read the previous value `s` from `x`.
//!   This read forces causally ordered writes to reach the replica in
//!   causal order even when the MCS protocol does not guarantee the
//!   Causal Updating Property a priori (Lemma 1).
//!
//! The reads of both tasks are issued through the host
//! ([`NodeHost`](cmi_memory::NodeHost) performs and records them as
//! operations of the IS-process when the upcall fires); the task bodies
//! here queue the sends, which the hosting actor transmits in order.

use std::collections::VecDeque;
use std::time::Duration;

use cmi_memory::{HostSink, UpcallHandler};
use cmi_sim::ActorId;
use cmi_types::{ProcId, SimTime, Value, VarId};

/// Which IS-protocol the IS-process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsVariant {
    /// Variant 1 (Fig. 1): MCS protocol satisfies Causal Updating;
    /// `pre_update` upcalls are disabled.
    PostOnly,
    /// Variant 2 (Figs. 1+2): adds `Pre_Propagate_out`; correct for any
    /// causal MCS protocol.
    PrePost,
}

/// Fault injection for ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsFault {
    /// Correct IS-protocol.
    #[default]
    None,
    /// **Ablation X7**: instead of sending each pair immediately after
    /// its `post_update` (preserving replica-update order, the property
    /// Lemma 1 needs), the IS-process stashes pairs and transmits them
    /// **newest-first, one per `window`**, deliberately inverting the
    /// propagation order of causally related writes and spacing the
    /// inverted sends far enough apart for the inversion to be
    /// observable in the receiving system.
    ReorderBatch {
        /// Interval between (inverted) sends.
        window: Duration,
    },
}

/// One end of an inter-system link, as seen from this IS-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEnd {
    /// The peer IS-process.
    pub peer_isp: ProcId,
    /// The simulator actor hosting the peer.
    pub peer_actor: ActorId,
}

/// A `⟨x,v⟩` pair recorded in the send log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentPair {
    /// Receiving IS-process.
    pub to_isp: ProcId,
    /// Variable.
    pub var: VarId,
    /// Value.
    pub val: Value,
    /// Send instant.
    pub at: SimTime,
}

/// A pair queued for transmission, with the link it must *not* be sent
/// on (`Some(source)` for forwarded pairs — "a pair received from
/// `isp^k̄` cannot be sent back").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutPair {
    /// Variable.
    pub var: VarId,
    /// Value.
    pub val: Value,
    /// Link index to exclude (the pair's source), if any.
    pub except: Option<usize>,
}

/// The IS-process state co-located with its MCS-process in one actor.
#[derive(Debug)]
pub struct IsProcess {
    variant: IsVariant,
    fault: IsFault,
    links: Vec<LinkEnd>,
    /// Pairs awaiting transmission: `Propagate_out` pairs (from upcalls)
    /// and forwarded pairs, in **replica-update order** — the order
    /// Lemma 1 requires on the wire. Drained by the hosting actor right
    /// after each host call.
    out_buffer: Vec<OutPair>,
    /// Pairs stashed by the `ReorderBatch` fault until the next flush.
    reorder_stash: Vec<OutPair>,
    /// Incoming pairs waiting for the IS-process's blocked write call to
    /// complete (`(link index, var, val)`), in arrival order.
    pending_in: VecDeque<(usize, VarId, Value)>,
    /// Received pairs whose local `Propagate_in` write was issued but has
    /// not applied yet; the forward to the other links is released when
    /// [`UpcallHandler::own_write_applied`] fires, keeping transmission
    /// in replica-update order even for ordering (blocking) protocols.
    awaiting_apply: VecDeque<(usize, VarId, Value)>,
    /// Everything ever sent, for Lemma 1 trace checks.
    sent_log: Vec<SentPair>,
}

impl IsProcess {
    /// Creates an IS-process running `variant` over `links`.
    pub fn new(variant: IsVariant, fault: IsFault, links: Vec<LinkEnd>) -> Self {
        assert!(!links.is_empty(), "an IS-process needs at least one link");
        IsProcess {
            variant,
            fault,
            links,
            out_buffer: Vec::new(),
            reorder_stash: Vec::new(),
            pending_in: VecDeque::new(),
            awaiting_apply: VecDeque::new(),
            sent_log: Vec::new(),
        }
    }

    /// The injected fault.
    pub fn fault(&self) -> IsFault {
        self.fault
    }

    /// The links this IS-process serves (one for pairwise topologies,
    /// several for shared topologies).
    pub fn links(&self) -> &[LinkEnd] {
        &self.links
    }

    /// Index of the link whose peer is hosted by `actor`, if any.
    pub fn link_from_actor(&self, actor: ActorId) -> Option<usize> {
        self.links.iter().position(|l| l.peer_actor == actor)
    }

    /// Drains pairs ready to transmit now. With [`IsFault::ReorderBatch`]
    /// the pairs move to the stash instead and an empty list returns.
    pub fn take_ready(&mut self) -> Vec<OutPair> {
        match self.fault {
            IsFault::None => std::mem::take(&mut self.out_buffer),
            IsFault::ReorderBatch { .. } => {
                self.reorder_stash.append(&mut self.out_buffer);
                Vec::new()
            }
        }
    }

    /// Number of pairs currently stashed by the reorder fault.
    pub fn stash_len(&self) -> usize {
        self.reorder_stash.len()
    }

    /// Pops the newest stashed pair (the fault sends newest-first, one
    /// per window).
    pub fn flush_reordered(&mut self) -> Option<OutPair> {
        self.reorder_stash.pop()
    }

    /// Registers a received pair whose local `Propagate_in` write is
    /// about to be issued; its forward is released by
    /// [`IsProcess::own_write_applied`].
    pub fn begin_forward(&mut self, link: usize, var: VarId, val: Value) {
        self.awaiting_apply.push_back((link, var, val));
    }

    /// Queues an incoming pair behind a blocked write call.
    pub fn defer_incoming(&mut self, link: usize, var: VarId, val: Value) {
        self.pending_in.push_back((link, var, val));
    }

    /// Pops the next deferred incoming pair.
    pub fn next_deferred(&mut self) -> Option<(usize, VarId, Value)> {
        self.pending_in.pop_front()
    }

    /// Records a transmitted pair.
    pub fn log_sent(&mut self, to_isp: ProcId, var: VarId, val: Value, at: SimTime) {
        self.sent_log.push(SentPair {
            to_isp,
            var,
            val,
            at,
        });
    }

    /// The full send log.
    pub fn sent_log(&self) -> &[SentPair] {
        &self.sent_log
    }
}

impl UpcallHandler for IsProcess {
    fn active(&self) -> bool {
        true
    }

    fn wants_pre_update(&self) -> bool {
        self.variant == IsVariant::PrePost
    }

    fn pre_update(&mut self, _var: VarId, _pre_image: Option<Value>, _sink: &mut dyn HostSink) {
        // Pre_Propagate_out's entire body is the read r(x)s, which the
        // host has just issued and recorded on our behalf; the value's
        // only role is the causal edge it creates in the computation.
    }

    fn post_update(&mut self, var: VarId, v: Value, _writer: ProcId, sink: &mut dyn HostSink) {
        // Propagate_out: the read r(x)v was issued by the host; queue the
        // pair ⟨x,v⟩ for transmission on every link, preserving the
        // replica-update order (Lemma 1).
        let at = sink.now().as_nanos();
        if let Some((lin, me)) = sink.lineage() {
            lin.is_read(v.update_id(), me.system.0, me.index, at);
        }
        self.out_buffer.push(OutPair {
            var,
            val: v,
            except: None,
        });
    }

    fn own_write_applied(&mut self, var: VarId, val: Value, _sink: &mut dyn HostSink) {
        // The Propagate_in write just took effect; release the forward of
        // the corresponding pair at this position of the replica-update
        // order (forwards and Propagate_out pairs thus share one wire
        // order, the one Lemma 1 constrains). The IS-process issues its
        // Propagate_in writes serially, so applications come back in
        // issue order.
        let (link, fvar, fval) = self
            .awaiting_apply
            .pop_front()
            .expect("own write applied without a registered forward");
        debug_assert_eq!(
            (fvar, fval),
            (var, val),
            "out-of-order own-write application"
        );
        self.out_buffer.push(OutPair {
            var,
            val,
            except: Some(link),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi_types::SystemId;

    fn link(i: u32) -> LinkEnd {
        LinkEnd {
            peer_isp: ProcId::new(SystemId(1), 0),
            peer_actor: ActorId(i),
        }
    }

    fn pair(seq: u32) -> OutPair {
        OutPair {
            var: VarId(0),
            val: Value::new(ProcId::new(SystemId(0), 0), seq),
            except: None,
        }
    }

    #[test]
    fn healthy_isp_passes_pairs_through_in_order() {
        let mut isp = IsProcess::new(IsVariant::PostOnly, IsFault::None, vec![link(5)]);
        isp.out_buffer.push(pair(1));
        isp.out_buffer.push(pair(2));
        assert_eq!(isp.take_ready(), vec![pair(1), pair(2)]);
        assert!(isp.take_ready().is_empty());
    }

    #[test]
    fn reorder_fault_stashes_and_pops_newest_first() {
        let fault = IsFault::ReorderBatch {
            window: Duration::from_millis(5),
        };
        let mut isp = IsProcess::new(IsVariant::PostOnly, fault, vec![link(5)]);
        isp.out_buffer.push(pair(1));
        assert!(isp.take_ready().is_empty(), "stashed, not sent");
        isp.out_buffer.push(pair(2));
        assert!(isp.take_ready().is_empty());
        assert_eq!(isp.stash_len(), 2);
        assert_eq!(isp.flush_reordered(), Some(pair(2)));
        assert_eq!(isp.flush_reordered(), Some(pair(1)));
        assert_eq!(isp.flush_reordered(), None);
    }

    #[test]
    fn forward_is_released_by_own_write_application() {
        struct Sink2;
        impl HostSink for Sink2 {
            fn now(&self) -> SimTime {
                SimTime::ZERO
            }
            fn send_mcs(&mut self, _to: ProcId, _msg: cmi_memory::McsMsg) {
                unreachable!()
            }
            fn note(&mut self, _text: String) {}
        }
        let mut isp = IsProcess::new(IsVariant::PostOnly, IsFault::None, vec![link(0), link(9)]);
        let p = pair(1);
        isp.begin_forward(1, p.var, p.val);
        assert!(isp.take_ready().is_empty(), "not forwarded before apply");
        isp.own_write_applied(p.var, p.val, &mut Sink2);
        assert_eq!(
            isp.take_ready(),
            vec![OutPair {
                var: p.var,
                val: p.val,
                except: Some(1)
            }]
        );
    }

    #[test]
    fn variant_controls_pre_update_upcalls() {
        let v1 = IsProcess::new(IsVariant::PostOnly, IsFault::None, vec![link(0)]);
        assert!(!v1.wants_pre_update());
        assert!(v1.active());
        let v2 = IsProcess::new(IsVariant::PrePost, IsFault::None, vec![link(0)]);
        assert!(v2.wants_pre_update());
    }

    #[test]
    fn deferred_incoming_pairs_keep_fifo_order() {
        let mut isp = IsProcess::new(IsVariant::PostOnly, IsFault::None, vec![link(0)]);
        let (v, a) = (VarId(1), pair(1).val);
        let b = pair(2).val;
        isp.defer_incoming(0, v, a);
        isp.defer_incoming(0, v, b);
        assert_eq!(isp.next_deferred(), Some((0, v, a)));
        assert_eq!(isp.next_deferred(), Some((0, v, b)));
        assert_eq!(isp.next_deferred(), None);
    }

    #[test]
    fn link_lookup_by_actor() {
        let isp = IsProcess::new(IsVariant::PostOnly, IsFault::None, vec![link(3), link(9)]);
        assert_eq!(isp.link_from_actor(ActorId(9)), Some(1));
        assert_eq!(isp.link_from_actor(ActorId(4)), None);
    }

    #[test]
    fn post_update_queues_pairs() {
        struct Sink;
        impl HostSink for Sink {
            fn now(&self) -> SimTime {
                SimTime::ZERO
            }
            fn send_mcs(&mut self, _to: ProcId, _msg: cmi_memory::McsMsg) {
                unreachable!()
            }
            fn note(&mut self, _text: String) {}
        }
        let mut isp = IsProcess::new(IsVariant::PostOnly, IsFault::None, vec![link(0)]);
        let p = pair(1);
        isp.post_update(p.var, p.val, ProcId::new(SystemId(0), 1), &mut Sink);
        assert_eq!(isp.take_ready(), vec![p]);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn isp_without_links_panics() {
        let _ = IsProcess::new(IsVariant::PostOnly, IsFault::None, vec![]);
    }
}
