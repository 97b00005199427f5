//! One simulated node: an MCS-process together with its attached
//! application (or IS-) process, implementing the paper's upcall
//! interface.
//!
//! # The upcall contract (paper, Section 2)
//!
//! The paper extends the interface between an IS-process and its
//! MCS-process with two upcalls around every replica update caused by a
//! write *not* issued by the IS-process itself:
//!
//! * `pre_update(x)` immediately **before** the replica of `x` changes
//!   (only when enabled — IS-protocol variant 2);
//! * `post_update(x,v)` immediately **after**.
//!
//! While an upcall is processed the MCS-process blocks, and the paper
//! demands: **(a)** the pre-image `s` stays until the update and the new
//! value `v` stays until the `post_update` response, **(b)** reads issued
//! during upcalls terminate, and **(c)** they return `s` / `v`
//! respectively.
//!
//! In this implementation the MCS-process and its attached process are
//! co-located in one simulator actor, so an upcall is a synchronous call
//! into the attached [`UpcallHandler`]. The host issues the IS-process's
//! unconditional upcall reads itself (recording them as operations of the
//! attached process — they are the reads of the paper's
//! `Pre_Propagate_out` and `Propagate_out` tasks) and hands the returned
//! value to the handler. Because nothing else can run between the read
//! and the update, conditions (a)–(c) hold by construction.

use std::fmt;

use cmi_obs::LineageRecorder;
use cmi_types::{OpRecord, ProcId, SimTime, Value, VarId};

use crate::msg::McsMsg;
use crate::protocol::{McsProtocol, Outbox, ReadOutcome, WriteOutcome};

/// Simulator capabilities the host needs while handling an event.
///
/// Implemented by the actor wrappers in this crate (single-system runs)
/// and in `cmi-core` (interconnected worlds).
pub trait HostSink {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Transmits a protocol message to the MCS-process of `to`.
    fn send_mcs(&mut self, to: ProcId, msg: McsMsg);
    /// Appends a protocol-trace annotation (no-op unless tracing).
    fn note(&mut self, text: String);
    /// `true` if a trace consumer is attached. Callers skip building
    /// note strings when it is `false`; the conservative default keeps
    /// every existing sink (and every test sink) working unchanged.
    fn tracing(&self) -> bool {
        true
    }
    /// The run's causal lineage recorder paired with the identity of the
    /// hosted process, or `None` when lineage tracing is disabled. The
    /// default keeps every existing sink (and every test sink) working
    /// unchanged, and lets recording sites skip all lineage work with
    /// one branch.
    fn lineage(&mut self) -> Option<(&mut LineageRecorder, ProcId)> {
        None
    }
}

/// The attached process's side of the upcall interface.
///
/// Application processes attach [`NoUpcalls`]; IS-processes attach the
/// IS-protocol tasks from `cmi-core`.
pub trait UpcallHandler {
    /// `false` disables the whole upcall machinery (plain application
    /// process — no IS-reads are issued or recorded).
    fn active(&self) -> bool;

    /// `true` enables `pre_update` upcalls (IS-protocol variant 2,
    /// Fig. 2). Per the paper, variant 1 "disables the MCS-process
    /// `pre_update` upcalls, since it does not need them".
    fn wants_pre_update(&self) -> bool;

    /// `pre_update(x)` upcall: the replica of `var` is about to change;
    /// `pre_image` is the value the IS-process's read `r(x)s` just
    /// returned (condition (c)).
    fn pre_update(&mut self, var: VarId, pre_image: Option<Value>, sink: &mut dyn HostSink);

    /// `post_update(x,v)` upcall: the replica of `var` was just updated
    /// with `post_image` by a write of `writer`; the IS-process's read
    /// `r(x)v` has been issued and returned `post_image`.
    fn post_update(
        &mut self,
        var: VarId,
        post_image: Value,
        writer: ProcId,
        sink: &mut dyn HostSink,
    );

    /// Notification that a write call issued by the attached process
    /// itself has just been applied to the local replica (fires for both
    /// immediate and ordered/blocking writes). Not an upcall of the
    /// paper's interface — IS-processes use it to release forwarded
    /// pairs at the instant their `Propagate_in` write takes effect, so
    /// transmission order matches replica-update order (Lemma 1).
    fn own_write_applied(&mut self, var: VarId, val: Value, sink: &mut dyn HostSink) {
        let _ = (var, val, sink);
    }
}

/// Handler for plain application processes: upcalls disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoUpcalls;

impl UpcallHandler for NoUpcalls {
    fn active(&self) -> bool {
        false
    }

    fn wants_pre_update(&self) -> bool {
        false
    }

    fn pre_update(&mut self, _var: VarId, _pre: Option<Value>, _sink: &mut dyn HostSink) {
        unreachable!("pre_update on an inactive handler")
    }

    fn post_update(&mut self, _var: VarId, _v: Value, _w: ProcId, _sink: &mut dyn HostSink) {
        unreachable!("post_update on an inactive handler")
    }
}

/// One entry of the replica-update log kept at every MCS-process.
///
/// The log is the observable the paper's Causal Updating Property
/// (Property 1) and Lemma 1 talk about; the trace checks in `cmi-checker`
/// consume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaUpdate {
    /// Variable updated.
    pub var: VarId,
    /// Value stored.
    pub val: Value,
    /// Process whose write caused the update.
    pub writer: ProcId,
    /// Virtual time of the update.
    pub at: SimTime,
}

/// An MCS-process plus the bookkeeping of its attached process.
pub struct NodeHost {
    protocol: Box<dyn McsProtocol>,
    ops: Vec<OpRecord>,
    updates: Vec<ReplicaUpdate>,
    write_in_flight: bool,
    /// Issue instant of the in-flight write (response-time metric and
    /// the operation's recorded interval).
    write_issued_at: SimTime,
    /// A blocking read call is outstanding (atomic memory).
    read_in_flight: bool,
    /// Issue instant of the in-flight read.
    read_issued_at: SimTime,
    /// Response time of every write call, in issue order. Zero for
    /// fast-write protocols (local application), the ordering round-trip
    /// for the sequencer protocol. The paper's Section 6 argues the
    /// interconnection "should not affect the response time a process
    /// observes"; experiment X5 measures exactly this vector.
    write_responses: Vec<std::time::Duration>,
}

impl fmt::Debug for NodeHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHost")
            .field("proc", &self.proc())
            .field("ops", &self.ops.len())
            .field("updates", &self.updates.len())
            .field("write_in_flight", &self.write_in_flight)
            .finish()
    }
}

impl NodeHost {
    /// Wraps a protocol instance.
    pub fn new(protocol: Box<dyn McsProtocol>) -> Self {
        NodeHost {
            protocol,
            ops: Vec::new(),
            updates: Vec::new(),
            write_in_flight: false,
            write_issued_at: SimTime::ZERO,
            read_in_flight: false,
            read_issued_at: SimTime::ZERO,
            write_responses: Vec::new(),
        }
    }

    /// The attached process / MCS-process identity.
    pub fn proc(&self) -> ProcId {
        self.protocol.proc()
    }

    /// Whether the protocol guarantees the Causal Updating Property;
    /// selects the IS-protocol variant.
    pub fn satisfies_causal_updating(&self) -> bool {
        self.protocol.satisfies_causal_updating()
    }

    /// `true` while a [`Pending`](WriteOutcome::Pending) write call of
    /// the attached process awaits completion; the attached process must
    /// not issue another operation until it clears (the paper's blocking
    /// write call).
    pub fn write_in_flight(&self) -> bool {
        self.write_in_flight
    }

    /// `true` while any memory call of the attached process is blocked
    /// (pending write, or pending atomic read).
    pub fn op_in_flight(&self) -> bool {
        self.write_in_flight || self.read_in_flight
    }

    /// Issues a read call by the attached process. Local protocols
    /// return the value immediately (and record the operation); atomic
    /// memory returns [`ReadOutcome::Pending`] and the operation is
    /// recorded, with its full `[issued, completed]` interval, when the
    /// value arrives.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn issue_read(
        &mut self,
        var: VarId,
        sink: &mut dyn HostSink,
        handler: &mut dyn UpcallHandler,
    ) -> ReadOutcome {
        assert!(
            !self.op_in_flight(),
            "{}: read issued while an operation is in flight",
            self.proc()
        );
        let mut out = Outbox::new();
        let outcome = self.protocol.read_call(var, &mut out);
        match outcome {
            ReadOutcome::Done(v) => {
                self.ops
                    .push(OpRecord::read(self.proc(), var, v, sink.now()));
            }
            ReadOutcome::Pending => {
                self.read_in_flight = true;
                self.read_issued_at = sink.now();
            }
        }
        self.absorb_read_completion(&mut out, sink);
        self.flush(out, sink);
        self.drain(sink, handler);
        outcome
    }

    /// Records a completed blocking read, if the outbox carries one.
    fn absorb_read_completion(&mut self, out: &mut Outbox, sink: &mut dyn HostSink) {
        if let Some((var, val)) = out.completed_read.take() {
            assert!(
                self.read_in_flight,
                "{}: read completion without a pending read",
                self.proc()
            );
            self.read_in_flight = false;
            self.ops.push(
                OpRecord::read(self.proc(), var, val, sink.now())
                    .with_issued_at(self.read_issued_at),
            );
        }
    }

    /// Peeks at the local replica without recording an operation (for
    /// assertions and probes; not part of the DSM semantics).
    pub fn peek(&self, var: VarId) -> Option<Value> {
        self.protocol.read(var)
    }

    /// Issues a write call by the attached process.
    ///
    /// Fast-write protocols record the operation immediately; the
    /// sequencer protocol records it when the own ordered write is
    /// applied (and [`write_in_flight`](Self::write_in_flight) clears).
    ///
    /// # Panics
    ///
    /// Panics if a write is already in flight — write calls block, so
    /// the attached process can never have two outstanding.
    pub fn issue_write(
        &mut self,
        var: VarId,
        val: Value,
        sink: &mut dyn HostSink,
        handler: &mut dyn UpcallHandler,
    ) {
        assert!(
            !self.write_in_flight,
            "{}: write issued while another is in flight",
            self.proc()
        );
        let mut out = Outbox::new();
        match self.protocol.write(var, val, &mut out) {
            WriteOutcome::Done => {
                self.ops
                    .push(OpRecord::write(self.proc(), var, val, sink.now()));
                self.updates.push(ReplicaUpdate {
                    var,
                    val,
                    writer: self.proc(),
                    at: sink.now(),
                });
                self.write_responses.push(std::time::Duration::ZERO);
                let at = sink.now().as_nanos();
                let me = self.proc();
                if let Some((lin, _)) = sink.lineage() {
                    // Propagation re-writes carry a value originated
                    // elsewhere; only the origin's own write is an issue
                    // event (re-writes are recorded as `remote_written`
                    // by the IS-process before this call).
                    if val.origin() == me {
                        lin.issued(val.update_id(), at);
                    }
                    lin.applied(val.update_id(), me.system.0, me.index, at);
                }
                if handler.active() {
                    handler.own_write_applied(var, val, sink);
                }
            }
            WriteOutcome::Pending => {
                self.write_in_flight = true;
                self.write_issued_at = sink.now();
            }
        }
        self.flush(out, sink);
        self.drain(sink, handler);
    }

    /// Feeds a protocol message to the MCS-process and applies whatever
    /// becomes deliverable, firing upcalls per the contract.
    pub fn on_mcs_message(
        &mut self,
        from: ProcId,
        msg: McsMsg,
        sink: &mut dyn HostSink,
        handler: &mut dyn UpcallHandler,
    ) {
        let mut out = Outbox::new();
        self.protocol.on_message(from, msg, &mut out);
        self.absorb_read_completion(&mut out, sink);
        self.flush(out, sink);
        self.drain(sink, handler);
    }

    /// Operations recorded so far (program order of the attached
    /// process).
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Consumes the recorded operations (end-of-run extraction).
    pub fn take_ops(&mut self) -> Vec<OpRecord> {
        std::mem::take(&mut self.ops)
    }

    /// The replica-update log of this MCS-process.
    pub fn updates(&self) -> &[ReplicaUpdate] {
        &self.updates
    }

    /// Consumes the replica-update log (end-of-run extraction).
    pub fn take_updates(&mut self) -> Vec<ReplicaUpdate> {
        std::mem::take(&mut self.updates)
    }

    /// Received updates currently held back from the local replica
    /// (the protocol's causal-wait buffer depth).
    pub fn buffered(&self) -> usize {
        self.protocol.buffered()
    }

    /// Response time of every write call issued so far, in issue order.
    pub fn write_responses(&self) -> &[std::time::Duration] {
        &self.write_responses
    }

    /// Consumes the write response times (end-of-run extraction).
    pub fn take_write_responses(&mut self) -> Vec<std::time::Duration> {
        std::mem::take(&mut self.write_responses)
    }

    fn flush(&mut self, out: Outbox, sink: &mut dyn HostSink) {
        debug_assert!(
            out.completed_write.is_none(),
            "write completion outside drain"
        );
        debug_assert!(out.completed_read.is_none(), "read completion not absorbed");
        for (to, msg) in out.sends {
            sink.send_mcs(to, msg);
        }
    }

    /// Applies every deliverable update, in order, with upcalls.
    fn drain(&mut self, sink: &mut dyn HostSink, handler: &mut dyn UpcallHandler) {
        let me = self.proc();
        while let Some(update) = self.protocol.next_applicable() {
            let remote = update.writer != me;
            let upcalls = remote && handler.active();
            if upcalls && handler.wants_pre_update() {
                // Pre_Propagate_out's read r(x)s — condition (c): it
                // returns the pre-image.
                let s = self.protocol.read(update.var);
                self.ops.push(OpRecord::read(me, update.var, s, sink.now()));
                if sink.tracing() {
                    sink.note(format!("pre_update({}) read {:?}", update.var, s));
                }
                handler.pre_update(update.var, s, sink);
            }
            let mut out = Outbox::new();
            self.protocol.apply(&update, &mut out);
            self.absorb_read_completion(&mut out, sink);
            {
                let at = sink.now().as_nanos();
                // A completed pending write (sequencer) is the origin's
                // own write coming back ordered: its issue event carries
                // the original issue instant, and must precede the apply
                // event in the record.
                let own_completed = out.completed_write.is_some() && update.val.origin() == me;
                let issued_at = self.write_issued_at.as_nanos();
                if let Some((lin, _)) = sink.lineage() {
                    if own_completed {
                        lin.issued(update.val.update_id(), issued_at);
                    }
                    lin.applied(update.val.update_id(), me.system.0, me.index, at);
                }
            }
            self.updates.push(ReplicaUpdate {
                var: update.var,
                val: update.val,
                writer: update.writer,
                at: sink.now(),
            });
            if let Some((var, val)) = out.completed_write.take() {
                assert!(
                    self.write_in_flight,
                    "{me}: completion without a pending write"
                );
                self.write_in_flight = false;
                self.write_responses
                    .push(sink.now().saturating_since(self.write_issued_at));
                self.ops.push(
                    OpRecord::write(me, var, val, sink.now()).with_issued_at(self.write_issued_at),
                );
                if handler.active() {
                    handler.own_write_applied(var, val, sink);
                }
            }
            self.flush(out, sink);
            if upcalls {
                // Propagate_out's read r(x)v — condition (c): it returns
                // the just-applied value.
                let v = self.protocol.read(update.var);
                debug_assert_eq!(v, Some(update.val), "condition (c) violated");
                self.ops.push(OpRecord::read(me, update.var, v, sink.now()));
                if sink.tracing() {
                    sink.note(format!("post_update({},{})", update.var, update.val));
                }
                handler.post_update(update.var, update.val, update.writer, sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolKind;
    use cmi_types::{OpKind, SystemId};

    /// Minimal sink collecting sends and notes at a fixed time.
    #[derive(Default)]
    struct TestSink {
        now: SimTime,
        sent: Vec<(ProcId, McsMsg)>,
        notes: Vec<String>,
    }

    impl HostSink for TestSink {
        fn now(&self) -> SimTime {
            self.now
        }

        fn send_mcs(&mut self, to: ProcId, msg: McsMsg) {
            self.sent.push((to, msg));
        }

        fn note(&mut self, text: String) {
            self.notes.push(text);
        }
    }

    /// Recording upcall handler.
    #[derive(Default)]
    struct Recorder {
        pre: Vec<(VarId, Option<Value>)>,
        post: Vec<(VarId, Value, ProcId)>,
        want_pre: bool,
    }

    impl UpcallHandler for Recorder {
        fn active(&self) -> bool {
            true
        }

        fn wants_pre_update(&self) -> bool {
            self.want_pre
        }

        fn pre_update(&mut self, var: VarId, pre: Option<Value>, _sink: &mut dyn HostSink) {
            self.pre.push((var, pre));
        }

        fn post_update(&mut self, var: VarId, v: Value, w: ProcId, _sink: &mut dyn HostSink) {
            self.post.push((var, v, w));
        }
    }

    fn proc(i: u16) -> ProcId {
        ProcId::new(SystemId(0), i)
    }

    fn host(kind: ProtocolKind, slot: u16, n: usize) -> NodeHost {
        NodeHost::new(kind.instantiate(SystemId(0), slot, n, 4))
    }

    #[test]
    fn own_write_records_op_and_update_but_no_upcall() {
        let mut h = host(ProtocolKind::Ahamad, 0, 2);
        let mut sink = TestSink::default();
        let mut handler = Recorder::default();
        let v = Value::new(proc(0), 1);
        h.issue_write(VarId(0), v, &mut sink, &mut handler);
        assert_eq!(h.ops().len(), 1);
        assert!(h.ops()[0].kind.is_write());
        assert_eq!(h.updates().len(), 1);
        assert_eq!(h.updates()[0].writer, proc(0));
        assert!(handler.pre.is_empty());
        assert!(handler.post.is_empty(), "no upcall for own writes");
        assert_eq!(sink.sent.len(), 1);
    }

    #[test]
    fn remote_write_fires_post_upcall_with_recorded_read() {
        let mut writer = host(ProtocolKind::Ahamad, 0, 2);
        let mut isp = host(ProtocolKind::Ahamad, 1, 2);
        let mut sink = TestSink::default();
        let mut none = NoUpcalls;
        let v = Value::new(proc(0), 1);
        writer.issue_write(VarId(2), v, &mut sink, &mut none);
        let (to, msg) = sink.sent.remove(0);
        assert_eq!(to, proc(1));

        let mut handler = Recorder::default();
        sink.now = SimTime::from_millis(5);
        isp.on_mcs_message(proc(0), msg, &mut sink, &mut handler);
        // post_update(x,v) fired with the new value and true writer.
        assert_eq!(handler.post, vec![(VarId(2), v, proc(0))]);
        assert!(handler.pre.is_empty(), "variant 1: pre disabled");
        // The Propagate_out read r(x)v was recorded as an isp operation.
        assert_eq!(isp.ops().len(), 1);
        match isp.ops()[0].kind {
            OpKind::Read { value } => assert_eq!(value, Some(v)),
            _ => panic!("expected a read"),
        }
        assert_eq!(isp.ops()[0].at, SimTime::from_millis(5));
    }

    #[test]
    fn pre_upcall_reads_pre_image_when_enabled() {
        let mut writer = host(ProtocolKind::Ahamad, 0, 2);
        let mut isp = host(ProtocolKind::Ahamad, 1, 2);
        let mut sink = TestSink::default();
        let mut none = NoUpcalls;
        let v1 = Value::new(proc(0), 1);
        let v2 = Value::new(proc(0), 2);
        writer.issue_write(VarId(0), v1, &mut sink, &mut none);
        writer.issue_write(VarId(0), v2, &mut sink, &mut none);
        let m1 = sink.sent.remove(0).1;
        let m2 = sink.sent.remove(0).1;

        let mut handler = Recorder {
            want_pre: true,
            ..Recorder::default()
        };
        isp.on_mcs_message(proc(0), m1, &mut sink, &mut handler);
        isp.on_mcs_message(proc(0), m2, &mut sink, &mut handler);
        // Pre-images: ⊥ before v1, v1 before v2 (condition (c)).
        assert_eq!(handler.pre, vec![(VarId(0), None), (VarId(0), Some(v1))]);
        assert_eq!(handler.post.len(), 2);
        // Four isp reads recorded: r(x)⊥, r(x)v1, r(x)v1, r(x)v2.
        let reads: Vec<Option<Value>> = isp
            .ops()
            .iter()
            .map(|o| o.read_value().expect("all reads"))
            .collect();
        assert_eq!(reads, vec![None, Some(v1), Some(v1), Some(v2)]);
    }

    #[test]
    fn plain_app_node_records_no_upcall_reads() {
        let mut writer = host(ProtocolKind::Ahamad, 0, 2);
        let mut app = host(ProtocolKind::Ahamad, 1, 2);
        let mut sink = TestSink::default();
        let mut none = NoUpcalls;
        let v = Value::new(proc(0), 1);
        writer.issue_write(VarId(0), v, &mut sink, &mut none);
        let msg = sink.sent.remove(0).1;
        app.on_mcs_message(proc(0), msg, &mut sink, &mut none);
        assert!(app.ops().is_empty(), "no spurious reads at app nodes");
        assert_eq!(app.updates().len(), 1, "update still logged");
        assert_eq!(app.peek(VarId(0)), Some(v));
    }

    #[test]
    fn sequencer_write_blocks_then_completes_in_program_order() {
        // Slot 0 is the sequencer; the host under test is slot 1.
        let mut seq = host(ProtocolKind::Sequencer, 0, 2);
        let mut h = host(ProtocolKind::Sequencer, 1, 2);
        let mut sink = TestSink::default();
        let mut none = NoUpcalls;
        let v = Value::new(proc(1), 1);
        h.issue_write(VarId(0), v, &mut sink, &mut none);
        assert!(h.write_in_flight());
        assert!(h.ops().is_empty(), "not recorded until ordered");
        let req = sink.sent.remove(0).1;
        seq.on_mcs_message(proc(1), req, &mut sink, &mut none);
        let ordered = sink.sent.remove(0).1;
        sink.now = SimTime::from_millis(3);
        h.on_mcs_message(proc(0), ordered, &mut sink, &mut none);
        assert!(!h.write_in_flight());
        assert_eq!(h.ops().len(), 1);
        assert!(h.ops()[0].kind.is_write());
        assert_eq!(h.ops()[0].at, SimTime::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "while another is in flight")]
    fn double_pending_write_panics() {
        let mut h = host(ProtocolKind::Sequencer, 1, 2);
        let mut sink = TestSink::default();
        let mut none = NoUpcalls;
        h.issue_write(VarId(0), Value::new(proc(1), 1), &mut sink, &mut none);
        h.issue_write(VarId(0), Value::new(proc(1), 2), &mut sink, &mut none);
    }

    #[test]
    fn issue_read_records_and_returns_replica_value() {
        let mut h = host(ProtocolKind::Frontier, 0, 2);
        let mut sink = TestSink::default();
        let mut none = NoUpcalls;
        assert_eq!(
            h.issue_read(VarId(1), &mut sink, &mut none),
            ReadOutcome::Done(None)
        );
        let v = Value::new(proc(0), 1);
        h.issue_write(VarId(1), v, &mut sink, &mut none);
        assert_eq!(
            h.issue_read(VarId(1), &mut sink, &mut none),
            ReadOutcome::Done(Some(v))
        );
        assert_eq!(h.ops().len(), 3);
        assert_eq!(h.take_ops().len(), 3);
        assert!(h.ops().is_empty());
        assert_eq!(h.take_updates().len(), 1);
        assert!(h.updates().is_empty());
        assert_eq!(h.take_write_responses().len(), 1);
        assert!(h.write_responses().is_empty());
    }

    #[test]
    fn update_log_tracks_causal_application_order() {
        let mut w = host(ProtocolKind::Ahamad, 0, 3);
        let mut h = host(ProtocolKind::Ahamad, 2, 3);
        let mut sink = TestSink::default();
        let mut none = NoUpcalls;
        let v1 = Value::new(proc(0), 1);
        let v2 = Value::new(proc(0), 2);
        w.issue_write(VarId(0), v1, &mut sink, &mut none);
        w.issue_write(VarId(1), v2, &mut sink, &mut none);
        // Deliver out of order; the log must still show causal order.
        let msgs: Vec<_> = sink.sent.drain(..).collect();
        let to_h: Vec<_> = msgs.into_iter().filter(|(t, _)| *t == proc(2)).collect();
        h.on_mcs_message(proc(0), to_h[1].1.clone(), &mut sink, &mut none);
        h.on_mcs_message(proc(0), to_h[0].1.clone(), &mut sink, &mut none);
        let log = h.updates();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].val, v1);
        assert_eq!(log[1].val, v2);
    }
}
