//! A single simulated core (AIC or AIV) and its non-vector intrinsics:
//! local-memory allocation, MTE transfers, the cube `Mmad`, and scalar-
//! unit work. Vector-engine intrinsics live in [`crate::vecops`].

use crate::tensor::{GlobalTensor, LocalTensor};
use ascend_sim::chip::ScratchpadKind;
use ascend_sim::{
    ChipSpec, CoreKind, CoreTimeline, CounterEvent, EngineKind, EventTime, FlagFile, HbAction,
    HbEvent, HbRecorder, Scheduler, ScratchTracker, SimError, SimResult, SpanArgs, SpanId,
    SpanRecorder, StallCause, TraceSpan,
};
use dtypes::{CubeInput, Element, Numeric};

/// Comparison modes for the vector `Compare` intrinsic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpMode {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

const NUM_SCRATCHPADS: usize = 5;

fn pad_index(pos: ScratchpadKind) -> usize {
    match pos {
        ScratchpadKind::Ub => 0,
        ScratchpadKind::L1 => 1,
        ScratchpadKind::L0A => 2,
        ScratchpadKind::L0B => 3,
        ScratchpadKind::L0C => 4,
    }
}

/// One simulated core: compute engine(s) + MTEs + scalar unit + local
/// scratchpads. Obtained from [`crate::BlockCtx`]; every intrinsic both
/// performs its real data work and advances this core's timeline.
pub struct Core<'a> {
    pub(crate) kind: CoreKind,
    pub(crate) timeline: CoreTimeline,
    pub(crate) spec: &'a ChipSpec,
    /// Simcheck identity for cross-core scratchpad-aliasing checks,
    /// derived deterministically from `(block, lane)` so that every id
    /// a launch emits (allocations, queues, hb events) is a pure
    /// function of the kernel — independent of scheduler mode and of
    /// any other launch running concurrently in the process.
    uid: u64,
    /// Index of the block this core belongs to — the identity grid-flag
    /// operations commit under (the scheduler orders them block-wise).
    block: usize,
    /// Per-core allocation id counter (simcheck lifetime tracking).
    next_alloc: u64,
    /// Per-core queue id counter (happens-before queue edges).
    next_queue: u32,
    scratch_used: [usize; NUM_SCRATCHPADS],
    tracker: ScratchTracker,
    /// Per-core tile/instruction spans (depth >= 2 in the span hierarchy:
    /// kernel = 0, block phases = 1, core work = 2). Disabled by default;
    /// `span_begin` is a no-op returning [`SpanId::NONE`] until the launch
    /// machinery enables profiling.
    recorder: SpanRecorder,
    /// Counter samples (name, time, value) flushed here by queues on
    /// destroy; drained into the kernel profile at harvest.
    counters: Vec<(&'static str, EventTime, u32)>,
    /// Happens-before event stream (GM access ranges, flag tokens,
    /// queue/alloc edges) for the schedule analyzer ([`ascend_sim::hb`]).
    /// Disabled by default; queues clone the recorder so their events
    /// land in this core's program-order stream.
    hb: HbRecorder,
}

impl<'a> Core<'a> {
    pub(crate) fn new(
        kind: CoreKind,
        spec: &'a ChipSpec,
        start: EventTime,
        block: usize,
        lane: usize,
    ) -> Self {
        Core {
            kind,
            timeline: CoreTimeline::new(kind, start),
            spec,
            // `lane + 1` keeps every uid nonzero (owner 0 = untracked).
            uid: ((block as u64) << 8) | (lane as u64 + 1),
            block,
            next_alloc: 1,
            next_queue: 1,
            scratch_used: [0; NUM_SCRATCHPADS],
            tracker: ScratchTracker::new(spec.validation.lifetime_checks()),
            recorder: SpanRecorder::new(2),
            counters: Vec::new(),
            hb: HbRecorder::disabled(),
        }
    }

    /// The core's kind (cube or vector).
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// The chip specification the core runs under.
    pub fn spec(&self) -> &ChipSpec {
        self.spec
    }

    /// The core's current completion horizon in cycles.
    pub fn now(&self) -> EventTime {
        self.timeline.now()
    }

    /// Advances the whole core to at least `t` (waiting on a cross-core
    /// event, e.g. "vector core waits for cube core").
    pub fn wait(&mut self, t: EventTime) {
        self.timeline.align_to(t);
    }

    pub(crate) fn timeline_mut(&mut self) -> &mut CoreTimeline {
        &mut self.timeline
    }

    pub(crate) fn timeline(&self) -> &CoreTimeline {
        &self.timeline
    }

    // ---------------------------------------------------------------
    // Profiling spans
    // ---------------------------------------------------------------

    /// Turns on span/counter recording for this core. Called by the
    /// launch machinery when a profile collector or trace is active;
    /// purely observational — simulated time is unaffected.
    pub(crate) fn enable_profiling(&mut self) {
        self.recorder.enable();
    }

    /// Whether profiling spans are being recorded on this core.
    pub fn profiling(&self) -> bool {
        self.recorder.enabled()
    }

    /// Opens a named span starting at the core's current completion
    /// horizon. Returns [`SpanId::NONE`] (and records nothing) when
    /// profiling is off, so kernels can instrument unconditionally.
    pub fn span_begin(&mut self, name: &'static str) -> SpanId {
        let now = self.timeline.now();
        self.recorder.begin(name, now)
    }

    /// Closes a span at the core's current completion horizon.
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.timeline.now();
        self.recorder.end(id, now);
    }

    /// Closes a span at an explicit completion event — use when the
    /// interval of interest ends at an instruction's retire time rather
    /// than the core-wide horizon (e.g. a tile whose last `copy_out`
    /// completes on MTE3 while the vector engine has moved on).
    pub fn span_end_at(&mut self, id: SpanId, at: EventTime) {
        self.recorder.end(id, at);
    }

    /// Attaches argument payload (bytes moved, instruction kind, queue
    /// depth) to an open span; shown in the trace viewer.
    pub fn span_args(&mut self, id: SpanId, args: SpanArgs) {
        self.recorder.set_args(id, args);
    }

    /// Queue-occupancy counter sink (flushed by [`crate::TQue::destroy`]).
    pub(crate) fn push_counter(&mut self, name: &'static str, time: EventTime, value: u32) {
        self.counters.push((name, time, value));
    }

    /// Harvests this core's spans (closing any left open at `final_time`).
    pub(crate) fn take_spans(
        &mut self,
        block: u32,
        core: u32,
        final_time: EventTime,
    ) -> Vec<TraceSpan> {
        self.recorder.take(block, core, final_time)
    }

    /// Turns on happens-before event recording (launch machinery; on
    /// whenever profiling or post-launch audits are active). Purely
    /// observational — simulated time is unaffected.
    pub(crate) fn enable_hb(&mut self) {
        self.hb = HbRecorder::enabled();
    }

    /// A clone of the core's happens-before recorder sharing the same
    /// stream; handed to [`crate::TQue`] so queue hand-off events land in
    /// this core's program order.
    pub(crate) fn hb_recorder(&self) -> HbRecorder {
        self.hb.clone()
    }

    fn hb_record(&self, time: EventTime, what: &'static str, action: HbAction) {
        self.hb.record(time, what, action);
    }

    /// Harvests this core's happens-before events, stamped with identity.
    pub(crate) fn take_hb(&mut self, block: u32, core: u32) -> Vec<HbEvent> {
        self.hb.take(block, core)
    }

    /// Harvests this core's counter samples.
    pub(crate) fn take_counters(&mut self, block: u32, core: u32) -> Vec<CounterEvent> {
        self.counters
            .drain(..)
            .map(|(name, time, value)| CounterEvent {
                block,
                core,
                name,
                time,
                value,
            })
            .collect()
    }

    fn check_pos_on_core(&self, what: &'static str, pos: ScratchpadKind) -> SimResult<()> {
        let ok = match self.kind {
            CoreKind::Vector => pos == ScratchpadKind::Ub,
            CoreKind::Cube => pos != ScratchpadKind::Ub,
        };
        if ok {
            Ok(())
        } else {
            Err(SimError::WrongCore {
                instr: what,
                core: self.kind.name(),
            })
        }
    }

    // ---------------------------------------------------------------
    // Local memory management
    // ---------------------------------------------------------------

    /// Allocates a local tensor of `len` elements in the scratchpad `pos`,
    /// with capacity checking. Buffers live until [`Core::free_local`]
    /// (AscendC kernels allocate their buffers once up front via `TPipe`;
    /// the same style is used here).
    pub fn alloc_local<T: Element>(
        &mut self,
        pos: ScratchpadKind,
        len: usize,
    ) -> SimResult<LocalTensor<T>> {
        self.check_pos_on_core("alloc_local", pos)?;
        let bytes = len * T::SIZE;
        let idx = pad_index(pos);
        let cap = self.spec.scratchpad_capacity(pos);
        if self.scratch_used[idx] + bytes > cap {
            return Err(SimError::ScratchpadOverflow {
                buffer: pos.name(),
                requested: bytes,
                in_use: self.scratch_used[idx],
                capacity: cap,
            });
        }
        self.scratch_used[idx] += bytes;
        let mut t = LocalTensor::new(pos, len, 0);
        if self.spec.validation.lifetime_checks() {
            // Deterministic per-core id: unique across the launch's
            // cores (uid is unique per block/lane) and across this
            // core's program order, with no global counter involved.
            let id = (self.uid << 32) | self.next_alloc;
            self.next_alloc += 1;
            self.tracker.on_alloc(id, idx, pos.name(), bytes, cap);
            t.alloc_id = id;
            t.owner = self.uid;
            self.hb_record(
                self.timeline.now(),
                "alloc_local",
                HbAction::Alloc {
                    id,
                    bytes: bytes as u64,
                },
            );
        }
        Ok(t)
    }

    /// Releases a local tensor's scratchpad space. Freeing a buffer that
    /// was already freed (a stale clone) is a use-after-free error;
    /// freeing a sibling core's buffer is a cross-core aliasing error.
    pub fn free_local<T: Element>(&mut self, t: LocalTensor<T>) -> SimResult<()> {
        self.check_owner("free_local", t.owner)?;
        self.tracker.on_free(t.alloc_id, "free_local")?;
        if t.alloc_id != 0 {
            self.hb_record(
                self.timeline.now(),
                "free_local",
                HbAction::Free { id: t.alloc_id },
            );
        }
        let idx = pad_index(t.pos);
        self.scratch_used[idx] = self.scratch_used[idx].saturating_sub(t.len() * T::SIZE);
        Ok(())
    }

    /// Simcheck identity for cross-core ownership tracking.
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// Next deterministic queue id for the happens-before stream:
    /// unique across the launch's cores and this core's program order.
    pub(crate) fn next_queue_id(&mut self) -> u32 {
        let qid = ((self.uid as u32) << 10) | self.next_queue;
        self.next_queue += 1;
        qid
    }

    /// Simcheck: a local tensor is only addressable by the core whose
    /// scratchpad holds it. Real silicon has no path from one core's UB
    /// or L0/L1 into another's; data crosses cores via global memory.
    fn check_owner(&self, what: &'static str, owner: u64) -> SimResult<()> {
        if self.spec.validation.lifetime_checks() && owner != 0 && owner != self.uid {
            return Err(SimError::CrossCoreScratchpad {
                what,
                owner,
                user: self.uid,
            });
        }
        Ok(())
    }

    /// Simcheck: validates that `t` is still a live allocation of this
    /// core (no use-after-free, no overlap with a recycled range, no
    /// cross-core scratchpad aliasing).
    pub(crate) fn check_live<T: Element>(
        &self,
        what: &'static str,
        t: &LocalTensor<T>,
    ) -> SimResult<()> {
        self.check_owner(what, t.owner)?;
        self.tracker.check_use(t.alloc_id, what)
    }

    /// Bytes currently allocated in the given scratchpad.
    pub fn scratch_in_use(&self, pos: ScratchpadKind) -> usize {
        self.scratch_used[pad_index(pos)]
    }

    // ---------------------------------------------------------------
    // MTE transfers
    // ---------------------------------------------------------------

    /// `DataCopy` GM → local: moves `len` contiguous elements from
    /// `src[src_off..]` into `dst[dst_off..]` on the MTE2 engine.
    ///
    /// `deps` carries extra cross-core dependencies (e.g. the completion
    /// time of the producer that wrote `src` from another core).
    pub fn copy_in<T: Element>(
        &mut self,
        dst: &mut LocalTensor<T>,
        dst_off: usize,
        src: &GlobalTensor<T>,
        src_off: usize,
        len: usize,
        deps: &[EventTime],
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("copy_in", dst.pos)?;
        self.check_live("copy_in dst", dst)?;
        dst.check_range("copy_in dst", dst_off, len)?;
        src.device_read(src_off, &mut dst.data[dst_off..dst_off + len])?;
        let cost = self.spec.cost_datacopy(len * T::SIZE);
        let mut all_deps = vec![dst.ready];
        all_deps.extend_from_slice(deps);
        let done = self.timeline.exec(EngineKind::Mte2, cost, &all_deps)?;
        let start = (src.region().offset + src_off * T::SIZE) as u64;
        self.hb_record(
            done,
            "copy_in",
            HbAction::GmRead {
                start,
                end: start + (len * T::SIZE) as u64,
            },
        );
        dst.ready = done;
        Ok(done)
    }

    /// `DataCopy` GM → local with a row stride on the global side: copies
    /// `rows` rows of `cols` elements each; row `r` starts at
    /// `src_off + r * src_stride` in `src` and lands contiguously in `dst`.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_in_2d<T: Element>(
        &mut self,
        dst: &mut LocalTensor<T>,
        src: &GlobalTensor<T>,
        src_off: usize,
        rows: usize,
        cols: usize,
        src_stride: usize,
        deps: &[EventTime],
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("copy_in_2d", dst.pos)?;
        self.check_live("copy_in_2d dst", dst)?;
        dst.check_range("copy_in_2d dst", 0, rows * cols)?;
        // Validate the full strided extent on the GM side up front, so a
        // bad stride errors before any partial row has been transferred.
        if rows > 0 {
            let last_start = src_off + (rows - 1) * src_stride;
            if last_start + cols > src.len() {
                return Err(SimError::OutOfBounds {
                    what: "copy_in_2d src",
                    offset: last_start * T::SIZE,
                    len: cols * T::SIZE,
                    region: src.len() * T::SIZE,
                });
            }
        }
        for r in 0..rows {
            src.device_read(
                src_off + r * src_stride,
                &mut dst.data[r * cols..(r + 1) * cols],
            )?;
        }
        // Strided rows pay line-granularity bandwidth: charge the wasted
        // part of each line both in time and in the traffic accounting.
        let row_bytes = cols * T::SIZE;
        let padded = self.spec.strided_row_bytes(row_bytes);
        if padded > row_bytes && src_stride != cols {
            src.account_read_padding((rows * (padded - row_bytes)) as u64);
        }
        let cost = if src_stride == cols {
            self.spec.cost_datacopy(rows * row_bytes)
        } else {
            self.spec.cost_datacopy_strided(rows, row_bytes)
        };
        let mut all_deps = vec![dst.ready];
        all_deps.extend_from_slice(deps);
        let done = self.timeline.exec(EngineKind::Mte2, cost, &all_deps)?;
        // Strided rows are recorded per row so the analyzer sees exact GM
        // byte ranges (a whole-span approximation would invent overlaps
        // with writes that land between the rows).
        if self.hb.is_enabled() && rows > 0 {
            let reg = src.region().offset;
            if src_stride == cols {
                let start = (reg + src_off * T::SIZE) as u64;
                self.hb_record(
                    done,
                    "copy_in_2d",
                    HbAction::GmRead {
                        start,
                        end: start + (rows * cols * T::SIZE) as u64,
                    },
                );
            } else {
                for r in 0..rows {
                    let start = (reg + (src_off + r * src_stride) * T::SIZE) as u64;
                    self.hb_record(
                        done,
                        "copy_in_2d",
                        HbAction::GmRead {
                            start,
                            end: start + (cols * T::SIZE) as u64,
                        },
                    );
                }
            }
        }
        dst.ready = done;
        Ok(done)
    }

    /// `DataCopy` local → GM with a row stride on the local side: writes
    /// `rows` rows of `cols` elements, where row `r` is read from
    /// `src[src_off + r * src_stride ..]` and lands contiguously in
    /// `dst[dst_off ..]`. One instruction; rows pay line-granularity
    /// bandwidth when strided (e.g. extracting the row-sum column of an
    /// L0C accumulator).
    #[allow(clippy::too_many_arguments)]
    pub fn copy_out_2d<T: Element>(
        &mut self,
        dst: &GlobalTensor<T>,
        dst_off: usize,
        src: &LocalTensor<T>,
        src_off: usize,
        rows: usize,
        cols: usize,
        src_stride: usize,
        deps: &[EventTime],
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("copy_out_2d", src.pos)?;
        self.check_live("copy_out_2d src", src)?;
        // Validate both full extents before moving anything (see
        // copy_in_2d): no partial GM writes on a bad stride or offset.
        if rows > 0 {
            src.check_range("copy_out_2d src", src_off + (rows - 1) * src_stride, cols)?;
            if dst_off + rows * cols > dst.len() {
                return Err(SimError::OutOfBounds {
                    what: "copy_out_2d dst",
                    offset: dst_off * T::SIZE,
                    len: rows * cols * T::SIZE,
                    region: dst.len() * T::SIZE,
                });
            }
        }
        for r in 0..rows {
            src.check_range("copy_out_2d src", src_off + r * src_stride, cols)?;
            let start = src_off + r * src_stride;
            dst.device_write(dst_off + r * cols, &src.data[start..start + cols])?;
        }
        let engine = if src.pos == ScratchpadKind::L0C {
            EngineKind::Fixp
        } else {
            EngineKind::Mte3
        };
        let row_bytes = cols * T::SIZE;
        let cost = if src_stride == cols {
            self.spec.cost_datacopy(rows * row_bytes)
        } else {
            self.spec.cost_datacopy_strided(rows, row_bytes)
        };
        let mut all_deps = vec![src.ready];
        all_deps.extend_from_slice(deps);
        let done = self.timeline.exec(engine, cost, &all_deps)?;
        let start = (dst.region().offset + dst_off * T::SIZE) as u64;
        self.hb_record(
            done,
            "copy_out_2d",
            HbAction::GmWrite {
                start,
                end: start + (rows * cols * T::SIZE) as u64,
            },
        );
        Ok(done)
    }

    /// `DataCopy` local → GM on MTE3 (UB/L1 sources) or the FIXP pipe
    /// (L0C sources). Returns the completion time — pass it to another
    /// core's `deps` to model cross-core hand-off through global memory.
    pub fn copy_out<T: Element>(
        &mut self,
        dst: &GlobalTensor<T>,
        dst_off: usize,
        src: &LocalTensor<T>,
        src_off: usize,
        len: usize,
        deps: &[EventTime],
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("copy_out", src.pos)?;
        self.check_live("copy_out src", src)?;
        src.check_range("copy_out src", src_off, len)?;
        dst.device_write(dst_off, &src.data[src_off..src_off + len])?;
        let engine = if src.pos == ScratchpadKind::L0C {
            EngineKind::Fixp
        } else {
            EngineKind::Mte3
        };
        let cost = self.spec.cost_datacopy(len * T::SIZE);
        let mut all_deps = vec![src.ready];
        all_deps.extend_from_slice(deps);
        let done = self.timeline.exec(engine, cost, &all_deps)?;
        let start = (dst.region().offset + dst_off * T::SIZE) as u64;
        self.hb_record(
            done,
            "copy_out",
            HbAction::GmWrite {
                start,
                end: start + (len * T::SIZE) as u64,
            },
        );
        Ok(done)
    }

    /// `DataCopy` local → GM with dtype conversion on the way out (the
    /// FIXP pipe's quantization path, e.g. f32 accumulator → f16 result).
    pub fn copy_out_cast<S: Numeric, D: Numeric>(
        &mut self,
        dst: &GlobalTensor<D>,
        dst_off: usize,
        src: &LocalTensor<S>,
        src_off: usize,
        len: usize,
        deps: &[EventTime],
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("copy_out_cast", src.pos)?;
        self.check_live("copy_out_cast src", src)?;
        src.check_range("copy_out_cast src", src_off, len)?;
        dst.device_write_map(dst_off, &src.data[src_off..src_off + len], S::cast)?;
        let engine = if src.pos == ScratchpadKind::L0C {
            EngineKind::Fixp
        } else {
            EngineKind::Mte3
        };
        let cost = self.spec.cost_datacopy(len * D::SIZE.max(S::SIZE));
        let mut all_deps = vec![src.ready];
        all_deps.extend_from_slice(deps);
        let done = self.timeline.exec(engine, cost, &all_deps)?;
        let start = (dst.region().offset + dst_off * D::SIZE) as u64;
        self.hb_record(
            done,
            "copy_out_cast",
            HbAction::GmWrite {
                start,
                end: start + (len * D::SIZE) as u64,
            },
        );
        Ok(done)
    }

    /// Local → local copy: L1 → L0A/L0B rides MTE1 (cube cores); UB → UB
    /// rides the vector engine (vector cores).
    pub fn copy_local<T: Element>(
        &mut self,
        dst: &mut LocalTensor<T>,
        dst_off: usize,
        src: &LocalTensor<T>,
        src_off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("copy_local", dst.pos)?;
        self.check_pos_on_core("copy_local", src.pos)?;
        self.check_live("copy_local dst", dst)?;
        self.check_live("copy_local src", src)?;
        dst.check_range("copy_local dst", dst_off, len)?;
        src.check_range("copy_local src", src_off, len)?;
        let (engine, cost) = match self.kind {
            CoreKind::Cube => (EngineKind::Mte1, self.spec.cost_datacopy(len * T::SIZE)),
            CoreKind::Vector => (EngineKind::Vec, self.spec.cost_vector_op(len * T::SIZE)),
        };
        dst.data[dst_off..dst_off + len].copy_from_slice(&src.data[src_off..src_off + len]);
        let done = self.timeline.exec(engine, cost, &[dst.ready, src.ready])?;
        dst.ready = done;
        Ok(done)
    }

    /// Local → local copy with dtype conversion (L0C f32 → L1 f16 staging
    /// used by ScanUL1's `Copy C1 from L0C to L1`).
    pub fn copy_local_cast<S: Numeric, D: Numeric>(
        &mut self,
        dst: &mut LocalTensor<D>,
        dst_off: usize,
        src: &LocalTensor<S>,
        src_off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("copy_local_cast", dst.pos)?;
        self.check_pos_on_core("copy_local_cast", src.pos)?;
        self.check_live("copy_local_cast dst", dst)?;
        self.check_live("copy_local_cast src", src)?;
        dst.check_range("copy_local_cast dst", dst_off, len)?;
        src.check_range("copy_local_cast src", src_off, len)?;
        for (d, s) in dst.data[dst_off..dst_off + len]
            .iter_mut()
            .zip(&src.data[src_off..src_off + len])
        {
            *d = s.cast();
        }
        let engine = if src.pos == ScratchpadKind::L0C {
            EngineKind::Fixp
        } else if self.kind == CoreKind::Cube {
            EngineKind::Mte1
        } else {
            EngineKind::Vec
        };
        let cost = self.spec.cost_datacopy(len * S::SIZE.max(D::SIZE));
        let done = self.timeline.exec(engine, cost, &[dst.ready, src.ready])?;
        dst.ready = done;
        Ok(done)
    }

    /// Fills `t[off..off+len]` with a constant (AscendC `InitConstValue`
    /// for L0/L1 buffers, `Duplicate` for UB). Used to zero-pad partial
    /// tiles before a matmul.
    pub fn fill_local<T: Element>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        value: T,
    ) -> SimResult<EventTime> {
        self.check_pos_on_core("fill_local", t.pos)?;
        self.check_live("fill_local", t)?;
        t.check_range("fill_local", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = value;
        }
        let (engine, cost) = match self.kind {
            CoreKind::Cube => (EngineKind::Mte2, self.spec.cost_datacopy(len * T::SIZE)),
            CoreKind::Vector => (EngineKind::Vec, self.spec.cost_vector_op(len * T::SIZE)),
        };
        let done = self.timeline.exec(engine, cost, &[t.ready])?;
        t.ready = done;
        Ok(done)
    }

    // ---------------------------------------------------------------
    // Cube engine
    // ---------------------------------------------------------------

    /// `Mmad`: `C (+)= A @ B` on the cube engine, where `A` is an
    /// `m x k` row-major tile in L0A, `B` a `k x n` tile in L0B, and `C`
    /// an `m x n` tile in L0C holding the accumulator type.
    ///
    /// With `accumulate = false` the output is overwritten, with `true`
    /// the product is added into the existing accumulator contents (the
    /// cube unit's accumulation-buffer feature exploited by ScanUL1).
    ///
    /// The functional result uses exact widening MACs (fp16 → f32,
    /// int8 → i32) with `k` ascending, matching the hardware datapath.
    #[allow(clippy::too_many_arguments)]
    pub fn mmad<T: CubeInput>(
        &mut self,
        c: &mut LocalTensor<T::Acc>,
        a: &mut LocalTensor<T>,
        b: &mut LocalTensor<T>,
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
    ) -> SimResult<EventTime> {
        if self.kind != CoreKind::Cube {
            return Err(SimError::WrongCore {
                instr: "Mmad",
                core: self.kind.name(),
            });
        }
        if a.pos != ScratchpadKind::L0A
            || b.pos != ScratchpadKind::L0B
            || c.pos != ScratchpadKind::L0C
        {
            return Err(SimError::InvalidArgument(format!(
                "Mmad operands must be in L0A/L0B/L0C (got {}/{}/{})",
                a.pos.name(),
                b.pos.name(),
                c.pos.name()
            )));
        }
        self.check_live("Mmad A", a)?;
        self.check_live("Mmad B", b)?;
        self.check_live("Mmad C", c)?;
        a.check_range("Mmad A", 0, m * k)?;
        b.check_range("Mmad B", 0, k * n)?;
        c.check_range("Mmad C", 0, m * n)?;

        mmad_functional::<T>(&mut c.data, &a.data, &b.data, m, k, n, accumulate);

        let cost = self.spec.cost_mmad(m, k, n, T::CUBE_RATE_X4);
        let done = self
            .timeline
            .exec(EngineKind::Cube, cost, &[a.ready, b.ready, c.ready])?;
        c.ready = done;
        // Mark the inputs busy until the multiply retires: a subsequent
        // reload of a single-buffered L0A/L0B operand (ScanUL1's Line 9
        // and Line 11) must serialize behind this use (WAR hazard).
        a.ready = done;
        b.ready = done;
        Ok(done)
    }

    // ---------------------------------------------------------------
    // Scalar unit
    // ---------------------------------------------------------------

    /// Runs `n` scalar-unit operations (loop control, address/partial-sum
    /// arithmetic) after `deps`. Returns the completion time.
    pub fn scalar_ops(&mut self, n: u64, deps: &[EventTime]) -> SimResult<EventTime> {
        self.timeline
            .exec(EngineKind::Scalar, n * self.spec.cost_scalar_op(), deps)
    }

    // ---------------------------------------------------------------
    // Cross-core flags
    // ---------------------------------------------------------------

    /// `CrossCoreSetFlag`: publishes flag `id` in the block's
    /// [`FlagFile`](crate::BlockCtx::flags) once `after` (plus the
    /// core's pending scalar work) retires. Costs
    /// [`flag_set_cycles`](ChipSpec::flag_set_cycles) on the scalar
    /// pipe — the pipe-drain and publish latency. Each id is a counting
    /// semaphore: repeated sets queue up and are consumed in FIFO order
    /// by [`Core::wait_flag`], so a producer may run several hand-offs
    /// ahead of its consumer on one id. Ids at or beyond
    /// [`ChipSpec::flag_id_limit`] are rejected — real silicon has a
    /// small fixed flag register file. Returns the cycle at which the
    /// flag becomes observable to sibling cores.
    pub fn set_flag(
        &mut self,
        flags: &FlagFile,
        id: u32,
        after: &[EventTime],
    ) -> SimResult<EventTime> {
        let done = self
            .timeline
            .exec(EngineKind::FLAG_ENGINE, self.spec.flag_set_cycles, after)?;
        let token = flags.set(id, done)?;
        self.hb_record(done, "CrossCoreSetFlag", HbAction::FlagSet { id, token });
        Ok(done)
    }

    /// `CrossCoreWaitFlag`: blocks this core until the oldest pending
    /// set on flag `id` is observable (FIFO; each wait consumes one
    /// set). The set propagates across the mesh and becomes visible to
    /// sibling cores [`flag_wait_cycles`](ChipSpec::flag_wait_cycles)
    /// after it was published — the same arrival edge `SyncAll` uses.
    /// The wait itself occupies one scalar slot
    /// ([`flag_set_cycles`](ChipSpec::flag_set_cycles), a register
    /// poll); a consumer arriving after the edge resumes immediately,
    /// while one arriving early idles with the gap attributed to the
    /// `wait:flag` stall category. Returns the core's resumption time.
    ///
    /// Waiting on a flag with no pending set is an error: with the
    /// deterministic schedule the set can never arrive later, so the
    /// wait models a hardware deadlock.
    pub fn wait_flag(&mut self, flags: &FlagFile, id: u32) -> SimResult<EventTime> {
        let Some((set_at, token)) = flags.consume(id)? else {
            return Err(SimError::InvalidArgument(format!(
                "CrossCoreWaitFlag on unset flag {id}: no prior CrossCoreSetFlag \
                 is scheduled, so the wait would deadlock on hardware"
            )));
        };
        self.timeline
            .exec(EngineKind::FLAG_ENGINE, self.spec.flag_set_cycles, &[])?;
        self.timeline
            .align_to_cause(set_at + self.spec.flag_wait_cycles, StallCause::Flag);
        let now = self.timeline.now();
        self.hb_record(now, "CrossCoreWaitFlag", HbAction::FlagWait { id, token });
        Ok(now)
    }

    // ---------------------------------------------------------------
    // Grid flags (launch-wide mailboxes)
    // ---------------------------------------------------------------

    /// Publishes launch-wide grid flag `id` on the [`Scheduler`]'s grid
    /// registry once `after` (plus the core's pending scalar work)
    /// retires. Same price as [`Core::set_flag`]
    /// ([`flag_set_cycles`](ChipSpec::flag_set_cycles) on the scalar
    /// pipe) — on silicon both are a pipe drain followed by a GM/mesh
    /// store the sibling can observe. Unlike per-block flags, grid
    /// flags are visible to *every* block in the launch: they guard
    /// the per-block GM mailboxes of chained look-back scans. Each id
    /// is a FIFO counting semaphore within the same
    /// [`flag_id_limit`](ChipSpec::flag_id_limit) id space. Returns
    /// the cycle at which the flag becomes observable.
    pub fn set_grid_flag(
        &mut self,
        sched: &Scheduler,
        id: u32,
        after: &[EventTime],
    ) -> SimResult<EventTime> {
        let done = self
            .timeline
            .exec(EngineKind::FLAG_ENGINE, self.spec.flag_set_cycles, after)?;
        let token = sched.grid_set(self.block, id, done)?;
        self.hb_record(done, "GridSetFlag", HbAction::GridFlagSet { id, token });
        Ok(done)
    }

    /// Blocks this core until the oldest pending set on grid flag `id`
    /// is observable (FIFO; each wait consumes one set). Propagation
    /// and occupancy match [`Core::wait_flag`]: the set becomes
    /// visible [`flag_wait_cycles`](ChipSpec::flag_wait_cycles) after
    /// publication, the wait occupies one scalar slot, and any idle
    /// gap is attributed to `wait:flag`. Returns the core's
    /// resumption time.
    ///
    /// Waiting on a grid flag with no pending set is an error: blocks
    /// run in ascending-index waves, so only *backward* look-back
    /// (waiting on a flag a lower-indexed block already published) is
    /// supported — a forward wait could never be satisfied and models
    /// a hardware deadlock.
    pub fn wait_grid_flag(&mut self, sched: &Scheduler, id: u32) -> SimResult<EventTime> {
        let Some((set_at, token)) = sched.grid_consume(self.block, id)? else {
            return Err(SimError::InvalidArgument(format!(
                "GridWaitFlag on unset grid flag {id}: blocks execute in \
                 ascending-index waves, so only backward look-back (on a flag \
                 a lower-indexed block has already published) can ever be \
                 satisfied — this wait would deadlock on hardware"
            )));
        };
        self.timeline
            .exec(EngineKind::FLAG_ENGINE, self.spec.flag_set_cycles, &[])?;
        self.timeline
            .align_to_cause(set_at + self.spec.flag_wait_cycles, StallCause::Flag);
        let now = self.timeline.now();
        self.hb_record(now, "GridWaitFlag", HbAction::GridFlagWait { id, token });
        Ok(now)
    }

    /// Non-blocking consume of grid flag `id`: prices the register poll
    /// (one [`flag_set_cycles`](ChipSpec::flag_set_cycles) slot on the
    /// scalar pipe) but does **not** park the core on the arrival edge.
    /// Instead the set's *arrival time* (`set_at` +
    /// [`flag_wait_cycles`](ChipSpec::flag_wait_cycles)) is returned so
    /// the caller can thread it as an ordinary dependency into whatever
    /// instruction actually consumes the mailbox — letting unrelated
    /// local work overlap the propagation latency. This is how decoupled
    /// look-back hides its predecessor chain: the probe is issued early,
    /// the dependent `copy_in` is scheduled against the arrival edge,
    /// and the lane's tile loop keeps the vector pipes busy in between.
    ///
    /// Consumption semantics match [`Core::wait_grid_flag`] exactly
    /// (FIFO, one set per probe, scheduler-gated for determinism), and
    /// probing an unset flag is the same deadlock error: with ascending
    /// wave scheduling the set can never arrive later.
    pub fn probe_grid_flag(&mut self, sched: &Scheduler, id: u32) -> SimResult<EventTime> {
        let Some((set_at, token)) = sched.grid_consume(self.block, id)? else {
            return Err(SimError::InvalidArgument(format!(
                "GridProbeFlag on unset grid flag {id}: blocks execute in \
                 ascending-index waves, so only backward look-back (on a flag \
                 a lower-indexed block has already published) can ever be \
                 satisfied — this probe would deadlock on hardware"
            )));
        };
        let polled = self
            .timeline
            .exec(EngineKind::FLAG_ENGINE, self.spec.flag_set_cycles, &[])?;
        self.hb_record(
            polled,
            "GridProbeFlag",
            HbAction::GridFlagWait { id, token },
        );
        Ok(set_at + self.spec.flag_wait_cycles)
    }
}

/// Functional matmul with structure-aware fast paths.
///
/// The scan kernels only ever multiply data tiles against the constant
/// matrices `U_s` (upper-triangular ones), `1_s` (all ones) and `L_s^-`
/// (strictly-lower-triangular ones). Detecting those patterns turns the
/// O(m·k·n) kernel into an O(m·n) prefix-sum/broadcast — a pure simulator
/// speed-up with bit-identical results, since the fast paths accumulate in
/// the same (`k` ascending) order as the general loop.
fn mmad_functional<T: CubeInput>(
    c: &mut [T::Acc],
    a: &[T],
    b: &[T],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if !accumulate {
        for slot in c[..m * n].iter_mut() {
            *slot = T::Acc::zero();
        }
    }
    // The fast paths widen a row of A into `row` first: a vectorizable
    // pass, which keeps the element conversions off the serial
    // running-sum chain.
    let mut row = vec![T::Acc::zero(); k];
    // Fast path 1: B is upper-triangular ones (incl. diagonal), k == n.
    // C[i][j] += sum_{p <= j} A[i][p]  — row-wise inclusive prefix sums.
    if k == n && is_upper_ones(b, k) {
        for i in 0..m {
            widen_into(&mut row, &a[i * k..(i + 1) * k]);
            let mut run = T::Acc::zero();
            for v in row.iter_mut() {
                run = run.add(*v);
                *v = run;
            }
            for (cv, &v) in c[i * n..(i + 1) * n].iter_mut().zip(&row) {
                *cv = cv.add(v);
            }
        }
        return;
    }
    // Fast path 2: B is all ones. C[i][j] += rowsum(A[i]).
    if is_all_ones(b, k * n) {
        for i in 0..m {
            widen_into(&mut row, &a[i * k..(i + 1) * k]);
            let run = row.iter().fold(T::Acc::zero(), |run, &v| run.add(v));
            for cv in &mut c[i * n..(i + 1) * n] {
                *cv = cv.add(run);
            }
        }
        return;
    }
    // Fast path 3: A is strictly-lower-triangular ones, m == k.
    // C[i][j] += sum_{p < i} B[p][j] — column-wise exclusive prefix sums.
    if m == k && is_strict_lower_ones(a, m) {
        let mut run = vec![T::Acc::zero(); n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = c[i * n + j].add(run[j]);
            }
            if i + 1 < m {
                for j in 0..n {
                    run[j] = run[j].add(b[i * n + j].widen());
                }
            }
        }
        return;
    }
    // General path.
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            for j in 0..n {
                c[i * n + j] = c[i * n + j].add(T::mac(av, b[p * n + j]));
            }
        }
    }
}

fn widen_into<T: CubeInput>(dst: &mut [T::Acc], src: &[T]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.widen();
    }
}

/// True if every element of `v` equals `x`. No early exit, so the
/// compare vectorizes; callers exit early between rows.
fn all_eq<T: Numeric>(v: &[T], x: T) -> bool {
    v.iter().fold(true, |ok, &e| ok & (e == x))
}

fn is_upper_ones<T: Numeric>(b: &[T], s: usize) -> bool {
    b.len() >= s * s
        && b.chunks_exact(s.max(1))
            .take(s)
            .enumerate()
            .all(|(i, row)| all_eq(&row[..i], T::zero()) && all_eq(&row[i..], T::one()))
}

fn is_all_ones<T: Numeric>(b: &[T], len: usize) -> bool {
    b.len() >= len && all_eq(&b[..len], T::one())
}

fn is_strict_lower_ones<T: Numeric>(a: &[T], s: usize) -> bool {
    a.len() >= s * s
        && a.chunks_exact(s.max(1))
            .take(s)
            .enumerate()
            .all(|(i, row)| all_eq(&row[..i], T::one()) && all_eq(&row[i..], T::zero()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;

    /// Reference matmul: plain triple loop, no fast paths.
    fn reference<T: CubeInput>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T::Acc> {
        let mut c = vec![T::Acc::zero(); m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = T::Acc::zero();
                for p in 0..k {
                    acc = acc.add(T::mac(a[i * k + p], b[p * n + j]));
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn upper_ones_i8(s: usize) -> Vec<i8> {
        (0..s * s)
            .map(|idx| if idx / s <= idx % s { 1 } else { 0 })
            .collect()
    }

    fn strict_lower_ones_i8(s: usize) -> Vec<i8> {
        (0..s * s)
            .map(|idx| if idx / s > idx % s { 1 } else { 0 })
            .collect()
    }

    #[test]
    fn fast_path_upper_ones_matches_reference() {
        let s = 8;
        let a: Vec<i8> = (0..s * s).map(|i| (i % 7) as i8 - 3).collect();
        let b = upper_ones_i8(s);
        let mut c = vec![0i32; s * s];
        mmad_functional::<i8>(&mut c, &a, &b, s, s, s, false);
        assert_eq!(c, reference::<i8>(&a, &b, s, s, s));
    }

    #[test]
    fn fast_path_all_ones_matches_reference() {
        let s = 8;
        let a: Vec<i8> = (0..s * s).map(|i| (i % 5) as i8).collect();
        let b = vec![1i8; s * s];
        let mut c = vec![0i32; s * s];
        mmad_functional::<i8>(&mut c, &a, &b, s, s, s, false);
        assert_eq!(c, reference::<i8>(&a, &b, s, s, s));
    }

    #[test]
    fn fast_path_strict_lower_matches_reference() {
        let s = 8;
        let a = strict_lower_ones_i8(s);
        let b: Vec<i8> = (0..s * s).map(|i| (i % 9) as i8 - 4).collect();
        let mut c = vec![0i32; s * s];
        mmad_functional::<i8>(&mut c, &a, &b, s, s, s, false);
        assert_eq!(c, reference::<i8>(&a, &b, s, s, s));
    }

    #[test]
    fn general_path_and_accumulate() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<i8> = (0..m * k).map(|i| i as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|i| (i as i8) - 6).collect();
        let mut c = vec![0i32; m * n];
        mmad_functional::<i8>(&mut c, &a, &b, m, k, n, false);
        let expect = reference::<i8>(&a, &b, m, k, n);
        assert_eq!(c, expect);
        // Accumulate doubles the result.
        mmad_functional::<i8>(&mut c, &a, &b, m, k, n, true);
        let doubled: Vec<i32> = expect.iter().map(|v| v * 2).collect();
        assert_eq!(c, doubled);
    }

    #[test]
    fn fp16_matmul_widens_to_f32() {
        let s = 4;
        let a: Vec<F16> = (0..s * s).map(|i| F16::from_f32(i as f32 * 0.5)).collect();
        let b: Vec<F16> = (0..s * s)
            .map(|i| if i / s <= i % s { F16::ONE } else { F16::ZERO })
            .collect();
        let mut c = vec![0f32; s * s];
        mmad_functional::<F16>(&mut c, &a, &b, s, s, s, false);
        assert_eq!(c, reference::<F16>(&a, &b, s, s, s));
        // Row 0 of A is [0, .5, 1, 1.5]; prefix sums: [0, .5, 1.5, 3].
        assert_eq!(&c[..4], &[0.0, 0.5, 1.5, 3.0]);
    }

    #[test]
    fn pattern_detectors() {
        assert!(is_upper_ones(&upper_ones_i8(5), 5));
        assert!(!is_upper_ones(&strict_lower_ones_i8(5), 5));
        assert!(is_strict_lower_ones(&strict_lower_ones_i8(5), 5));
        assert!(!is_strict_lower_ones(&upper_ones_i8(5), 5));
        assert!(is_all_ones(&[1i8; 10], 10));
        assert!(!is_all_ones(&upper_ones_i8(3), 9));
    }
}
