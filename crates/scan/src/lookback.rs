//! The **decoupled multi-hop look-back** protocol: how a lane of a
//! single-pass kernel learns the sum of every lane before it without a
//! `SyncAll`. ScanC ([`crate::scanc`]) resolves its lane offsets with it,
//! and so does the fused radix-sort pass (`ops::radix_sort`), which
//! resolves each lane's per-bucket output offsets from its
//! predecessors' bucket counts.
//!
//! A lane's aggregate is a **row** of `width` elements, summed
//! element-wise: ScanC publishes one running sum (`width = 1`), a radix
//! pass one count per bucket. Each lane `L` owns two mailbox rows in
//! global memory: a **partial** row (its local aggregate, published as
//! soon as its local work finishes) and an **inclusive** row (the prefix
//! of everything through `L`, published once its own look-back
//! resolves). A successor with window `w` consumes
//!
//! * one **inclusive** edge from lane `base = max(L − w, 0)`, and
//! * **partial** edges from lanes `base+1 .. L−1`,
//!
//! accumulating `incl[base] + p[base+1] + … + p[L−1]` in ascending
//! order — the same left-associated grouping the `w = 1` chained
//! protocol produces, so results stay bit-identical across window
//! sizes. Each edge is guarded by its own grid-flag id (edges are
//! enumerated in canonical order — consumer ascending, inclusive
//! before partials — and ids cycle modulo the chip's flag-id limit;
//! `w² ≤ flag_id_limit` keeps the per-id FIFO pairings unambiguous).
//!
//! The predecessor wait is **overlapped with local work**: a lane issues
//! non-blocking [`probe_grid_flag`] consumes ([`Lookback::probe`])
//! *before* its local work, and only afterwards schedules the mailbox
//! `copy_in`s against the probes' arrival edges ([`Lookback::resolve`]).
//! The chain's wire latency (`flag_wait_cycles` per hop) is paid at most
//! `⌈nlanes / w⌉` times on the critical path instead of `nlanes` times,
//! and is hidden entirely wherever the local work runs longer than the
//! hop.
//!
//! Because the cooperative scheduler releases blocks in ascending index
//! order (wave-multiplexing grids larger than the chip), the look-back
//! is always *backward* and never deadlocks, even oversubscribed.
//!
//! [`probe_grid_flag`]: ascendc::Core::probe_grid_flag

use ascend_sim::mem::GlobalMemory;
use ascend_sim::Scheduler;
use ascendc::{
    ChipSpec, Core, EventTime, GlobalTensor, LocalTensor, ScratchpadKind, SimError, SimResult,
    SpanArgs,
};
use dtypes::Numeric;
use std::sync::Arc;

/// One look-back edge a lane consumes: the producer lane, whether it is
/// the inclusive (vs. partial) mailbox slot, and the grid-flag id
/// guarding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConsumeEdge {
    producer: usize,
    inclusive: bool,
    id: u32,
}

/// The static per-lane look-back schedule for `nlanes` lanes with
/// window `w`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LaneEdges {
    /// Edges this lane consumes, inclusive edge first, then partial
    /// edges by ascending producer — the accumulation order.
    consume: Vec<ConsumeEdge>,
    /// Grid-flag ids this lane sets after publishing its *partial*
    /// aggregate (one per consumer, consumers ascending).
    publish_partial: Vec<u32>,
    /// Grid-flag ids this lane sets after publishing its *inclusive*
    /// prefix (one per consumer, consumers ascending).
    publish_inclusive: Vec<u32>,
}

/// Enumerates every look-back edge in canonical order (consumer lane
/// ascending; within a consumer: the inclusive edge first, then partial
/// edges by ascending producer) and assigns grid-flag ids cyclically.
/// Both sides of the protocol derive from this one schedule, so a
/// producer's k-th set on an id always pairs with the intended
/// consumer's k-th consume.
fn lookback_edges(nlanes: usize, w: usize, flag_ids: u32) -> Vec<LaneEdges> {
    let mut lanes: Vec<LaneEdges> = vec![LaneEdges::default(); nlanes];
    let mut next = 0u32;
    let mut take = || {
        let id = next % flag_ids;
        next += 1;
        id
    };
    for m in 1..nlanes {
        let base = m.saturating_sub(w);
        let id = take();
        lanes[m].consume.push(ConsumeEdge {
            producer: base,
            inclusive: true,
            id,
        });
        lanes[base].publish_inclusive.push(id);
        for j in base + 1..m {
            let id = take();
            lanes[m].consume.push(ConsumeEdge {
                producer: j,
                inclusive: false,
                id,
            });
            lanes[j].publish_partial.push(id);
        }
    }
    lanes
}

/// The widest look-back window (capped at 4) the chip's flag-id file
/// supports: the largest `w` with `w² ≤ flag_id_limit`.
pub fn max_window(spec: &ChipSpec) -> usize {
    let mut w = 4usize;
    while w > 1 && w * w > spec.flag_id_limit as usize {
        w -= 1;
    }
    w
}

/// A launch's look-back state: the per-lane mailboxes (`2 · nlanes`
/// rows of `width` elements of `O`) and the static edge schedule. Built
/// on the host before the launch and shared by every lane.
pub struct Lookback<O: Numeric> {
    /// Lane `L`'s partial aggregate in row `L`, its inclusive prefix in
    /// row `nlanes + L`. Separate addresses keep the two publishes free
    /// of write-after-write hazards and let a consumer read exactly the
    /// state it needs.
    mailbox: GlobalTensor<O>,
    width: usize,
    edges: Vec<LaneEdges>,
}

/// One lane's side of the protocol between [`Lookback::probe`] and
/// [`LaneLookback::free`]: the probes' arrival edges and the lane's two
/// one-row publish buffers.
pub struct LaneLookback<O: Numeric> {
    lane: usize,
    arrivals: Vec<EventTime>,
    partial: Option<LocalTensor<O>>,
    inclusive: Option<LocalTensor<O>>,
}

impl<O: Numeric> Lookback<O> {
    /// Mailboxes and edge schedule for `nlanes` lanes publishing rows of
    /// `width` elements with window `w`, grid-flag ids cycling modulo
    /// `flag_ids`.
    pub fn new(
        gm: &Arc<GlobalMemory>,
        nlanes: usize,
        width: usize,
        w: usize,
        flag_ids: u32,
    ) -> SimResult<Self> {
        if width == 0 {
            return Err(SimError::InvalidArgument(
                "look-back rows need at least one element".into(),
            ));
        }
        Ok(Lookback {
            mailbox: GlobalTensor::<O>::new(gm, 2 * nlanes * width)?,
            width,
            edges: lookback_edges(nlanes, w, flag_ids),
        })
    }

    fn nlanes(&self) -> usize {
        self.edges.len()
    }

    fn check_row(&self, what: &str, row: &[O]) -> SimResult<()> {
        if row.len() != self.width {
            return Err(SimError::InvalidArgument(format!(
                "look-back {what}: row of {} elements, mailbox rows hold {}",
                row.len(),
                self.width
            )));
        }
        Ok(())
    }

    /// Probes every look-back edge of `lane`. Call this *before* the
    /// lane's local work: the poll is priced now (one flag slot each),
    /// the predecessor sets propagate while the lane works, and the
    /// arrival edges are threaded into the mailbox copy-ins by
    /// [`Lookback::resolve`].
    pub fn probe(
        &self,
        vc: &mut Core<'_>,
        grid: &Scheduler,
        lane: usize,
    ) -> SimResult<LaneLookback<O>> {
        let consume = &self.edges[lane].consume;
        let mut arrivals = Vec::with_capacity(consume.len());
        if !consume.is_empty() {
            let probe = vc.span_begin("lookback:probe");
            for e in consume {
                let hop = vc.span_begin("lookback:hop");
                let at = vc.probe_grid_flag(grid, e.id)?;
                vc.span_args(
                    hop,
                    SpanArgs {
                        bytes: (self.width * O::SIZE) as u64,
                        kind: if e.inclusive {
                            "probe-incl"
                        } else {
                            "probe-part"
                        },
                        queue_depth: (lane - e.producer) as u32,
                    },
                );
                vc.span_end(hop);
                arrivals.push(at);
            }
            vc.span_end(probe);
        }
        Ok(LaneLookback {
            lane,
            arrivals,
            partial: None,
            inclusive: None,
        })
    }

    /// Publishes the lane's *partial* aggregate row the moment its local
    /// work produces it — successors within the window can fold it into
    /// their prefixes without waiting for this lane's own look-back to
    /// resolve.
    pub fn publish_partial(
        &self,
        vc: &mut Core<'_>,
        grid: &Scheduler,
        st: &mut LaneLookback<O>,
        partial: &[O],
        partial_ready: EventTime,
    ) -> SimResult<()> {
        self.check_row("partial", partial)?;
        let (lane, width) = (st.lane, self.width);
        let mut mb = vc.alloc_local::<O>(ScratchpadKind::Ub, width)?;
        let ids = &self.edges[lane].publish_partial;
        if !ids.is_empty() {
            let publish = vc.span_begin("lookback:publish-partial");
            for (j, &p) in partial.iter().enumerate() {
                vc.insert(&mut mb, j, p, partial_ready)?;
            }
            let stored = vc.copy_out(&self.mailbox, lane * width, &mb, 0, width, &[])?;
            for &id in ids {
                vc.set_grid_flag(grid, id, &[stored])?;
            }
            vc.span_end_at(publish, stored);
        }
        st.partial = Some(mb);
        Ok(())
    }

    /// Resolves the lane's exclusive prefix row and publishes its
    /// inclusive one. Returns the exclusive prefix and when it is ready.
    ///
    /// The probed mailbox rows are copied in (each gated on its arrival
    /// edge, long since in flight) and folded in ascending producer
    /// order: row 0 holds the inclusive prefix through `base`, and each
    /// partial row is added to it. A one-element row is added with the
    /// same element+scalar `vadds` the chained protocol uses, so the
    /// grouping — and hence every rounded fp16 bit — matches `w = 1`;
    /// wider rows take one vector `Add` per row, which groups each
    /// element the same way.
    ///
    /// The inclusive prefix is `partial ⊕ prev`, computed directly on a
    /// one-row mailbox buffer and published on the shortest possible
    /// path, without a whole-tile vector op on the chain link a
    /// successor is polling.
    pub fn resolve(
        &self,
        vc: &mut Core<'_>,
        grid: &Scheduler,
        st: &mut LaneLookback<O>,
        partial: &[O],
        partial_ready: EventTime,
    ) -> SimResult<(Vec<O>, EventTime)> {
        self.check_row("partial", partial)?;
        let (lane, width) = (st.lane, self.width);
        let edges = &self.edges[lane];
        let lookback = vc.span_begin("lookback");
        let nhops = edges.consume.len();
        let mut prev = vec![O::zero(); width];
        let mut prev_ready = 0;
        if nhops > 0 {
            let mut hop = vc.alloc_local::<O>(ScratchpadKind::Ub, nhops * width)?;
            for (k, e) in edges.consume.iter().enumerate() {
                let row = if e.inclusive {
                    self.nlanes() + e.producer
                } else {
                    e.producer
                };
                vc.copy_in(
                    &mut hop,
                    k * width,
                    &self.mailbox,
                    row * width,
                    width,
                    &[st.arrivals[k]],
                )?;
            }
            for k in 1..nhops {
                if width == 1 {
                    let (pk, pk_ready) = vc.extract(&hop, k)?;
                    vc.vadds(&mut hop, 0, 1, pk, pk_ready)?;
                } else {
                    vc.vadd_rows(&mut hop, 0, k * width, width)?;
                }
            }
            for (j, p) in prev.iter_mut().enumerate() {
                let (v, ready) = vc.extract(&hop, j)?;
                *p = v;
                prev_ready = prev_ready.max(ready);
            }
            vc.free_local(hop)?;
        }

        let mut mb = vc.alloc_local::<O>(ScratchpadKind::Ub, width)?;
        if !edges.publish_inclusive.is_empty() {
            for (j, &p) in partial.iter().enumerate() {
                vc.insert(&mut mb, j, p, partial_ready)?;
            }
            for (j, &p) in prev.iter().enumerate() {
                vc.vadds(&mut mb, j, 1, p, prev_ready)?;
            }
            let stored = vc.copy_out(
                &self.mailbox,
                (self.nlanes() + lane) * width,
                &mb,
                0,
                width,
                &[],
            )?;
            for &id in &edges.publish_inclusive {
                vc.set_grid_flag(grid, id, &[stored])?;
            }
            vc.span_end_at(lookback, stored);
        } else {
            vc.span_end_at(lookback, prev_ready);
        }
        st.inclusive = Some(mb);
        Ok((prev, prev_ready))
    }
}

impl<O: Numeric> LaneLookback<O> {
    /// Releases the lane's publish buffers (inclusive, then partial).
    pub fn free(self, vc: &mut Core<'_>) -> SimResult<()> {
        if let Some(mb) = self.inclusive {
            vc.free_local(mb)?;
        }
        if let Some(mb) = self.partial {
            vc.free_local(mb)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascendc::launch;
    use dtypes::F16;

    #[test]
    fn edge_schedule_window_one_is_the_chained_protocol() {
        let lanes = lookback_edges(6, 1, 8);
        for (m, lane) in lanes.iter().enumerate().skip(1) {
            assert_eq!(
                lane.consume,
                vec![ConsumeEdge {
                    producer: m - 1,
                    inclusive: true,
                    id: ((m - 1) % 8) as u32,
                }]
            );
            assert!(lane.publish_partial.is_empty());
        }
        assert_eq!(lanes[5].publish_inclusive, Vec::<u32>::new());
    }

    #[test]
    fn edge_schedule_counts_and_pairing() {
        // 5 lanes, w = 2: consumer m consumes min(m, 2) edges; 7 edges
        // total fit the tiny chip's 8 ids without reuse.
        let lanes = lookback_edges(5, 2, 8);
        let total: usize = lanes.iter().map(|l| l.consume.len()).sum();
        assert_eq!(total, 1 + 2 + 2 + 2);
        // Every consumed id is published by exactly the matching lane.
        for (m, le) in lanes.iter().enumerate() {
            for e in &le.consume {
                let p = &lanes[e.producer];
                let published = if e.inclusive {
                    &p.publish_inclusive
                } else {
                    &p.publish_partial
                };
                assert!(published.contains(&e.id), "lane {m} edge {e:?}");
            }
        }
        // Lane 0 publishes inclusive only; the last lane publishes
        // nothing.
        assert!(lanes[0].publish_partial.is_empty());
        assert_eq!(lanes[0].publish_inclusive.len(), 2);
        assert!(lanes[4].publish_partial.is_empty());
        assert!(lanes[4].publish_inclusive.is_empty());
    }

    /// Runs one lane per row of `rows`: each publishes its row, resolves
    /// its exclusive prefix with window `w` and stores it. Returns the
    /// prefixes, lane-major.
    fn fold_rows(rows: &[Vec<F16>], w: usize) -> Vec<F16> {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let (nlanes, width) = (rows.len(), rows[0].len());
        let lb = Lookback::<F16>::new(&gm, nlanes, width, w, spec.flag_id_limit).unwrap();
        let out = GlobalTensor::<F16>::new(&gm, nlanes * width).unwrap();
        let vpc = spec.vec_per_core as usize;
        launch(&spec, &gm, nlanes.div_ceil(vpc) as u32, "FoldRows", |ctx| {
            let grid = ctx.grid();
            for v in 0..vpc {
                let lane = ctx.block_idx as usize * vpc + v;
                if lane >= nlanes {
                    continue;
                }
                let vc = &mut ctx.vecs[v];
                let mut st = lb.probe(vc, grid, lane)?;
                lb.publish_partial(vc, grid, &mut st, &rows[lane], 0)?;
                let (prev, ready) = lb.resolve(vc, grid, &mut st, &rows[lane], 0)?;
                let mut buf = vc.alloc_local::<F16>(ScratchpadKind::Ub, width)?;
                for (j, &p) in prev.iter().enumerate() {
                    vc.insert(&mut buf, j, p, ready)?;
                }
                vc.copy_out(&out, lane * width, &buf, 0, width, &[])?;
                vc.free_local(buf)?;
                st.free(vc)?;
            }
            Ok(())
        })
        .unwrap();
        out.to_vec()
    }

    #[test]
    fn row_fold_equals_independent_scalar_folds() {
        // fp16 rows whose sums round: the width-D fold must group every
        // element exactly as a width-1 fold of that element alone.
        let (nlanes, width) = (7, 5);
        let rows: Vec<Vec<F16>> = (0..nlanes)
            .map(|l| {
                (0..width)
                    .map(|j| F16::from_f32(1000.0 + (l * 7 + j * 3) as f32 * 0.37))
                    .collect()
            })
            .collect();
        for w in [1, 2] {
            let wide = fold_rows(&rows, w);
            for j in 0..width {
                let column: Vec<Vec<F16>> = rows.iter().map(|r| vec![r[j]]).collect();
                let narrow = fold_rows(&column, w);
                for lane in 0..nlanes {
                    assert_eq!(
                        wide[lane * width + j].to_bits(),
                        narrow[lane].to_bits(),
                        "w = {w}, lane {lane}, element {j}"
                    );
                }
            }
            assert_eq!(
                wide[..width],
                vec![F16::ZERO; width][..],
                "lane 0 has no prefix"
            );
        }
    }

    #[test]
    fn rows_must_match_the_mailbox_width() {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        assert!(Lookback::<i32>::new(&gm, 3, 0, 1, spec.flag_id_limit).is_err());
    }

    #[test]
    fn max_window_fits_the_flag_file() {
        assert_eq!(max_window(&ChipSpec::ascend_910b4()), 4);
        assert_eq!(max_window(&ChipSpec::tiny()), 2);
    }
}
