//! Execution-trace capture and chrome://tracing export.
//!
//! When tracing is enabled on a core's timeline, every instruction's
//! engine occupancy interval is recorded. [`to_chrome_json`] renders the
//! collected events in the Chrome Trace Event format — open the file at
//! `chrome://tracing` (or https://ui.perfetto.dev) to inspect how the
//! cube, vector, MTE and scalar engines of every core overlap, where
//! double buffering hides transfers, and what the critical path is.

use crate::engine::EngineKind;
use crate::error::{SimError, SimResult};
use std::cell::RefCell;
use std::rc::Rc;

/// Dense slots for per-`(block, core, engine)` streams of a launch's
/// records. Block and core ids are launch-grid coordinates, so an array
/// indexed by them replaces a hash map, and slot order is key order.
pub(crate) struct StreamIndex {
    cores: usize,
    len: usize,
}

impl StreamIndex {
    /// Sizes the index for the `(block, core)` ids in `ids`.
    pub(crate) fn new(ids: impl Iterator<Item = (u32, u32)>) -> Self {
        let (mut blocks, mut cores) = (0, 1);
        for (b, c) in ids {
            blocks = blocks.max(b as usize + 1);
            cores = cores.max(c as usize + 1);
        }
        StreamIndex {
            cores,
            len: blocks * cores * EngineKind::ALL.len(),
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot of stream `(block, core, engine)`.
    pub(crate) fn slot(&self, block: u32, core: u32, engine: EngineKind) -> usize {
        (block as usize * self.cores + core as usize) * EngineKind::ALL.len() + engine.index()
    }

    /// The `(block, core, engine index)` key of `slot`.
    pub(crate) fn key(&self, slot: usize) -> (u32, u32, usize) {
        let engines = EngineKind::ALL.len();
        (
            (slot / engines / self.cores) as u32,
            (slot / engines % self.cores) as u32,
            slot % engines,
        )
    }
}

/// One engine-occupancy interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Block index the core belongs to.
    pub block: u32,
    /// Core index within the block (0 = cube, 1.. = vector cores).
    pub core: u32,
    /// The engine that executed the instruction.
    pub engine: EngineKind,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// One happens-before-relevant action recorded during a launch — the
/// raw material of the `hb` module's schedule analysis. All byte
/// addresses are absolute GM offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HbAction {
    /// An engine read GM bytes `[start, end)`.
    GmRead {
        /// First byte offset of the access.
        start: u64,
        /// One past the last byte of the access.
        end: u64,
    },
    /// An engine wrote GM bytes `[start, end)`.
    GmWrite {
        /// First byte offset of the access.
        start: u64,
        /// One past the last byte of the access.
        end: u64,
    },
    /// `CrossCoreSetFlag`: published the set with the given token.
    FlagSet {
        /// The flag id.
        id: u32,
        /// The set's unique token within the block's flag file.
        token: u64,
    },
    /// `CrossCoreWaitFlag`: consumed the set with the given token.
    FlagWait {
        /// The flag id.
        id: u32,
        /// Token of the consumed set.
        token: u64,
    },
    /// `GridSetFlag`: published a launch-wide mailbox flag set with the
    /// given token (the chained look-back protocol's publish step).
    GridFlagSet {
        /// The grid flag id.
        id: u32,
        /// The set's launch-unique token.
        token: u64,
    },
    /// `GridWaitFlag`: consumed the launch-wide set with the given token.
    GridFlagWait {
        /// The grid flag id.
        id: u32,
        /// Token of the consumed set.
        token: u64,
    },
    /// The core participated in `SyncAll` barrier round `round`.
    Barrier {
        /// Zero-based barrier round within the launch.
        round: u32,
    },
    /// A `TQue` was created.
    QueueCreate {
        /// Launch-unique queue id.
        queue: u32,
    },
    /// A tensor was enqueued on a `TQue`.
    Enque {
        /// The queue's id.
        queue: u32,
    },
    /// A tensor was dequeued from a `TQue`.
    Deque {
        /// The queue's id.
        queue: u32,
    },
    /// A `TQue` was destroyed.
    QueueDestroy {
        /// The queue's id.
        queue: u32,
    },
    /// A local scratchpad buffer was allocated.
    Alloc {
        /// The allocation's unique id.
        id: u64,
        /// Allocation size in bytes.
        bytes: u64,
    },
    /// A local scratchpad buffer was freed.
    Free {
        /// The allocation's unique id.
        id: u64,
    },
}

/// One recorded happens-before event. Events of the same `(block, core)`
/// pair are in program order within the harvested event list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HbEvent {
    /// Block index the event belongs to.
    pub block: u32,
    /// Core index within the block (0 = cube, 1.. = vector cores).
    pub core: u32,
    /// Completion cycle of the instruction that produced the event.
    pub time: u64,
    /// The instruction or operation name (e.g. "DataCopy", "Mmad").
    pub what: &'static str,
    /// What happened.
    pub action: HbAction,
}

/// Shared recorder for happens-before events on one core. Cloning shares
/// the underlying buffer, so a `TQue` created on a core appends into the
/// same program-order stream. Disabled recorders make every call a no-op
/// — kernels record unconditionally at zero cost.
#[derive(Clone, Debug, Default)]
pub struct HbRecorder(Option<HbLog>);

/// The shared program-order event buffer behind an enabled recorder.
type HbLog = Rc<RefCell<Vec<(u64, &'static str, HbAction)>>>;

impl HbRecorder {
    /// A recorder that drops everything.
    pub fn disabled() -> Self {
        HbRecorder(None)
    }

    /// A recorder that keeps events.
    pub fn enabled() -> Self {
        HbRecorder(Some(Rc::new(RefCell::new(Vec::new()))))
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Appends one event (no-op when disabled).
    pub fn record(&self, time: u64, what: &'static str, action: HbAction) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().push((time, what, action));
        }
    }

    /// Drains the recorded events, stamping them with their block/core
    /// identity.
    pub fn take(&self, block: u32, core: u32) -> Vec<HbEvent> {
        match &self.0 {
            None => Vec::new(),
            Some(buf) => buf
                .borrow_mut()
                .drain(..)
                .map(|(time, what, action)| HbEvent {
                    block,
                    core,
                    time,
                    what,
                    action,
                })
                .collect(),
        }
    }
}

/// Renders happens-before events as a JSON array (the `"hbEvents"` value
/// of the `ascend-trace/v1` schema). Lossless: [`parse_hb_json`] inverts
/// it.
pub fn hb_events_json(events: &[HbEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"block\":{},\"core\":{},\"time\":{},\"what\":\"{}\",",
            e.block,
            e.core,
            e.time,
            json_escape(e.what)
        ));
        let action = match e.action {
            HbAction::GmRead { start, end } => {
                format!("\"action\":\"gmRead\",\"start\":{start},\"end\":{end}")
            }
            HbAction::GmWrite { start, end } => {
                format!("\"action\":\"gmWrite\",\"start\":{start},\"end\":{end}")
            }
            HbAction::FlagSet { id, token } => {
                format!("\"action\":\"flagSet\",\"id\":{id},\"token\":{token}")
            }
            HbAction::FlagWait { id, token } => {
                format!("\"action\":\"flagWait\",\"id\":{id},\"token\":{token}")
            }
            HbAction::GridFlagSet { id, token } => {
                format!("\"action\":\"gridFlagSet\",\"id\":{id},\"token\":{token}")
            }
            HbAction::GridFlagWait { id, token } => {
                format!("\"action\":\"gridFlagWait\",\"id\":{id},\"token\":{token}")
            }
            HbAction::Barrier { round } => format!("\"action\":\"barrier\",\"round\":{round}"),
            HbAction::QueueCreate { queue } => {
                format!("\"action\":\"queueCreate\",\"queue\":{queue}")
            }
            HbAction::Enque { queue } => format!("\"action\":\"enque\",\"queue\":{queue}"),
            HbAction::Deque { queue } => format!("\"action\":\"deque\",\"queue\":{queue}"),
            HbAction::QueueDestroy { queue } => {
                format!("\"action\":\"queueDestroy\",\"queue\":{queue}")
            }
            HbAction::Alloc { id, bytes } => {
                format!("\"action\":\"alloc\",\"id\":{id},\"bytes\":{bytes}")
            }
            HbAction::Free { id } => format!("\"action\":\"free\",\"id\":{id}"),
        };
        out.push_str(&action);
        out.push('}');
    }
    out.push(']');
    out
}

/// Reverses [`json_escape`] for one string-literal body.
fn json_unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('/') => out.push('/'),
            Some('u') => {
                let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                if hex.len() != 4 {
                    return Err(format!("truncated \\u escape in {s:?}"));
                }
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|e| format!("bad \\u{hex}: {e}"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad code point {code}"))?);
            }
            other => return Err(format!("bad escape \\{other:?} in {s:?}")),
        }
    }
    Ok(out)
}

/// Parses happens-before events back out of a JSON document — either a
/// bare [`hb_events_json`] array or a full `ascend-trace/v1` profile
/// document carrying an `"hbEvents"` key. Hand-rolled (the repo has no
/// JSON dependency); tolerates arbitrary escaped content inside string
/// values.
pub fn parse_hb_json(doc: &str) -> Result<Vec<HbEvent>, String> {
    // Locate the array. `json_escape` never leaves a raw quote inside a
    // string body, so the literal key below cannot occur inside one.
    let body = match doc.find("\"hbEvents\":") {
        Some(pos) => &doc[pos + "\"hbEvents\":".len()..],
        None => doc,
    };
    let start = body
        .find('[')
        .ok_or_else(|| "no hbEvents array found".to_string())?;
    let bytes = body[start + 1..].char_indices();

    // Split the array into top-level `{...}` object slices, honouring
    // string literals.
    let mut objects: Vec<&str> = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    let mut in_string = false;
    let mut escaped = false;
    let mut closed = false;
    let base = start + 1;
    for (i, c) in bytes {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced braces".to_string())?;
                if depth == 0 {
                    let s = obj_start.take().ok_or_else(|| "stray '}'".to_string())?;
                    objects.push(&body[base + s..base + i + c.len_utf8()]);
                }
            }
            ']' if depth == 0 => {
                closed = true;
                break;
            }
            _ => {}
        }
    }
    if !closed {
        return Err("unterminated hbEvents array".to_string());
    }

    // Intern parsed names so `HbEvent::what` stays `&'static str`
    // (recording side uses static literals; the handful of distinct
    // names per document makes the leak bounded).
    let mut interned: std::collections::HashMap<String, &'static str> =
        std::collections::HashMap::new();
    let mut events = Vec::with_capacity(objects.len());
    for obj in objects {
        events.push(parse_hb_object(obj, &mut interned)?);
    }
    Ok(events)
}

/// Parses one `{...}` object of [`hb_events_json`] output.
fn parse_hb_object(
    obj: &str,
    interned: &mut std::collections::HashMap<String, &'static str>,
) -> Result<HbEvent, String> {
    let mut nums: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut strs: std::collections::HashMap<String, String> = std::collections::HashMap::new();

    let inner = obj
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not an object: {obj}"))?;
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        // Key.
        let r = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected key in {rest:?}"))?;
        let key_end = scan_string_body(r)?;
        let key = json_unescape(&r[..key_end])?;
        let r = r[key_end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("missing ':' after key {key:?}"))?;
        let r = r.trim_start();
        // Value: a string or an unsigned number.
        if let Some(v) = r.strip_prefix('"') {
            let val_end = scan_string_body(v)?;
            strs.insert(key, json_unescape(&v[..val_end])?);
            rest = v[val_end + 1..].trim_start();
        } else {
            let digits: usize = r.chars().take_while(char::is_ascii_digit).count();
            if digits == 0 {
                return Err(format!("expected value for key {key:?} in {obj}"));
            }
            let n: u64 = r[..digits]
                .parse()
                .map_err(|e| format!("bad number for {key:?}: {e}"))?;
            nums.insert(key, n);
            rest = r[digits..].trim_start();
        }
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }

    let num = |key: &str| -> Result<u64, String> {
        nums.get(key)
            .copied()
            .ok_or_else(|| format!("missing numeric field {key:?} in {obj}"))
    };
    let num32 = |key: &str| -> Result<u32, String> {
        u32::try_from(num(key)?).map_err(|e| format!("field {key:?} out of range: {e}"))
    };
    let action_kind = strs
        .get("action")
        .ok_or_else(|| format!("missing action in {obj}"))?
        .clone();
    let action = match action_kind.as_str() {
        "gmRead" => HbAction::GmRead {
            start: num("start")?,
            end: num("end")?,
        },
        "gmWrite" => HbAction::GmWrite {
            start: num("start")?,
            end: num("end")?,
        },
        "flagSet" => HbAction::FlagSet {
            id: num32("id")?,
            token: num("token")?,
        },
        "flagWait" => HbAction::FlagWait {
            id: num32("id")?,
            token: num("token")?,
        },
        "gridFlagSet" => HbAction::GridFlagSet {
            id: num32("id")?,
            token: num("token")?,
        },
        "gridFlagWait" => HbAction::GridFlagWait {
            id: num32("id")?,
            token: num("token")?,
        },
        "barrier" => HbAction::Barrier {
            round: num32("round")?,
        },
        "queueCreate" => HbAction::QueueCreate {
            queue: num32("queue")?,
        },
        "enque" => HbAction::Enque {
            queue: num32("queue")?,
        },
        "deque" => HbAction::Deque {
            queue: num32("queue")?,
        },
        "queueDestroy" => HbAction::QueueDestroy {
            queue: num32("queue")?,
        },
        "alloc" => HbAction::Alloc {
            id: num("id")?,
            bytes: num("bytes")?,
        },
        "free" => HbAction::Free { id: num("id")? },
        other => return Err(format!("unknown action {other:?}")),
    };
    let what_owned = strs
        .get("what")
        .ok_or_else(|| format!("missing what in {obj}"))?
        .clone();
    let what: &'static str = match interned.get(&what_owned) {
        Some(s) => s,
        None => {
            let leaked: &'static str = Box::leak(what_owned.clone().into_boxed_str());
            interned.insert(what_owned, leaked);
            leaked
        }
    };
    Ok(HbEvent {
        block: num32("block")?,
        core: num32("core")?,
        time: num("time")?,
        what,
        action,
    })
}

/// Returns the byte index of the closing quote of a string literal body
/// (input starts just after the opening quote).
fn scan_string_body(s: &str) -> Result<usize, String> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Ok(i);
        }
    }
    Err(format!("unterminated string in {s:?}"))
}

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters are encoded so that a hostile
/// event/span name can never break the document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Audits that the trace never claims one *physical* core's engine is
/// busy in two overlapping intervals.
///
/// When a launch multiplexes more blocks than the chip has AI cores,
/// block `i` time-shares physical core slot `i % phys_blocks`; a block
/// that migrates onto a slot must only emit busy intervals after the
/// previous tenant's last interval on that engine ended. An overlap
/// means the exported trace double-books silicon — rendering tools
/// display it as impossible parallelism and occupancy sums exceed 100%.
///
/// `phys_blocks` is the number of physical block slots
/// (`min(blocks, ai_cores)`); event order does not matter — intervals
/// are sorted per slot before checking.
pub fn audit_physical_occupancy(events: &[TraceEvent], phys_blocks: u32) -> SimResult<()> {
    let phys = phys_blocks.max(1);
    let index = StreamIndex::new(events.iter().map(|e| (e.block % phys, e.core)));
    // One (slot, core, engine) stream of (start, end, block) intervals.
    let mut streams: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); index.len()];
    for e in events {
        streams[index.slot(e.block % phys, e.core, e.engine)].push((e.start, e.end, e.block));
    }
    for (i, mut iv) in streams.into_iter().enumerate() {
        let (slot, core, engine) = index.key(i);
        iv.sort_unstable();
        for w in iv.windows(2) {
            let (prev_start, prev_end, prev_block) = w[0];
            let (start, end, block) = w[1];
            if start < prev_end && prev_start < end {
                return Err(SimError::AccountingViolation {
                    what: "physical core occupancy",
                    detail: format!(
                        "slot {slot} core {core} engine {}: block {block} busy [{start}, {end}) \
                         overlaps block {prev_block}'s interval [{prev_start}, {prev_end})",
                        EngineKind::ALL[engine].name(),
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Renders events as a Chrome Trace Event JSON document.
///
/// `clock_ghz` converts cycles to the microsecond timestamps the format
/// expects. Tracks: one *process* per block, one *thread* per
/// (core, engine) pair. All names pass through [`json_escape`].
pub fn to_chrome_json(events: &[TraceEvent], clock_ghz: f64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    let to_us = |cycles: u64| cycles as f64 / (clock_ghz * 1e3);
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let core_name = if e.core == 0 {
            "cube".to_string()
        } else {
            format!("vec{}", e.core - 1)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":\"{}.{}\"}}",
            json_escape(e.engine.name()),
            to_us(e.start),
            to_us(e.end.saturating_sub(e.start)).max(0.001),
            e.block,
            json_escape(&core_name),
            json_escape(e.engine.name()),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_is_well_formed() {
        let events = vec![
            TraceEvent {
                block: 0,
                core: 0,
                engine: EngineKind::Cube,
                start: 100,
                end: 612,
            },
            TraceEvent {
                block: 0,
                core: 1,
                engine: EngineKind::Vec,
                start: 612,
                end: 661,
            },
            TraceEvent {
                block: 1,
                core: 2,
                engine: EngineKind::Mte2,
                start: 0,
                end: 320,
            },
        ];
        let json = to_chrome_json(&events, 1.0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"tid\":\"cube.CUBE\""));
        assert!(json.contains("\"tid\":\"vec0.VEC\""));
        assert!(json.contains("\"tid\":\"vec1.MTE2\""));
        // 1 GHz: 512 cycles = 0.512 us.
        assert!(json.contains("\"dur\":0.512"));
    }

    #[test]
    fn physical_occupancy_rejects_double_booked_slots() {
        let ev = |block, start, end| TraceEvent {
            block,
            core: 0,
            engine: EngineKind::Vec,
            start,
            end,
        };
        // Two waves on 2 physical slots: blocks 0 and 2 share slot 0.
        // Block 2 runs strictly after block 0 — fine.
        let ok = [
            ev(0, 100, 200),
            ev(1, 100, 180),
            ev(2, 200, 300),
            ev(3, 180, 250),
        ];
        assert!(audit_physical_occupancy(&ok, 2).is_ok());
        // Regression: a migrated block whose interval overlaps the
        // previous tenant of the same slot double-books the silicon.
        let bad = [ev(0, 100, 200), ev(2, 150, 250)];
        let err = audit_physical_occupancy(&bad, 2).unwrap_err();
        assert!(matches!(err, SimError::AccountingViolation { .. }));
        assert!(err.to_string().contains("slot 0"));
        // The same intervals on distinct slots are concurrent, not
        // double-booked.
        assert!(audit_physical_occupancy(&bad, 4).is_ok());
        // Event order must not matter.
        let bad_rev = [ev(2, 150, 250), ev(0, 100, 200)];
        assert!(audit_physical_occupancy(&bad_rev, 2).is_err());
    }

    #[test]
    fn empty_trace() {
        assert_eq!(to_chrome_json(&[], 1.8), "{\"traceEvents\":[]}");
    }

    #[test]
    fn hostile_names_are_escaped() {
        let hostile = "a\"b\\c\nd\re\tf\u{1}g";
        let escaped = json_escape(hostile);
        assert_eq!(escaped, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g");
        // No raw control characters or unescaped quotes survive.
        assert!(!escaped.chars().any(|c| (c as u32) < 0x20));
        // Round-trip safety: embedding the escaped name keeps a JSON
        // string literal well formed (balanced, single-quoted-span).
        let doc = format!("{{\"name\":\"{escaped}\"}}");
        let bytes = doc.as_bytes();
        let mut in_string = false;
        let mut escaped_next = false;
        let mut depth = 0i32;
        for &b in bytes {
            if escaped_next {
                escaped_next = false;
                continue;
            }
            match b {
                b'\\' if in_string => escaped_next = true,
                b'"' => in_string = !in_string,
                b'{' if !in_string => depth += 1,
                b'}' if !in_string => depth -= 1,
                _ => {}
            }
        }
        assert!(!in_string, "unterminated string in {doc}");
        assert_eq!(depth, 0, "unbalanced braces in {doc}");
    }

    #[test]
    fn plain_names_pass_through_unchanged() {
        assert_eq!(json_escape("MTE2"), "MTE2");
        assert_eq!(json_escape("Phase I (tile scans)"), "Phase I (tile scans)");
    }

    /// One HbEvent per action kind — the round-trip corpus.
    fn every_action_kind() -> Vec<HbEvent> {
        let mk = |i: u32, what: &'static str, action: HbAction| HbEvent {
            block: i % 3,
            core: i % 2,
            time: u64::from(i) * 97,
            what,
            action,
        };
        vec![
            mk(0, "DataCopy", HbAction::GmRead { start: 0, end: 512 }),
            mk(
                1,
                "DataCopy",
                HbAction::GmWrite {
                    start: 1 << 33,
                    end: (1 << 33) + 64,
                },
            ),
            mk(
                2,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 3, token: 41 },
            ),
            mk(
                3,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 3, token: 41 },
            ),
            mk(4, "GridSetFlag", HbAction::GridFlagSet { id: 5, token: 77 }),
            mk(
                5,
                "GridWaitFlag",
                HbAction::GridFlagWait { id: 5, token: 77 },
            ),
            mk(4, "SyncAll", HbAction::Barrier { round: 2 }),
            mk(5, "qa(L0A)", HbAction::QueueCreate { queue: 7 }),
            mk(6, "qa(L0A)", HbAction::Enque { queue: 7 }),
            mk(7, "qa(L0A)", HbAction::Deque { queue: 7 }),
            mk(8, "qa(L0A)", HbAction::QueueDestroy { queue: 7 }),
            mk(
                9,
                "AllocLocal",
                HbAction::Alloc {
                    id: 123456789012345,
                    bytes: 65536,
                },
            ),
            mk(
                10,
                "FreeLocal",
                HbAction::Free {
                    id: 123456789012345,
                },
            ),
        ]
    }

    #[test]
    fn hb_events_round_trip_losslessly() {
        let events = every_action_kind();
        let json = hb_events_json(&events);
        let parsed = parse_hb_json(&json).unwrap();
        assert_eq!(parsed, events);
        // Embedded in a profile-style document under the schema key, the
        // same array still parses.
        let doc =
            format!("{{\"traceEvents\":[],\"schema\":\"ascend-trace/v1\",\"hbEvents\":{json}}}");
        assert_eq!(parse_hb_json(&doc).unwrap(), events);
    }

    #[test]
    fn hb_round_trip_survives_hostile_names() {
        let hostile: &'static str = "q \"a\\b\"\n{evil]},\u{1}";
        let events = vec![
            HbEvent {
                block: 0,
                core: 1,
                time: 10,
                what: hostile,
                action: HbAction::Enque { queue: 0 },
            },
            HbEvent {
                block: 0,
                core: 1,
                time: 11,
                what: hostile,
                action: HbAction::Deque { queue: 0 },
            },
        ];
        let json = hb_events_json(&events);
        // No raw control characters escape into the document.
        assert!(!json.chars().any(|c| (c as u32) < 0x20));
        let parsed = parse_hb_json(&json).unwrap();
        assert_eq!(parsed, events);
        // Interning keeps repeated names pointer-identical.
        assert!(std::ptr::eq(parsed[0].what, parsed[1].what));
    }

    #[test]
    fn hb_parse_rejects_malformed_documents() {
        assert!(parse_hb_json("{\"no\":\"array\"}").is_err());
        assert!(parse_hb_json("[{\"block\":0").is_err());
        assert!(parse_hb_json(
            "[{\"block\":0,\"core\":0,\"time\":1,\"what\":\"x\",\"action\":\"warp\"}]"
        )
        .is_err());
        // Missing action fields.
        assert!(parse_hb_json(
            "[{\"block\":0,\"core\":0,\"time\":1,\"what\":\"x\",\"action\":\"gmRead\",\"start\":4}]"
        )
        .is_err());
        assert_eq!(parse_hb_json("[]").unwrap(), Vec::new());
    }

    #[test]
    fn hb_recorder_gates_and_harvests() {
        let off = HbRecorder::disabled();
        assert!(!off.is_enabled());
        off.record(5, "DataCopy", HbAction::GmRead { start: 0, end: 4 });
        assert!(off.take(0, 0).is_empty());

        let on = HbRecorder::enabled();
        assert!(on.is_enabled());
        let clone = on.clone();
        on.record(5, "DataCopy", HbAction::GmRead { start: 0, end: 4 });
        // A clone (e.g. held by a TQue) appends into the same
        // program-order stream.
        clone.record(9, "q", HbAction::Enque { queue: 1 });
        let got = on.take(3, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].block, 3);
        assert_eq!(got[0].core, 1);
        assert_eq!(got[0].time, 5);
        assert_eq!(got[1].action, HbAction::Enque { queue: 1 });
        // take drains: both views now empty.
        assert!(clone.take(3, 1).is_empty());
    }
}
