//! Span-stack sampling profiler: where does the wall-clock actually go?
//!
//! Closed-span traces ([`crate::SpanRecord`]) answer "how long did each unit
//! of work take"; they cannot answer "what was every thread doing at time t"
//! without replaying the whole record stream. This module keeps a **live
//! span stack** per thread — pushed/popped by the same [`crate::TraceCtx`]
//! machinery that maintains the thread-local depth counter — and a sampler
//! thread that snapshots all of them at a fixed rate into a folded-stack
//! profile: the classic collapsed `outer;inner;leaf COUNT` format plus a
//! self-rendered SVG flamegraph. Zero dependencies, std only.
//!
//! # Concurrency model
//!
//! Each thread owns one [`LiveStack`]: a seqlock guarding a fixed array of
//! frame slots. Only the owning thread writes (span open/close); the sampler
//! reads. The sequence counter is bumped to odd before a mutation and back
//! to even after, so a reader that observes the same even value before and
//! after its pass knows it saw a consistent stack; torn reads are retried a
//! few times and then dropped (counted in [`FoldedProfile::torn`]). Every
//! slot is an atomic, so concurrent access is race-free at the language
//! level; the seqlock only provides *logical* consistency.
//!
//! Frame names are the `&'static str` span names from [`crate::TraceCtx::span`],
//! stored as raw (pointer, length) pairs — reconstructing the `&str` on the
//! reader side is sound because the referent lives for the whole program and
//! the seqlock validation guarantees the pair was written together.
//!
//! The maintenance cost on the span path is four relaxed/release atomic
//! stores per open and close — well inside the traced-run overhead budget
//! guarded by CI (fig5 traced-vs-untraced <= 3%).

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deepest span nesting a live stack records; deeper frames are counted but
/// sampled truncated. The optimizer pipeline nests ~6 deep, so 64 is ample.
pub const MAX_FRAMES: usize = 64;

/// One frame slot: the name's address and length, each atomic so the
/// sampler never data-races the owning thread.
struct FrameSlot {
    ptr: AtomicUsize,
    len: AtomicUsize,
}

impl FrameSlot {
    const fn empty() -> FrameSlot {
        FrameSlot {
            ptr: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        }
    }
}

/// A single thread's live span stack behind a seqlock. Writers (the owning
/// thread) are wait-free; readers (the sampler) retry on torn snapshots.
pub(crate) struct LiveStack {
    tid: u64,
    /// Seqlock: odd while the owner is mutating, even when quiescent.
    seq: AtomicU64,
    /// Open-span count; may exceed [`MAX_FRAMES`] (excess frames unrecorded).
    depth: AtomicUsize,
    frames: [FrameSlot; MAX_FRAMES],
}

impl LiveStack {
    fn new(tid: u64) -> LiveStack {
        // The repeat-expression initializer for an atomic array; each array
        // element is a fresh slot, so the shared-`const` lint does not apply.
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: FrameSlot = FrameSlot::empty();
        LiveStack {
            tid,
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: [EMPTY; MAX_FRAMES],
        }
    }

    /// Owner-side push on span open.
    fn push(&self, name: &'static str) {
        let d = self.depth.load(Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::AcqRel);
        if d < MAX_FRAMES {
            self.frames[d]
                .ptr
                .store(name.as_ptr() as usize, Ordering::Relaxed);
            self.frames[d].len.store(name.len(), Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Owner-side pop on span close.
    fn pop(&self) {
        let d = self.depth.load(Ordering::Relaxed);
        if d == 0 {
            return;
        }
        self.seq.fetch_add(1, Ordering::AcqRel);
        self.depth.store(d - 1, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Sampler-side snapshot. `None` when the stack was mutating across
    /// every retry (torn) — the caller drops this thread for the tick.
    fn sample(&self) -> Option<Vec<&'static str>> {
        for _ in 0..8 {
            let before = self.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed).min(MAX_FRAMES);
            let mut raw: Vec<(usize, usize)> = Vec::with_capacity(depth);
            for slot in &self.frames[..depth] {
                raw.push((
                    slot.ptr.load(Ordering::Relaxed),
                    slot.len.load(Ordering::Relaxed),
                ));
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) != before {
                continue;
            }
            return Some(
                raw.into_iter()
                    .map(|(ptr, len)| {
                        // SAFETY: every (ptr, len) pair was stored together
                        // under the seqlock from a `&'static str` (validated
                        // consistent by the unchanged sequence number), and
                        // 'static referents outlive the program.
                        unsafe {
                            std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                                ptr as *const u8,
                                len,
                            ))
                        }
                    })
                    .collect(),
            );
        }
        None
    }
}

/// Global registry of per-thread live stacks. Weak so dying threads (serve
/// is thread-per-connection) don't accumulate; pruned on every sample pass.
fn registry() -> &'static Mutex<Vec<Weak<LiveStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<LiveStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LIVE: Arc<LiveStack> = {
        let stack = Arc::new(LiveStack::new(crate::current_tid()));
        registry()
            .lock()
            .expect("profiler registry poisoned")
            .push(Arc::downgrade(&stack));
        stack
    };
}

/// Called by [`crate::TraceCtx::span`] on the enabled path.
pub(crate) fn push_frame(name: &'static str) {
    // try_with: a SpanGuard held in another thread-local can drop during
    // thread teardown, after LIVE was destroyed.
    let _ = LIVE.try_with(|s| s.push(name));
}

/// Called by [`crate::SpanGuard`]'s `Drop` on the enabled path.
pub(crate) fn pop_frame() {
    let _ = LIVE.try_with(|s| s.pop());
}

/// One sampling pass over every registered thread.
struct SamplePass {
    /// `(tid, root-to-leaf frames)` per thread with at least one open span.
    stacks: Vec<(u64, Vec<&'static str>)>,
    /// Threads skipped this pass because their stack was mid-mutation.
    torn: u64,
}

fn sample_all() -> SamplePass {
    let mut reg = registry().lock().expect("profiler registry poisoned");
    reg.retain(|w| w.strong_count() > 0);
    let mut pass = SamplePass {
        stacks: Vec::new(),
        torn: 0,
    };
    for stack in reg.iter().filter_map(Weak::upgrade) {
        match stack.sample() {
            Some(frames) if !frames.is_empty() => pass.stacks.push((stack.tid, frames)),
            Some(_) => {} // idle thread: no open spans, nothing to attribute
            None => pass.torn += 1,
        }
    }
    pass
}

/// A folded-stack profile: sample counts keyed by the `;`-joined
/// root-to-leaf span path, exactly the "collapsed stack" format consumed by
/// flamegraph tooling. Deterministically ordered (BTreeMap).
#[derive(Debug, Clone, Default)]
pub struct FoldedProfile {
    counts: BTreeMap<String, u64>,
    /// Sampler wakeups performed.
    pub ticks: u64,
    /// Thread-stack samples folded in (idle threads excluded).
    pub samples: u64,
    /// Thread-stack samples dropped as torn.
    pub torn: u64,
    /// Sampling rate the profile was collected at (0 for synthetic profiles).
    pub hz: u32,
    /// Wall-clock duration of the collection window.
    pub wall: Duration,
}

impl FoldedProfile {
    pub fn new(hz: u32) -> FoldedProfile {
        FoldedProfile {
            hz,
            ..FoldedProfile::default()
        }
    }

    /// Builds a profile from pre-collected stacks (tests, offline folding).
    pub fn from_stacks<'a, I, S>(stacks: I) -> FoldedProfile
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = &'a str>,
    {
        let mut p = FoldedProfile::new(0);
        for stack in stacks {
            let frames: Vec<&str> = stack.into_iter().collect();
            p.record_stack(&frames);
        }
        p
    }

    /// Folds one thread-stack sample (root first) into the profile.
    pub fn record_stack(&mut self, frames: &[&str]) {
        if frames.is_empty() {
            return;
        }
        *self.counts.entry(frames.join(";")).or_insert(0) += 1;
        self.samples += 1;
    }

    fn fold(&mut self, pass: SamplePass) {
        self.ticks += 1;
        self.torn += pass.torn;
        for (_tid, frames) in &pass.stacks {
            self.record_stack(frames);
        }
    }

    /// Distinct stack paths observed.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(path, count)` in deterministic (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The collapsed-stack text: one `path count` line per distinct stack,
    /// lexicographically sorted so identical sample sets render identically.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.counts {
            out.push_str(path);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Sample counts aggregated per *leaf* frame, heaviest first — "where is
    /// the CPU actually spending its time", ties broken by name.
    pub fn hot_leaves(&self) -> Vec<(String, u64)> {
        let mut by_leaf: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, count) in &self.counts {
            let leaf = path.rsplit(';').next().unwrap_or(path);
            *by_leaf.entry(leaf).or_insert(0) += count;
        }
        let mut out: Vec<(String, u64)> = by_leaf
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Renders a static SVG flamegraph (icicle layout: root on top, callees
    /// below, widths proportional to sample counts). No JavaScript; hover
    /// tooltips come from `<title>` elements. Deterministic for a given
    /// profile: layout and colors depend only on the folded counts.
    pub fn flamegraph_svg(&self, title: &str) -> String {
        flamegraph_svg(self, title)
    }
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// A running sampler thread. [`Profiler::stop`] returns the collected
/// [`FoldedProfile`]; multiple profilers may run concurrently (each samples
/// the same live stacks independently).
pub struct Profiler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<FoldedProfile>>,
    started: Instant,
}

impl Profiler {
    /// Starts a sampler thread snapshotting every live span stack at `hz`
    /// (clamped to 1..=1000).
    pub fn start(hz: u32) -> Profiler {
        let hz = hz.clamp(1, 1000);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("thistle-profiler".into())
            .spawn(move || {
                let mut profile = FoldedProfile::new(hz);
                let period = Duration::from_secs_f64(1.0 / f64::from(hz));
                while !stop_flag.load(Ordering::Relaxed) {
                    let tick = Instant::now();
                    profile.fold(sample_all());
                    // Sleep out the period in short slices so stop() returns
                    // promptly even at 1 hz.
                    while tick.elapsed() < period && !stop_flag.load(Ordering::Relaxed) {
                        std::thread::sleep((period - tick.elapsed()).min(Duration::from_millis(5)));
                    }
                }
                profile
            })
            .expect("spawn profiler thread");
        Profiler {
            stop,
            handle: Some(handle),
            started: Instant::now(),
        }
    }

    /// Stops the sampler and returns the profile collected so far.
    pub fn stop(mut self) -> FoldedProfile {
        self.stop.store(true, Ordering::Relaxed);
        let mut profile = self
            .handle
            .take()
            .expect("profiler stopped once")
            .join()
            .unwrap_or_default();
        profile.wall = self.started.elapsed();
        profile
    }

    /// Convenience: sample for `window` at `hz`, blocking the caller.
    pub fn profile_for(window: Duration, hz: u32) -> FoldedProfile {
        let p = Profiler::start(hz);
        std::thread::sleep(window);
        p.stop()
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        // stop() consumed the handle on the normal path; this covers leaks.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Flamegraph rendering
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Node {
    value: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn insert(&mut self, frames: &[&str], count: u64) {
        self.value += count;
        if let Some((head, rest)) = frames.split_first() {
            self.children
                .entry((*head).to_string())
                .or_default()
                .insert(rest, count);
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

const SVG_WIDTH: f64 = 1200.0;
const ROW_HEIGHT: f64 = 17.0;
const TEXT_PAD: f64 = 3.0;
/// Approximate glyph advance at font-size 11 monospace; used to clip labels.
const CHAR_WIDTH: f64 = 6.6;

fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic warm-palette color from the frame name (FNV-1a hashed), in
/// the flamegraph.pl tradition: reds/oranges, stable across renders.
fn frame_color(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let r = 205 + (h % 50) as u32;
    let g = 80 + ((h >> 8) % 100) as u32;
    let b = ((h >> 16) % 38) as u32;
    format!("rgb({r},{g},{b})")
}

fn render_node(
    out: &mut String,
    name: &str,
    node: &Node,
    x: f64,
    depth: usize,
    total: u64,
    y_base: f64,
) -> f64 {
    let width = node.value as f64 / total as f64 * SVG_WIDTH;
    if width < 0.2 {
        return width; // sub-pixel: skip the subtree, keep the x advance
    }
    let y = y_base + depth as f64 * ROW_HEIGHT;
    let pct = node.value as f64 / total as f64 * 100.0;
    let ename = escape_xml(name);
    out.push_str(&format!(
        "<g><title>{ename} ({} samples, {pct:.2}%)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{width:.2}\" height=\"{h:.2}\" \
         fill=\"{color}\" rx=\"2\" stroke=\"white\" stroke-width=\"0.5\"/>",
        node.value,
        h = ROW_HEIGHT - 1.0,
        color = frame_color(name),
    ));
    let max_chars = ((width - 2.0 * TEXT_PAD) / CHAR_WIDTH) as usize;
    if max_chars >= 3 {
        let label: String = if name.len() <= max_chars {
            ename.clone()
        } else {
            let cut: String = name.chars().take(max_chars.saturating_sub(2)).collect();
            format!("{}..", escape_xml(&cut))
        };
        out.push_str(&format!(
            "<text x=\"{tx:.2}\" y=\"{ty:.2}\" font-size=\"11\" \
             font-family=\"monospace\" fill=\"#222\">{label}</text>",
            tx = x + TEXT_PAD,
            ty = y + ROW_HEIGHT - 5.0,
        ));
    }
    out.push_str("</g>");
    let mut child_x = x;
    for (child_name, child) in &node.children {
        child_x += render_node(out, child_name, child, child_x, depth + 1, total, y_base);
    }
    width
}

fn flamegraph_svg(profile: &FoldedProfile, title: &str) -> String {
    let mut root = Node::default();
    for (path, count) in &profile.counts {
        let frames: Vec<&str> = path.split(';').collect();
        root.insert(&frames, *count);
    }
    let depth = root.depth();
    let header = 34.0;
    let height = header + depth as f64 * ROW_HEIGHT + 8.0;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH:.0}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {SVG_WIDTH:.0} {height:.0}\">"
    ));
    out.push_str(&format!(
        "<rect width=\"100%\" height=\"100%\" fill=\"#fdf6ec\"/>\
         <text x=\"{mid:.0}\" y=\"20\" text-anchor=\"middle\" font-size=\"14\" \
         font-family=\"sans-serif\" fill=\"#333\">{t}</text>",
        mid = SVG_WIDTH / 2.0,
        t = escape_xml(title),
    ));
    if root.value == 0 {
        out.push_str(&format!(
            "<text x=\"{mid:.0}\" y=\"{ty:.0}\" text-anchor=\"middle\" font-size=\"12\" \
             font-family=\"monospace\" fill=\"#777\">no samples</text>",
            mid = SVG_WIDTH / 2.0,
            ty = header + 14.0,
        ));
    } else {
        render_node(&mut out, "all", &root, 0.0, 0, root.value, header);
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectingSink, TraceCtx};

    #[test]
    fn collapse_is_deterministic_and_sorted() {
        let stacks = vec![
            vec!["gp_sweep", "barrier_solve"],
            vec!["gp_sweep", "barrier_solve", "newton_center"],
            vec!["gp_sweep", "barrier_solve"],
            vec!["request"],
        ];
        let a = FoldedProfile::from_stacks(stacks.clone());
        let b = FoldedProfile::from_stacks(stacks.iter().rev().cloned());
        // Same sample multiset in any fold order -> identical collapsed text.
        assert_eq!(a.collapsed(), b.collapsed());
        let text = a.collapsed();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "gp_sweep;barrier_solve 2",
                "gp_sweep;barrier_solve;newton_center 1",
                "request 1",
            ]
        );
        assert_eq!(a.samples, 4);
        assert_eq!(a.hot_leaves()[0], ("barrier_solve".to_string(), 2));
    }

    #[test]
    fn live_stack_tracks_open_spans() {
        let sink = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::new(sink);
        let tid = crate::current_tid();
        {
            let _a = ctx.span("outer");
            let _b = ctx.span("inner");
            let pass = sample_all();
            let mine: Vec<_> = pass.stacks.iter().filter(|(t, _)| *t == tid).collect();
            assert_eq!(mine.len(), 1);
            assert_eq!(mine[0].1, vec!["outer", "inner"]);
        }
        // Both spans closed: this thread samples idle (no stack entry).
        let pass = sample_all();
        assert!(pass.stacks.iter().all(|(t, _)| *t != tid));
    }

    #[test]
    fn disabled_ctx_leaves_live_stack_empty() {
        let ctx = TraceCtx::disabled();
        let _g = ctx.span("ghost");
        let tid = crate::current_tid();
        let pass = sample_all();
        assert!(pass.stacks.iter().all(|(t, _)| *t != tid));
    }

    #[test]
    fn flamegraph_svg_is_valid_and_labelled() {
        let profile = FoldedProfile::from_stacks(vec![
            vec!["gp_sweep", "barrier_solve"],
            vec!["gp_sweep", "barrier_solve", "newton_center"],
            vec!["gp_sweep", "lower<&>\"rows"],
        ]);
        let svg = profile.flamegraph_svg("fig5 profile");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("barrier_solve"));
        assert!(svg.contains("fig5 profile"));
        // Hostile frame names are XML-escaped.
        assert!(svg.contains("lower&lt;&amp;&gt;&quot;rows"));
        assert!(!svg.contains("lower<&>"));
        // Deterministic rendering.
        assert_eq!(svg, profile.flamegraph_svg("fig5 profile"));
        let empty = FoldedProfile::new(99);
        assert!(empty.flamegraph_svg("empty").contains("no samples"));
    }

    #[test]
    fn deep_stacks_truncate_instead_of_corrupting() {
        let sink = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::new(sink);
        let tid = crate::current_tid();
        let mut guards = Vec::new();
        for _ in 0..(MAX_FRAMES + 10) {
            guards.push(ctx.span("deep"));
        }
        let pass = sample_all();
        let mine = pass
            .stacks
            .iter()
            .find(|(t, _)| *t == tid)
            .expect("sampled");
        assert_eq!(mine.1.len(), MAX_FRAMES);
        drop(guards);
        let pass = sample_all();
        assert!(pass.stacks.iter().all(|(t, _)| *t != tid), "fully unwound");
    }
}
