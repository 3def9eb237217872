//! Per-thread shards: where handle records land before they reach a
//! [`Registry`].
//!
//! Each thread keeps one [`Shard`] per installed scope (the scope
//! stack) plus one for the global registry. A record is a plain add
//! into a dense slot of the current target's shard. A shard is merged
//! into its registry when its scope guard drops, on [`crate::flush`],
//! when the calling thread reads that registry, and from the
//! thread-local destructor as a fallback.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use cxl_stats::Histogram;

use crate::handle::{Key, Shape};
use crate::registry::{Class, MetricValue, Registry};

/// Pending records for one target registry, indexed by interned slot.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Pending value per slot; `None` until first written.
    slots: Vec<Option<MetricValue>>,
    /// Slots written since the last merge, in first-write order.
    written: Vec<(usize, &'static str, Class)>,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            slots: Vec::new(),
            written: Vec::new(),
        }
    }

    /// Applies `op` to `key`'s slot, initializing it on first write.
    /// The interner pins one shape per slot, so `op`'s pattern always
    /// matches.
    #[inline]
    fn apply(&mut self, key: &Key, op: impl FnOnce(&mut MetricValue)) {
        let i = key.slot();
        match self.slots.get_mut(i) {
            Some(Some(value)) => op(value),
            _ => op(self.first_write(i, key)),
        }
    }

    #[cold]
    fn first_write(&mut self, i: usize, key: &Key) -> &mut MetricValue {
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.written.push((i, key.name, key.class));
        self.slots[i].insert(match key.shape {
            Shape::Counter => MetricValue::Counter(0),
            Shape::Max => MetricValue::Max(0),
            Shape::Histogram => MetricValue::Histogram(Histogram::new()),
            Shape::Gauge => unreachable!("gauges write through"),
        })
    }

    /// Empties the shard, yielding every written slot once.
    pub(crate) fn drain(
        &mut self,
    ) -> impl Iterator<Item = (&'static str, Class, MetricValue)> + '_ {
        let slots = &mut self.slots;
        self.written.drain(..).map(move |(i, name, class)| {
            let value = slots[i].take().expect("written slots hold a value");
            (name, class, value)
        })
    }

    fn is_empty(&self) -> bool {
        self.written.is_empty()
    }
}

struct Frame {
    registry: Arc<Registry>,
    shard: Shard,
}

/// This thread's recording state.
struct Local {
    /// Installed scopes, innermost last.
    frames: Vec<Frame>,
    /// Records for the global registry.
    global: Shard,
}

impl Local {
    fn flush(&mut self) {
        for f in &mut self.frames {
            absorb(&f.registry, &mut f.shard);
        }
        absorb(crate::global(), &mut self.global);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// Number of installed scopes: `LOCAL.frames.len()`, kept where the
    /// hot [`active`] check can read it without `LOCAL`'s
    /// destructor-registration check.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            frames: Vec::new(),
            global: Shard::new(),
        })
    };
}

fn absorb(registry: &Registry, shard: &mut Shard) {
    if !shard.is_empty() {
        registry.absorb(shard);
    }
}

// Out of line, so an instrumented call site carries only the
// `crate::active()` check and a call.

#[inline(never)]
pub(crate) fn add(key: &Key, n: u64) {
    with(|s| {
        s.apply(key, |value| {
            if let MetricValue::Counter(c) = value {
                *c += n;
            }
        })
    });
}

#[inline(never)]
pub(crate) fn raise(key: &Key, v: u64) {
    with(|s| {
        s.apply(key, |value| {
            if let MetricValue::Max(m) = value {
                *m = (*m).max(v);
            }
        })
    });
}

#[inline(never)]
pub(crate) fn record(key: &Key, v: u64) {
    with(|s| {
        s.apply(key, |value| {
            if let MetricValue::Histogram(h) = value {
                h.record(v);
            }
        })
    });
}

pub(crate) fn merge(key: &Key, samples: &Histogram) {
    with(|s| {
        s.apply(key, |value| {
            if let MetricValue::Histogram(h) = value {
                h.merge(samples);
            }
        })
    });
}

/// Runs `f` on the current target's shard: the innermost scope's, else
/// the global one if recording is enabled, else nowhere.
#[inline]
fn with(f: impl FnOnce(&mut Shard)) {
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        let l = &mut *l;
        if let Some(frame) = l.frames.last_mut() {
            f(&mut frame.shard);
        } else if crate::enabled() {
            f(&mut l.global);
        }
    });
}

/// Runs `f` on the current target registry itself (write-through).
pub(crate) fn with_target(f: impl FnOnce(&Registry)) {
    if let Some(registry) = current() {
        f(&registry);
    } else if crate::enabled() {
        f(crate::global());
    }
}

pub(crate) fn current() -> Option<Arc<Registry>> {
    LOCAL
        .try_with(|l| l.borrow().frames.last().map(|f| f.registry.clone()))
        .ok()
        .flatten()
}

/// True when a record on this thread would reach a registry: one
/// relaxed load, plus one thread-local read when the global registry
/// is off.
#[inline]
pub(crate) fn active() -> bool {
    crate::enabled() || DEPTH.with(|d| d.get() > 0)
}

pub(crate) fn push(registry: Arc<Registry>) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.frames.push(Frame {
            registry,
            shard: Shard::new(),
        });
        DEPTH.set(l.frames.len());
    });
}

/// Uninstalls the innermost scope and merges its shard.
pub(crate) fn pop() {
    let frame = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let frame = l.frames.pop();
            DEPTH.set(l.frames.len());
            frame
        })
        .ok()
        .flatten();
    if let Some(mut f) = frame {
        absorb(&f.registry, &mut f.shard);
    }
}

/// Merges this thread's pending records for `registry` (every scope
/// frame targeting it, plus the global shard if it is the global one).
pub(crate) fn flush_into(registry: &Registry) {
    let _ = LOCAL.try_with(|l| {
        let Ok(mut l) = l.try_borrow_mut() else {
            return;
        };
        for f in &mut l.frames {
            if std::ptr::eq(Arc::as_ptr(&f.registry), registry) {
                absorb(registry, &mut f.shard);
            }
        }
        if std::ptr::eq(crate::global(), registry) {
            absorb(registry, &mut l.global);
        }
    });
}

/// Merges every pending record of this thread.
pub(crate) fn flush_all() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}
