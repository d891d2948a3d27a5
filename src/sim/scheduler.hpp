// Discrete-event scheduler, engineered for the per-packet hot path.
//
// Design (this is the hottest code in the repo — see BENCH_microbench.json):
//  - Event callbacks live in a slab of pooled, generation-tagged slots with
//    inline small-callback storage (no per-event std::function heap
//    allocation; oversized callables fall back to one heap thunk). Slots
//    are recycled through a free list, PacketPool-style.
//  - The ready queue is a hierarchical timing wheel: 4 levels of 64 slots
//    over a 131 ns tick (2^17 ps), one occupancy bitmap word per level, an
//    overflow 4-ary min-heap for events beyond the ~2.2 s wheel horizon,
//    and a "near" batch of 24-byte POD entries holding the events of the
//    tick being drained — appended raw at dump time, sorted once by
//    (time, seq), consumed by index. schedule and cancel are O(1); a pop is
//    an index increment (one sort per drained tick replaces a heap push
//    plus a heap pop per event; the old global heap paid O(log pending)).
//    Events landing in the tick currently being drained splice into the
//    sorted unconsumed tail (binary search + vector insert).
//  - Exact ordering is preserved: wheel slots only partition events by
//    tick; every entry carries the global FIFO sequence number, and events
//    reach execution exclusively through the near batch, which orders by
//    (time, seq). Same-timestamp events therefore fire in schedule order —
//    the determinism discipline every golden output depends on.
//  - cancel(), reschedule() and the pop-side liveness check compare the
//    entry's generation tag against the slot's — O(1), no hashing. A
//    cancelled event's wheel/heap entry stays behind and is discarded when
//    its slot position is next visited.
//
// Observable semantics are pinned by tests/sim_test.cpp (SchedulerPinned),
// tests/sim_property_test.cpp (random scripts vs a reference model),
// tests/scheduler_differential_test.cpp + tests/scheduler_fuzz.cpp (lock-
// step against the PR-1 heap engine kept under tests/) and
// tests/determinism_test.cpp: events at the same timestamp fire in schedule
// order, which keeps runs deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/window.hpp"

namespace gfc::sim {

/// Handle to a scheduled event; pass to Scheduler::cancel(). Encodes
/// (generation << 32) | (slot index + 1); value 0 is the invalid handle.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

/// Handle to a persistent timer (Scheduler::register_timer). Encodes slot
/// index + 1; value 0 is the invalid handle.
struct TimerId {
  std::uint32_t value = 0;
  bool valid() const { return value != 0; }
};

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Monotonically non-decreasing.
  TimePs now() const { return now_; }

  /// Schedule `fn` at absolute time `t`. A `t` in the past is clamped to
  /// now(): the event fires "immediately", after the currently-executing
  /// event, before any later-stamped event.
  template <typename F>
  EventId schedule_at(TimePs t, F&& fn) {
    using Fn = std::decay_t<F>;
    if (t < now_) t = now_;  // past-dated events fire at now()
    const std::uint32_t idx = alloc_slot();
    Slot& s = *slot_ptr(idx);
    if constexpr (sizeof(Fn) <= kInlineStorage &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      // One indirect call on the fire path: invoke + destroy fused (the
      // destructor call folds away for trivially destructible captures).
      s.run = [](void* p) {
        Fn* f = static_cast<Fn*>(p);
        (*f)();
        f->~Fn();
      };
      if constexpr (std::is_trivially_destructible_v<Fn>)
        s.destroy = nullptr;
      else
        s.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      // Oversized/overaligned callable: one heap thunk, pointer inline.
      Fn* heap_fn = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(s.storage)) Fn*(heap_fn);
      s.run = [](void* p) {
        Fn* f = *static_cast<Fn**>(p);
        (*f)();
        delete f;
      };
      s.destroy = [](void* p) { delete *static_cast<Fn**>(p); };
    }
    queue_call(t, idx, s.gen);
    ++live_;
    return EventId{(static_cast<std::uint64_t>(s.gen) << 32) |
                   (static_cast<std::uint64_t>(idx) + 1)};
  }

  /// Schedule `fn` after `delay` from now.
  template <typename F>
  EventId schedule_in(TimePs delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or invalid id is a no-op; returns whether the event was still pending.
  bool cancel(EventId id);

  /// Move a pending event to absolute time `t` (clamped to now()), keeping
  /// its callback — the wake-timer churn path (cancel + schedule of the
  /// same closure) without destroying and re-constructing the callback or
  /// cycling the slot through the free list. Takes a fresh FIFO sequence
  /// number, exactly as a cancel+schedule at this point would, so
  /// same-timestamp ordering is indistinguishable from the two-call form.
  /// Returns the new id (the old id is invalidated); returns the invalid
  /// id if the event already fired or was cancelled (nothing is scheduled
  /// then — callers fall back to schedule_at).
  EventId reschedule(EventId id, TimePs t);

  /// Reset to the just-constructed state, retaining every allocated
  /// capacity (callback slots, wheel nodes, heap storage). Pending events
  /// are destroyed without being fired, in O(pending) — not O(pending ·
  /// log pending) heap draining. Outstanding EventIds and TimerIds are
  /// invalidated (timer callbacks are destroyed too), and a cleared
  /// scheduler re-issues exactly the EventId sequence a freshly
  /// constructed one would (slot indices and generations restart), which
  /// keeps campaign runs that reuse one scheduler byte-identical to
  /// fresh-scheduler runs.
  void clear();

  // --- persistent timers (batched wire events) ----------------------------
  // A timer is a pre-registered event slot whose callback is constructed
  // once and fired many times: arming allocates nothing and constructs
  // nothing, so N back-to-back transmissions on a saturated port arm one
  // drain timer N times instead of building and tearing down N one-shot
  // events. Arming takes a fresh FIFO sequence number at the call site,
  // exactly like schedule_at, so event ordering — and every golden output —
  // is indistinguishable from the one-shot form.

  /// Register `fn` as a reusable timer. The callback is kept alive until
  /// clear() or destruction. Returns a handle for arm/disarm; never 0.
  template <typename F>
  TimerId register_timer(F&& fn) {
    using Fn = std::decay_t<F>;
    const std::uint32_t idx = alloc_slot();
    Slot& s = *slot_ptr(idx);
    static_assert(sizeof(Fn) <= kInlineStorage &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "timer callbacks must fit the inline slot storage");
    ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
    // Invoke WITHOUT destroying: the callback survives the firing (and may
    // re-arm its own timer from inside it).
    s.run = [](void* p) { (*static_cast<Fn*>(p))(); };
    if constexpr (std::is_trivially_destructible_v<Fn>)
      s.destroy = nullptr;
    else
      s.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    s.persistent = true;
    s.armed = false;
    return TimerId{idx + 1};
  }

  /// Register `fn` as a multishot timer: any number of firings may be
  /// pending at once (fire_at queues one more; there is no per-firing
  /// cancel). The per-firing payload lives with the caller — wire FIFOs
  /// keep their own packet queue and pop one head per firing, so a
  /// saturated link's N in-flight packets share one registered callback
  /// instead of constructing and destroying N one-shot closures. Each
  /// fire_at takes a fresh FIFO sequence number exactly where schedule_at
  /// did, so event ordering is unchanged.
  template <typename F>
  TimerId register_multishot(F&& fn) {
    const TimerId id = register_timer(std::forward<F>(fn));
    slot_ptr(id.value - 1)->multishot = true;
    return id;
  }

  /// Queue one more firing of a multishot timer at absolute time `t`,
  /// clamped to now().
  void fire_at(TimerId timer, TimePs t);

  /// Arm (or re-arm) the timer to fire at absolute time `t`, clamped to
  /// now(). An already-armed timer is moved — at most one firing is ever
  /// pending. Legal from inside the timer's own callback.
  void arm_timer(TimerId timer, TimePs t);

  /// Cancel the pending firing, if any. The callback stays registered.
  void disarm_timer(TimerId timer);

  /// Whether the timer has a pending firing.
  bool timer_armed(TimerId timer) {
    return timer.valid() && slot_ptr(timer.value - 1)->armed;
  }

  /// Run events until the queue empties or `t_end` is passed; events
  /// stamped exactly `t_end` are executed. The clock is left at t_end
  /// (even if the queue empties earlier) unless a callback calls
  /// request_stop(), in which case it stays at the last executed event's
  /// time. run_until into the past (t_end < now()) runs nothing and leaves
  /// the clock untouched.
  void run_until(TimePs t_end);

  /// Run until the queue is empty.
  void run_all();

  /// Execute the single next event. Returns false if the queue is empty.
  bool step();

  /// Request that run_until/run_all return after the current event.
  void request_stop() { stop_requested_ = true; }

  /// Whether request_stop() fired during the last run_until/run_all (or
  /// since clear_stop()). The sharded coordinator polls this between
  /// boundary steps instead of calling run_until.
  bool stop_requested() const { return stop_requested_; }
  void clear_stop() { stop_requested_ = false; }

  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

  // --- sharded-PDES hooks (src/par) ---------------------------------------
  // Three sequencing modes for the FIFO tiebreaker:
  //  - own counter (default): the classic single-threaded engine;
  //  - direct: seqs come from a shared global counter (coordinator-side
  //    single-threaded setup and boundary steps across many schedulers);
  //  - window: seqs are provisional (kProvSeqBit | local counter) and every
  //    sequence-taking call is logged for barrier-merge reassignment.
  // The merge algorithm and the determinism argument live in src/par.

  /// Install (or remove, with nullptr) a shared global sequence counter.
  void set_seq_source(std::uint64_t* shared) { shared_seq_ = shared; }

  /// Next FIFO sequence number the own counter would assign. The sharded
  /// engine seeds its shared global counter from the main scheduler's
  /// value at attach time, so the combined sequence stream continues
  /// exactly where the single-threaded one stood.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Enter window mode: log sequence-taking calls into `log`, assign
  /// provisional keys, and defer (log without queuing) any call that
  /// targets t >= end_t — those are applied with true sequence numbers by
  /// apply_logged_insert() at the barrier. The window executes keys
  /// strictly below (end_t, end_seq); end_seq is a true (untagged) global
  /// sequence, so every provisional key at end_t sorts at or past the end.
  void begin_window(WindowLog* log, TimePs end_t, std::uint64_t end_seq) {
    window_log_ = log;
    win_end_t_ = end_t;
    win_end_seq_ = end_seq;
    prov_next_ = 0;
  }
  void end_window() { window_log_ = nullptr; }
  bool in_window() const { return window_log_ != nullptr; }

  /// Execute every pending event with key < (end_t, end_seq) of
  /// begin_window(). `poll`, when non-null, is consulted every 4096 events;
  /// returning true aborts the window (the caller abandons the run).
  /// Returns false iff aborted.
  using PollFn = bool (*)(void*);
  bool run_window(PollFn poll, void* poll_ctx);

  /// Jump the clock forward without executing anything (never backward).
  /// Legal only when every pending key at or below `t` has been executed —
  /// the coordinator advances all shard clocks to each boundary step's
  /// timestamp so now()-dependent callbacks observe the sequential clock.
  void advance_now(TimePs t) {
    if (t > now_) now_ = t;
  }

  /// Earliest pending key without consuming it. False when empty. Between
  /// windows every key is a true global sequence.
  bool peek_next_key(TimePs* t, std::uint64_t* seq) {
    HeapEntry e;
    if (!peek_live(&e)) return false;
    *t = e.t;
    *seq = e.seq;
    return true;
  }

  /// Barrier-merge apply of a deferred logged call: queue (t, seq) for
  /// `slot` iff the slot generation still matches (a mismatch means the
  /// event was cancelled/re-armed later in the window; the merge consumed
  /// its sequence number regardless, exactly like the sequential engine).
  /// `bump_live` is set for cross-shard multishot fire_at, whose live
  /// count could not be touched from the foreign thread.
  void apply_logged_insert(std::uint32_t slot, std::uint32_t gen, TimePs t,
                           std::uint64_t seq, bool bump_live) {
    Slot& s = *slot_ptr(slot);
    if (s.gen != gen) return;
    insert_entry(t, seq, slot, gen);
    if (bump_live) ++live_;
  }

  /// Slot generation of a registered timer — stable for multishot timers
  /// (never bumped while registered), so a caller may read it once on the
  /// owning thread and stamp cross-shard fire_at log entries with the copy.
  /// Not callable from another shard's thread mid-window: registering a
  /// timer may grow the slot table this indexes.
  std::uint32_t timer_gen(TimerId timer) {
    return slot_ptr(timer.value - 1)->gen;
  }

 private:
  /// Inline storage for event callbacks. Sized for the repo's captures
  /// (this + a couple of words); a copied std::function (32 B on
  /// libstdc++) still fits.
  static constexpr std::size_t kInlineStorage = 48;
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;

  // --- timing-wheel geometry ------------------------------------------------
  // Tick width 2^17 ps = 131.072 ns: a 1500 B frame at 10 Gb/s (1.2 us)
  // spans ~9 ticks, so the dominant short-horizon timers (tx completions,
  // wake timers, rate-gate reprograms, PFC refresh) land in level 0/1.
  // Four levels of 64 slots cover 64^4 ticks ~ 2.2 s; rarer far-horizon
  // events (run horizons, stats flushes) go to the overflow heap and are
  // promoted to the near heap when the cursor reaches their tick.
  static constexpr int kTickShift = 17;
  static constexpr int kLevelBits = 6;
  static constexpr int kLevels = 4;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;  // 64
  static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;
  /// Wheel horizon in ticks: 64^4.
  static constexpr std::int64_t kHorizonTicks = std::int64_t{1}
                                                << (kLevelBits * kLevels);

  using Tick = std::int64_t;
  static Tick tick_of(TimePs t) { return t >> kTickShift; }

  struct Slot {
    alignas(std::max_align_t) std::byte storage[kInlineStorage];
    void (*run)(void*);      // invoke the callback, then destroy it
    void (*destroy)(void*);  // destroy only (cancel path); nullptr if trivial
    // Generation tag; bumped when the event fires, is cancelled or is
    // rescheduled, which invalidates outstanding EventIds and stale queue
    // entries in O(1). Never 0, so a forged/zero EventId can't match. (A
    // tag wraps only after 2^32 reuses of one slot while a stale handle
    // survives — beyond any simulation length we run.)
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoFreeSlot;
    // Persistent-timer slots (register_timer): the callback outlives each
    // firing and the slot never enters the free list while registered.
    bool persistent = false;
    bool armed = false;  // persistent only: a firing is pending
    // Multishot timers allow many pending firings: the generation is never
    // bumped while registered, so every queued entry stays live.
    bool multishot = false;
  };

  /// POD ready-queue entry; `seq` is the global FIFO tiebreaker. Used by
  /// both the near batch (events at or below the cursor tick) and the
  /// overflow heap (events beyond the wheel horizon).
  struct HeapEntry {
    TimePs t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Pooled wheel-slot list node (singly linked, intra-slot order is
  /// irrelevant: the near batch re-establishes (t, seq) order at dump time).
  struct WheelNode {
    TimePs t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint32_t next;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  Slot* slot_ptr(std::uint32_t idx) {
    return &chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t idx, Slot& s);

  /// Queue a sequence-taking call for `slot` at time `t` under the active
  /// sequencing mode (own counter / shared counter / window log).
  void queue_call(TimePs t, std::uint32_t slot, std::uint32_t gen);

  /// Route a pending entry to the near batch (tick <= cursor), a wheel slot
  /// (within the horizon) or the overflow heap.
  void insert_entry(TimePs t, std::uint64_t seq, std::uint32_t slot,
                    std::uint32_t gen);
  void wheel_link(int level, std::uint32_t wslot, TimePs t, std::uint64_t seq,
                  std::uint32_t slot, std::uint32_t gen);

  /// Advance the cursor to the earliest occupied wheel/overflow position,
  /// if its tick is <= `limit`: cascade higher-level slots starting there,
  /// dump its level-0 slot and matching overflow entries into the near
  /// batch (sorted once). Returns false when nothing is pending at or
  /// below `limit`.
  bool advance_once(Tick limit);

  /// Reset and refill the near batch from the wheel/overflow. False when
  /// empty. Only legal once the previous batch is fully consumed.
  bool refill_near();

  /// Earliest still-live pending entry without consuming it (stale entries
  /// at the consume index are skipped on the way). False when nothing is
  /// pending.
  bool peek_live(HeapEntry* out);

  /// Run the live event in `e`'s slot (generation already verified).
  void execute(const HeapEntry& e);

  void destroy_pending_callbacks();

  // Slab of stable-address slot chunks plus an intrusive free list.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint32_t slots_used_ = 0;  // high-water mark of allocated slots

  // Timing wheel + near/overflow heaps (see geometry above).
  std::uint32_t wheel_[kLevels][kSlotsPerLevel];  // head node per slot
  std::uint64_t occ_[kLevels] = {0, 0, 0, 0};     // occupancy bitmaps
  Tick cur_tick_ = 0;                             // wheel cursor
  std::vector<WheelNode> nodes_;                  // wheel node pool
  std::uint32_t node_free_ = kNoNode;
  std::vector<HeapEntry> near_;      // sorted batch, (t, seq) order
  std::size_t near_idx_ = 0;         // consume cursor into near_
  std::vector<HeapEntry> overflow_;  // 4-ary min-heap, (t, seq) order

  std::uint64_t next_seq_ = 0;

  // Sharded-PDES sequencing state (see the public hooks above). All null /
  // zero in the single-threaded engine.
  std::uint64_t* shared_seq_ = nullptr;  // direct mode: shared global counter
  WindowLog* window_log_ = nullptr;      // window mode when non-null
  TimePs win_end_t_ = 0;
  std::uint64_t win_end_seq_ = 0;
  std::uint64_t prov_next_ = 0;  // provisional-seq counter, reset per window

  TimePs now_ = 0;
  std::size_t live_ = 0;  // scheduled, not yet fired or cancelled
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace gfc::sim
