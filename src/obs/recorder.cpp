#include "obs/recorder.hpp"

#include <atomic>
#include <memory>
#include <mutex>

namespace dew::obs {

namespace {

// One span slot, all-atomic so readers and the owning writer never race in
// the data-race sense; the per-slot sequence counter (even = stable, odd =
// mid-write) is what makes a concurrent read *meaningful*, not just safe.
struct slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint64_t> correlation{0};
    std::atomic<std::uint64_t> fingerprint{0};
    std::atomic<std::uint64_t> trace_hi{0};
    std::atomic<std::uint64_t> trace_lo{0};
};

struct ring {
    std::uint32_t tid{0};
    // Next slot index to write (monotonic; slot = head % capacity).  Only
    // the owning thread stores it.
    std::atomic<std::uint64_t> head{0};
    std::vector<slot> slots{recorder::ring_capacity};
};

} // namespace

struct recorder::impl {
    std::atomic<bool> enabled{true};
    // Guards ring registration, the free list and the ring list's shape
    // only — never a record() and never held while calling out.
    std::mutex rings_mutex; // dewlint: lock-order obs-rings 130
    std::vector<std::unique_ptr<ring>> rings;
    // Rings whose thread exited, for the next new thread to take over, tid
    // and retained spans included: ring memory is bounded by the peak
    // number of live recording threads, not by threads ever started.
    std::vector<ring*> free_rings;

    // The ring list's shape, under the registration lock; the rings
    // themselves are then read lock-free (they are never deallocated).
    std::vector<ring*> snapshot() {
        const std::lock_guard<std::mutex> lock{rings_mutex};
        std::vector<ring*> out;
        out.reserve(rings.size());
        for (const std::unique_ptr<ring>& r : rings) {
            out.push_back(r.get());
        }
        return out;
    }

    ring& acquire_ring() {
        const std::lock_guard<std::mutex> lock{rings_mutex};
        if (!free_rings.empty()) {
            ring* reused = free_rings.back();
            free_rings.pop_back();
            return *reused;
        }
        rings.push_back(std::make_unique<ring>());
        rings.back()->tid = static_cast<std::uint32_t>(rings.size());
        return *rings.back();
    }

    // Hands a thread's ring back when the thread exits.  The ring stays
    // owned by the leaked singleton, so collect() keeps reading it
    // lock-free, and the free-list lock orders the old owner's last record
    // before the new owner's first.
    struct lease {
        impl* owner;
        ring** cached;
        bool* released;
        lease(impl* o, ring** c, bool* r) : owner{o}, cached{c}, released{r} {}
        lease(const lease&) = delete;
        lease& operator=(const lease&) = delete;
        ~lease() {
            const std::lock_guard<std::mutex> lock{owner->rings_mutex};
            owner->free_rings.push_back(*cached);
            *cached = nullptr;
            *released = true;
        }
    };

    // The calling thread's ring; taken (one mutex, at most one allocation)
    // on first use and cached thread-locally until the thread exits.  A
    // record made during thread exit, after the lease has run, takes a
    // ring it keeps: nothing is left to hand it back.
    ring& local_ring() {
        thread_local ring* cached = nullptr;
        thread_local bool released = false;
        if (cached == nullptr) {
            cached = &acquire_ring();
            if (!released) {
                thread_local lease handback{this, &cached, &released};
            }
        }
        return *cached;
    }
};

recorder::recorder() : impl_{new impl} {}

recorder& recorder::instance() {
    static recorder* global = new recorder; // leaked, see header
    return *global;
}

void recorder::set_enabled(bool on) noexcept {
    if constexpr (!compiled_in) {
        return;
    }
    impl_->enabled.store(on, std::memory_order_relaxed);
}

bool recorder::enabled() const noexcept {
    if constexpr (!compiled_in) {
        return false;
    }
    return impl_->enabled.load(std::memory_order_relaxed);
}

void recorder::record(const char* name, std::uint64_t start_ns,
                      std::uint64_t dur_ns, std::uint64_t correlation,
                      std::uint64_t fingerprint, std::uint64_t trace_hi,
                      std::uint64_t trace_lo) noexcept {
    if (!enabled()) {
        return;
    }
    ring& r = impl_->local_ring();
    const std::uint64_t index = r.head.load(std::memory_order_relaxed);
    slot& s = r.slots[index % ring_capacity];
    // Seqlock write, single writer per ring: mark the slot unstable, fence
    // so the field stores cannot be ordered ahead of the odd marker, write
    // the fields, publish with an even release store.
    const std::uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq0 + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.name.store(name, std::memory_order_relaxed);
    s.start_ns.store(start_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.correlation.store(correlation, std::memory_order_relaxed);
    s.fingerprint.store(fingerprint, std::memory_order_relaxed);
    s.trace_hi.store(trace_hi, std::memory_order_relaxed);
    s.trace_lo.store(trace_lo, std::memory_order_relaxed);
    s.seq.store(seq0 + 2, std::memory_order_release);
    r.head.store(index + 1, std::memory_order_release);
}

std::vector<span_event> recorder::collect() const {
    std::vector<span_event> out;
    if constexpr (!compiled_in) {
        return out;
    }
    for (ring* r : impl_->snapshot()) {
        const std::uint64_t head = r->head.load(std::memory_order_acquire);
        const std::uint64_t count =
            head < ring_capacity ? head : ring_capacity;
        out.reserve(out.size() + count);
        for (std::uint64_t i = 0; i < count; ++i) {
            const slot& s = r->slots[i % ring_capacity];
            // Seqlock read: stable iff the sequence is even and unchanged
            // across the field loads (the acquire fence orders the loads
            // before the recheck).
            const std::uint64_t seq0 = s.seq.load(std::memory_order_acquire);
            if (seq0 % 2 != 0 || seq0 == 0) {
                continue;
            }
            span_event event;
            event.name = s.name.load(std::memory_order_relaxed);
            event.start_ns = s.start_ns.load(std::memory_order_relaxed);
            event.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
            event.correlation =
                s.correlation.load(std::memory_order_relaxed);
            event.fingerprint =
                s.fingerprint.load(std::memory_order_relaxed);
            event.trace_hi = s.trace_hi.load(std::memory_order_relaxed);
            event.trace_lo = s.trace_lo.load(std::memory_order_relaxed);
            event.tid = r->tid;
            std::atomic_thread_fence(std::memory_order_acquire);
            if (s.seq.load(std::memory_order_relaxed) != seq0 ||
                event.name == nullptr) {
                continue; // overwritten under us: the writer wins
            }
            out.push_back(event);
        }
    }
    return out;
}

void recorder::clear() noexcept {
    if constexpr (!compiled_in) {
        return;
    }
    for (ring* r : impl_->snapshot()) {
        for (slot& s : r->slots) {
            s.seq.store(0, std::memory_order_relaxed);
            s.name.store(nullptr, std::memory_order_relaxed);
        }
        r->head.store(0, std::memory_order_release);
    }
}

} // namespace dew::obs
