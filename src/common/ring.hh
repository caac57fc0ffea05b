/**
 * @file
 * Fixed-capacity ring buffer used for the cycle-level core's ROB and
 * fetch queue. Unlike std::deque, slots are allocated exactly once per
 * run (reset()) and elements are constructed in place with
 * emplace_back(), so the per-µop hot path never touches the allocator
 * and never moves elements between chunks.
 *
 * Indexing is logical: operator[](0) is the oldest element (front),
 * operator[](size()-1) the youngest (back).
 */

#ifndef WISC_COMMON_RING_HH_
#define WISC_COMMON_RING_HH_

#include <cstddef>
#include <vector>

#include "common/log.hh"

namespace wisc {

template <typename T>
class RingBuffer
{
  public:
    /** Drop all contents and (re)allocate for exactly 'capacity'
     *  elements. Called once per simulation run. */
    void
    reset(std::size_t capacity)
    {
        wisc_assert(capacity > 0, "ring buffer needs a capacity");
        slots_.assign(capacity, T{});
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Reinitialize the slot past the back to T{} and return it. */
    T &
    emplace_back()
    {
        wisc_assert(count_ < slots_.size(), "ring buffer overflow");
        T &slot = slots_[wrap(head_ + count_)];
        slot = T{};
        ++count_;
        return slot;
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return slots_[wrap(head_ + count_ - 1)]; }
    const T &back() const { return slots_[wrap(head_ + count_ - 1)]; }

    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    void
    pop_front()
    {
        wisc_assert(count_ > 0, "pop_front on empty ring");
        head_ = wrap(head_ + 1);
        --count_;
    }

    void
    pop_back()
    {
        wisc_assert(count_ > 0, "pop_back on empty ring");
        --count_;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        // Capacity is rarely a power of two, so avoid '%': i is always
        // < 2 * capacity here.
        return i >= slots_.size() ? i - slots_.size() : i;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace wisc

#endif // WISC_COMMON_RING_HH_
