/**
 * @file
 * The in-flight window of the cycle-level core: one fixed-capacity ring
 * of µop records, oldest first. The oldest renamed() entries are the
 * reorder buffer; the rest, up to the back, are the fetch queue. A µop
 * keeps the slot fetch gives it until it retires or is squashed, so
 * rename and every later stage write its record in place and nothing
 * is copied from one structure to another.
 *
 * Slots are raw storage, allocated once per capacity and never
 * initialized, so a run touches only the slots it uses: push() hands
 * out a slot with unspecified contents, and the caller writes each
 * field before anything reads it. T must therefore be an aggregate
 * (its objects come into being with the storage) and trivially
 * destructible (a slot is reused without being destroyed).
 *
 * Indexing is logical: operator[](0) is the oldest entry (front),
 * operator[](size()-1) the youngest (back).
 */

#ifndef WISC_COMMON_RING_HH_
#define WISC_COMMON_RING_HH_

#include <cstddef>
#include <memory>
#include <type_traits>

#include "common/log.hh"

namespace wisc {

template <typename T>
class UopRing
{
    static_assert(std::is_aggregate_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ring slots are raw storage written field by field");

  public:
    /** Empty the ring, allocating exactly 'capacity' slots unless it
     *  already has that many. */
    void
    reset(std::size_t capacity)
    {
        wisc_assert(capacity > 0, "ring needs a capacity");
        if (capacity != capacity_) {
            slots_.reset(std::allocator<T>().allocate(capacity));
            slots_.get_deleter().capacity = capacity;
            capacity_ = capacity;
        }
        head_ = 0;
        count_ = 0;
        renamed_ = 0;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    /** Entries in the renamed prefix (the reorder buffer). */
    std::size_t renamed() const { return renamed_; }

    /** Claim the slot past the back, at the young end of the
     *  unrenamed tail. Its contents are unspecified. */
    T &
    push()
    {
        wisc_assert(count_ < capacity_, "ring overflow");
        return slots_[wrap(head_ + count_++)];
    }

    /** The oldest unrenamed entry: the one rename() moves next. */
    T &
    firstUnrenamed()
    {
        wisc_assert(renamed_ < count_, "no unrenamed entry");
        return slots_[wrap(head_ + renamed_)];
    }

    /** Move firstUnrenamed() into the renamed prefix, in place. */
    void
    rename()
    {
        wisc_assert(renamed_ < count_, "no unrenamed entry");
        ++renamed_;
    }

    T &front() { return slots_[head_]; }
    T &back() { return slots_[wrap(head_ + count_ - 1)]; }
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }

    /** Retire the oldest entry, which must be renamed. */
    void
    pop_front()
    {
        wisc_assert(renamed_ > 0, "pop_front of an unrenamed entry");
        head_ = wrap(head_ + 1);
        --count_;
        --renamed_;
    }

    /** Drop the youngest entry: an unrenamed one while any remains,
     *  else the youngest renamed one. */
    void
    pop_back()
    {
        wisc_assert(count_ > 0, "pop_back on empty ring");
        if (--count_ < renamed_)
            renamed_ = count_;
    }

    /** Drop the whole unrenamed tail (a flush squashes it first). */
    void dropUnrenamed() { count_ = renamed_; }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        // Capacity is rarely a power of two, so avoid '%': i is always
        // < 2 * capacity here.
        return i >= capacity_ ? i - capacity_ : i;
    }

    struct Free
    {
        std::size_t capacity = 0;
        void
        operator()(T *p) const
        {
            std::allocator<T>().deallocate(p, capacity);
        }
    };

    std::unique_ptr<T[], Free> slots_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t renamed_ = 0;
};

} // namespace wisc

#endif // WISC_COMMON_RING_HH_
