/**
 * @file
 * Ring buffer sized at construction: the storage of every in-order
 * queue on the per-instruction path (ROB, fetch queue, instruction
 * window, LQ/SQ, segment allocator FIFO).
 *
 * Storage is a power-of-two array indexed by (head + i) & mask, so
 * push/pop at either end and random access are a mask and an add, and
 * nothing allocates once the ring is sized. push_back on a full ring
 * doubles the storage, keeping order; queues with a hardware bound are
 * sized to it at construction and never reach that path.
 */

#ifndef LSQSCALE_COMMON_RING_HH
#define LSQSCALE_COMMON_RING_HH

#include <bit>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace lsqscale {

template <typename T>
class Ring
{
    template <bool kConst>
    class Iter
    {
        using RingPtr = std::conditional_t<kConst, const Ring *, Ring *>;

      public:
        using iterator_category = std::random_access_iterator_tag;
        using iterator_concept = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<kConst, const T *, T *>;
        using reference = std::conditional_t<kConst, const T &, T &>;

        Iter() = default;
        Iter(RingPtr ring, std::size_t i) : ring_(ring), i_(i) {}
        /** Mutable to const conversion. */
        template <bool kOther,
                  typename = std::enable_if_t<kConst && !kOther>>
        Iter(const Iter<kOther> &o) : ring_(o.ring_), i_(o.i_)
        {}

        reference operator*() const { return (*ring_)[i_]; }
        pointer operator->() const { return &(*ring_)[i_]; }
        reference
        operator[](difference_type n) const
        {
            return (*ring_)[i_ + n];
        }

        Iter &operator++() { ++i_; return *this; }
        Iter &operator--() { --i_; return *this; }
        Iter operator++(int) { Iter t = *this; ++i_; return t; }
        Iter operator--(int) { Iter t = *this; --i_; return t; }
        Iter &operator+=(difference_type n) { i_ += n; return *this; }
        Iter &operator-=(difference_type n) { i_ -= n; return *this; }
        friend Iter operator+(Iter it, difference_type n) { return it += n; }
        friend Iter operator+(difference_type n, Iter it) { return it += n; }
        friend Iter operator-(Iter it, difference_type n) { return it -= n; }
        friend difference_type
        operator-(const Iter &a, const Iter &b)
        {
            return static_cast<difference_type>(a.i_) -
                   static_cast<difference_type>(b.i_);
        }
        friend bool
        operator==(const Iter &a, const Iter &b)
        {
            return a.i_ == b.i_;
        }
        friend auto
        operator<=>(const Iter &a, const Iter &b)
        {
            return a.i_ <=> b.i_;
        }

      private:
        template <bool>
        friend class Iter;

        RingPtr ring_ = nullptr;
        /** Logical position: 0 is the front. */
        std::size_t i_ = 0;
    };

  public:
    using value_type = T;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    /** A ring holding at least @p capacity elements without growing. */
    explicit Ring(std::size_t capacity)
        : buf_(std::bit_ceil(capacity)), mask_(buf_.size() - 1)
    {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return buf_.size(); }
    bool full() const { return size_ == buf_.size(); }

    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        if (full()) [[unlikely]]
            grow();
        (*this)[size_++] = v;
    }

    /** Append a value-initialized element and return it. */
    T &
    emplace_back()
    {
        if (full()) [[unlikely]]
            grow();
        T &slot = (*this)[size_++];
        slot = T{};
        return slot;
    }

    void
    pop_front()
    {
        LSQ_DCHECK(size_ > 0, "pop_front on an empty ring");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    pop_back()
    {
        LSQ_DCHECK(size_ > 0, "pop_back on an empty ring");
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }
    const_iterator cbegin() const { return begin(); }
    const_iterator cend() const { return end(); }

  private:
    /** Double the storage, moving the elements to the front. */
    void
    grow()
    {
        std::vector<T> bigger(buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        buf_ = std::move(bigger);
        mask_ = buf_.size() - 1;
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_COMMON_RING_HH
