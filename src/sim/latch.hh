/**
 * @file
 * Staged-state building blocks for two-phase clocked models.
 *
 *  - Latch<T>: a register. set() stages a value during tickCompute;
 *    commit() makes it visible. get() always returns the value latched
 *    at the previous cycle boundary.
 *
 *  - ChannelFifo<T>: a small hardware FIFO between two components (e.g.
 *    a vertical psum channel between PE rows, or an orchestrator message
 *    channel). Pushes and pops staged during a cycle are applied at the
 *    commit boundary; the head read during a cycle is the pre-cycle head.
 *    Storage is one fixed ring of `capacity` slots: staged pushes are
 *    written in place past the committed entries, so a commit only
 *    moves indices and no cycle allocates.
 *    Overflow and pop-from-empty panic: in Canon, orchestration is
 *    deterministic by construction, so either indicates a mis-programmed
 *    FSM (or a simulator bug), never a run-time condition to recover from.
 */

#ifndef CANON_SIM_LATCH_HH
#define CANON_SIM_LATCH_HH

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace canon
{

template <typename T>
class Latch
{
  public:
    Latch() = default;
    explicit Latch(T init) : cur_(std::move(init)) {}

    /** Visible value (latched at the last commit). */
    const T &get() const { return cur_; }

    /** Stage a new value; visible after commit(). */
    void set(T v) { next_ = std::move(v); }

    bool pendingUpdate() const { return next_.has_value(); }

    void
    commit()
    {
        if (next_) {
            cur_ = std::move(*next_);
            next_.reset();
        }
    }

  private:
    T cur_{};
    std::optional<T> next_;
};

template <typename T>
class ChannelFifo
{
  public:
    explicit ChannelFifo(std::size_t capacity, std::string name = "chan")
        : buf_(capacity), cap_(capacity), name_(std::move(name))
    {
        panicIf(cap_ == 0, "ChannelFifo ", name_, ": zero capacity");
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return cap_; }

    /**
     * Space check for a producer this cycle. Conservative: staged pushes
     * count against capacity, staged pops do not free space until the
     * next cycle (register semantics).
     */
    bool canPush() const { return count_ + staged_ < cap_; }

    /** Head visible this cycle. */
    const T &
    front() const
    {
        if (count_ == 0) [[unlikely]]
            emptyFault("front()");
        return buf_[head_];
    }

    /** Stage a push; panics on overflow (deterministic design violated). */
    void
    push(T v)
    {
        if (!canPush()) [[unlikely]]
            overflowFault();
        buf_[wrap(head_ + count_ + staged_)] = std::move(v);
        ++staged_;
    }

    /** Stage a pop of the current head. */
    void
    pop()
    {
        if (count_ == 0) [[unlikely]]
            emptyFault("pop()");
        if (stagedPop_) [[unlikely]]
            doublePopFault();
        stagedPop_ = true;
    }

    void
    commit()
    {
        if (stagedPop_) {
            head_ = wrap(head_ + 1);
            --count_;
            stagedPop_ = false;
        }
        count_ += staged_;
        staged_ = 0;
    }

    void
    clear()
    {
        head_ = count_ = staged_ = 0;
        stagedPop_ = false;
    }

  private:
    // Ring layout: the count_ committed entries start at head_, the
    // staged_ pushes sit just past them. canPush() keeps their sum
    // within the capacity, so a staged push never lands on the head
    // that front() still shows this cycle.
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= cap_ ? i - cap_ : i;
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    emptyFault(const char *what) const
    {
        panic("ChannelFifo ", name_, ": ", what, " on empty");
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    overflowFault() const
    {
        panic("ChannelFifo ", name_, ": overflow (cap=", cap_, ")");
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    doublePopFault() const
    {
        panic("ChannelFifo ", name_, ": double pop in cycle");
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t staged_ = 0;
    bool stagedPop_ = false;
    std::size_t cap_;
    std::string name_;
};

} // namespace canon

#endif // CANON_SIM_LATCH_HH
