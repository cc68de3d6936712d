#include "noc/inst_pipeline.hh"

#include "common/logging.hh"

namespace canon
{

InstPipeline::InstPipeline(int columns)
    : columns_(columns),
      stages_(static_cast<std::size_t>(kIssueStagger) * (columns - 1) + 1,
              nopInst()),
      staged_(nopInst())
{
    panicIf(columns <= 0, "InstPipeline: need at least one column");
}

void
InstPipeline::issue(const Instruction &inst)
{
    panicIf(issuedThisCycle_,
            "InstPipeline: orchestrator issued twice in one cycle");
    staged_ = inst;
    issuedThisCycle_ = true;
}

void
InstPipeline::tapFault(int c) const
{
    panic("InstPipeline: tap ", c, " out of ", columns_);
}

bool
InstPipeline::drained() const
{
    // Word-for-word NOP: an instruction with op == Nop but live
    // address or route fields is still in flight.
    const Instruction nop = nopInst();
    for (const auto &inst : stages_)
        if (!(inst == nop))
            return false;
    return true;
}

void
InstPipeline::tickCommit()
{
    if (!frozen_) {
        // Advancing the head ages every stage by one; the slot it lands
        // on held the oldest word, which falls off the end of the row.
        head_ = head_ + 1 == stages_.size() ? 0 : head_ + 1;
        stages_[head_] = issuedThisCycle_ ? staged_ : nopInst();
    }
    issuedThisCycle_ = false;
    staged_ = nopInst();
}

} // namespace canon
