/**
 * @file
 * The Canon processing element (Figure 4): a 3-stage pipeline around a
 * 4-wide INT8 vector lane.
 *
 *   LOAD    read operands from scratchpad / data memory / NoC ports /
 *           SIMD registers into the lane input registers.
 *   EXECUTE the vector lane computes (4 INT8 MACs or adds).
 *   COMMIT  write the result to scratchpad / registers / data memory,
 *           or send it to a neighbour; pass-through routes switched by
 *           ROUTER_CONF emit here too.
 *
 * PEs carry no control state beyond the pipeline registers: they
 * execute whatever the instruction NoC delivers. Local memories and
 * registers are PE-private, so stages apply in COMMIT->EXECUTE->LOAD
 * order within a cycle plus a single EXECUTE->LOAD forwarding path,
 * which yields exact sequential semantics for back-to-back
 * accumulations into the same location (the dense-GEMM inner loop).
 *
 * Structural rules from Section 3.1 are enforced by panics: one
 * transfer per NoC direction per cycle, one read and one write port on
 * each local memory per cycle.
 *
 * The pipeline advances in place. Two stage slots hold the LOAD->EXECUTE
 * and EXECUTE->COMMIT registers; an instruction keeps its slot from
 * LOAD to COMMIT while the slots swap roles every cycle. Within
 * tickCompute the EX slot commits, the LD slot executes in place, the
 * next instruction loads into the slot COMMIT just freed, and the role
 * index flips. Doing all of that in the compute phase is safe because
 * stage state is PE-private, exactly like the registers and local
 * memories already written there: no other component reads it, and
 * nothing reads it during the commit phase, so there is nothing to
 * publish and Pe has no commit phase (kHasTickCommit = false).
 */

#ifndef CANON_PE_PE_HH
#define CANON_PE_PE_HH

#include <array>
#include <string>

#include "common/stats.hh"
#include "mem/vecram.hh"
#include "noc/inst_pipeline.hh"
#include "noc/router.hh"
#include "sim/clocked.hh"

namespace canon
{

/** Execution modes (Appendix D spatial support). */
enum class PeMode : std::uint8_t
{
    Streaming, //!< normal time-lapsed operation: execute the tap
    Config,    //!< spatial configuration phase: taps pass through inert
    Spatial,   //!< frozen pipeline: re-execute the latched tap forever
};

struct PeGeometry
{
    int row = 0;
    int col = 0;
};

class Pe final : public Clocked
{
  public:
    /** Stage state is PE-private and advances in place at compute. */
    static constexpr bool kHasTickCommit = false;

    Pe(const PeGeometry &geo, int dmem_slots, int spad_slots,
       StatGroup &stats);

    void bindPipeline(InstPipeline *pipe) { pipe_ = pipe; }

    Router &router() { return router_; }
    VecRam &dmem() { return dmem_; }
    VecRam &spad() { return spad_; }

    void setMode(PeMode m) { mode_ = m; }
    PeMode mode() const { return mode_; }

    const Vec4 &reg(int r) const { return regs_[r]; }
    void pokeReg(int r, const Vec4 &v) { regs_[r] = v; }

    /** True iff no instruction is in flight in the pipeline. */
    bool idle() const;

    /** Counter read for the obs cycle accountant (a cycle with no
     *  busyCycles delta is an idle cycle). */
    std::uint64_t busyCyclesValue() const
    {
        return busyCycles_.value();
    }

    int row() const { return geo_.row; }
    int col() const { return geo_.col; }

    void tickCompute() override;
    void tickCommit() override {}

  private:
    /**
     * Pipeline register between LOAD/EXECUTE and EXECUTE/COMMIT. An
     * instruction's slot is reused from LOAD to COMMIT, and a LOAD
     * overwrites whatever the slot held before: every field a stage
     * reads is either written by LOAD for that opcode or guarded by a
     * valid flag that LOAD resets.
     */
    struct StageReg
    {
        Instruction inst = nopInst();
        Vec4 a;        //!< op1 value
        Vec4 b;        //!< op2 value
        Vec4 resOld;   //!< prior contents of res (MAC accumulate)
        Vec4 west;     //!< west-in value for VvMacW
        Vec4 resultForwarded; //!< EXECUTE output (forwarding network)
        Vec4 routeN2S;
        Vec4 routeW2E;
        bool routeN2SValid = false;
        bool routeW2EValid = false;
        bool valid = false;
    };

    /** COMMIT @p ex; @p next is the instruction one stage behind. */
    void commitStage(const StageReg &ex, const StageReg &next);
    void executeStage(StageReg &ld);
    /** LOAD @p inst into @p slot; @p fwd is the just-executed stage. */
    void loadStage(StageReg &slot, const Instruction &inst,
                   const StageReg &fwd);

    /**
     * Spatial-mode firing rule: a held instruction executes only when
     * every port it reads has data and every port it writes has space
     * (Appendix D; the streaming mode instead relies on orchestrator
     * determinism and panics on a violated schedule).
     */
    bool spatialReady(const Instruction &inst) const;

    Vec4 readOperand(Addr a, const StageReg &fwd);
    Vec4 readPort(Dir d);
    void writeDest(Addr a, const Vec4 &v);

    PeGeometry geo_;
    std::string name_;
    VecRam dmem_;
    VecRam spad_;
    Router router_;
    std::array<Vec4, addrspace::kRegSize> regs_{};
    InstPipeline *pipe_ = nullptr;
    PeMode mode_ = PeMode::Streaming;

    // stages_[ld_] sits between LOAD and EXECUTE, stages_[ld_ ^ 1]
    // between EXECUTE and COMMIT.
    std::array<StageReg, 2> stages_{};
    int ld_ = 0;

    // Per-cycle port-read cache: one physical pop feeds every consumer
    // of the same input port in one instruction. Valid bits live in a
    // bitmask so clearing the cache is a single store.
    std::array<Vec4, kNumDirs> portCache_{};
    std::uint8_t portCacheValid_ = 0;

    // Per-cycle local-memory port accounting.
    int dmemReadsThisCycle_ = 0;
    int dmemWritesThisCycle_ = 0;
    int spadReadsThisCycle_ = 0;
    int spadWritesThisCycle_ = 0;

    Counter &busyCycles_;
    Counter &macOps_;
    Counter &aluOps_;
    Counter &regReads_;
    Counter &regWrites_;
};

} // namespace canon

#endif // CANON_PE_PE_HH
