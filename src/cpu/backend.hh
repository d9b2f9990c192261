/**
 * @file
 * Out-of-order back end timing model (Table I baseline).
 *
 * A dependence-driven model: micro-ops are processed in program order
 * and each computes its dispatch/issue/complete cycles from register
 * readiness, issue-port contention, ROB occupancy, and memory latency.
 * This captures the structures that matter for the paper's results —
 * micro-op bandwidth, port pressure from expanded flows, load latency
 * from the cache hierarchy — without event-driven machinery.
 */

#ifndef CSD_CPU_BACKEND_HH
#define CSD_CPU_BACKEND_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/executor.hh"
#include "memory/hierarchy.hh"
#include "uop/uop.hh"

namespace csd
{

/** Back end configuration (Sandy Bridge-like). */
struct BackEndParams
{
    unsigned robEntries = 168;
    unsigned commitWidth = 4;      //!< fused slots retired per cycle
    Cycles dispatchLatency = 3;    //!< rename/alloc depth after the IDQ
    Cycles mispredictResteer = 5;  //!< redirect delay past branch resolve
    Cycles takenBranchBubble = 1;  //!< correctly predicted taken branch

    /** f(name, field) once per field. The manifest hash derives from
     *  it; tests/sim/test_manifest.cc fails on a field left out. */
    template <typename F>
    void
    visit(F &&f) const
    {
        f("robEntries", robEntries);
        f("commitWidth", commitWidth);
        f("dispatchLatency", dispatchLatency);
        f("mispredictResteer", mispredictResteer);
        f("takenBranchBubble", takenBranchBubble);
    }
};

/** The out-of-order back end. */
class BackEnd
{
  public:
    /** @param mem hierarchy for data accesses; may be null. */
    BackEnd(const BackEndParams &params, MemHierarchy *mem);

    /** Timing of one processed uop. */
    struct UopTiming
    {
        Tick dispatch = 0;
        Tick issue = 0;
        Tick complete = 0;
        Tick commit = 0;

        // Stall decomposition: cycles each constraint demonstrably
        // added along this uop's dispatch->commit chain. Consumed by
        // the CPI-stack accountant (cpu/cpi_stack.hh).
        Cycles robStall = 0;     //!< dispatch held for a ROB entry
        Cycles depStall = 0;     //!< issue held past dispatch for sources
        Cycles portStall = 0;    //!< issue held for a free port
        Cycles memStall = 0;     //!< load latency beyond the L1D hit
        Cycles l1dLatency = 0;   //!< L1D-hit portion of a load's latency
        std::uint8_t memLevel = 0;  //!< level serving a load (1=L1D..4=DRAM)
        bool commitWidthStall = false;  //!< commit pushed by the width cap
    };

    /**
     * Process one dynamic uop delivered at @p deliver (fused followers
     * pass their leader's deliver cycle).
     */
    UopTiming process(const Uop &uop, const DynUop &dyn, Tick deliver);

    /** Cycle the most recently processed uop commits. */
    Tick lastCommit() const { return lastCommit_; }

    /** Total executed (unfused, non-eliminated) uops. */
    std::uint64_t uopsExecuted() const { return uopsExecuted_.value(); }

    StatGroup &stats() { return stats_; }

    /** Candidate issue ports for a functional-unit class. */
    struct PortSet
    {
        std::uint8_t count = 0;
        std::uint8_t ports[3] = {};
    };

    /** Issue-port binding table (exposed for the csd-verify audit). */
    static const PortSet &portsFor(FuClass fu);

  private:
    static constexpr unsigned numPorts = 6;

    BackEndParams params_;
    MemHierarchy *mem_;

    std::array<Tick, numFlatRegs> regReady_{};
    std::array<Tick, numPorts> portFree_{};

    // ROB occupancy: ring of commit cycles of the last robEntries uops.
    std::vector<Tick> robRing_;
    std::size_t robIdx_ = 0;
    std::uint64_t robCount_ = 0;

    Tick lastCommit_ = 0;
    Tick serializeAfter_ = 0;  //!< fence: younger uops issue after this
    Tick lastCommitCycle_ = 0;
    unsigned commitsThisCycle_ = 0;

    StatGroup stats_;
    Counter uopsExecuted_;
    Counter loadsExecuted_;
    Counter storesExecuted_;
    Counter vpuUops_;
    Counter portConflictCycles_;
};

} // namespace csd

#endif // CSD_CPU_BACKEND_HH
