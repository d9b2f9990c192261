/**
 * @file
 * Branch prediction: gshare direction predictor + BTB + return address
 * stack (Table I baseline).
 */

#ifndef CSD_CPU_BRANCH_PRED_HH
#define CSD_CPU_BRANCH_PRED_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/macroop.hh"

namespace csd
{

/** Branch predictor configuration. */
struct BranchPredParams
{
    unsigned gshareEntries = 4096;  //!< 2-bit counters
    unsigned historyBits = 12;
    unsigned btbEntries = 1024;
    unsigned rasEntries = 16;

    /** f(name, field) once per field. The manifest hash derives from
     *  it; tests/sim/test_manifest.cc fails on a field left out. */
    template <typename F>
    void
    visit(F &&f) const
    {
        f("gshareEntries", gshareEntries);
        f("historyBits", historyBits);
        f("btbEntries", btbEntries);
        f("rasEntries", rasEntries);
    }
};

/** gshare + BTB + RAS. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredParams &params = {});

    /** Outcome of a prediction for one dynamic branch. */
    struct Prediction
    {
        bool taken = false;
        Addr target = invalidAddr;  //!< invalid if BTB missed
    };

    /** Predict @p op; does not update state. */
    Prediction predict(const MacroOp &op);

    /**
     * Train with the resolved outcome and report whether the
     * prediction was correct (direction and target).
     */
    bool update(const MacroOp &op, const Prediction &pred, bool taken,
                Addr target);

    StatGroup &stats() { return stats_; }

    double
    accuracy() const
    {
        const auto total = lookups_.value();
        return total == 0
            ? 1.0
            : 1.0 - static_cast<double>(mispredicts_.value()) / total;
    }

  private:
    unsigned gshareIndex(Addr pc) const;
    unsigned btbIndex(Addr pc) const;

    BranchPredParams params_;
    std::vector<std::uint8_t> counters_;  //!< 2-bit saturating
    struct BtbEntry
    {
        Addr pc = invalidAddr;
        Addr target = invalidAddr;
    };
    std::vector<BtbEntry> btb_;
    std::vector<Addr> ras_;
    std::uint64_t history_ = 0;

    StatGroup stats_;
    Counter lookups_;
    Counter mispredicts_;
    Counter btbMisses_;
    Counter rasUsed_;
};

} // namespace csd

#endif // CSD_CPU_BRANCH_PRED_HH
