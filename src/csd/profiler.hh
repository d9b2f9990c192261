/**
 * @file
 * Decoder-level performance counters (paper §III-E, "Performance
 * Counters" and "Profiling").
 *
 * Hardware performance counters are scarce and change layout every
 * generation; instrumentation-based profiling perturbs code and data
 * layout (heisenbugs). A context-sensitive decoder can instead count
 * events as it translates: unlimited simultaneous counters, stable
 * across generations, and **zero change to code or data layout** —
 * the translated flows are passed through untouched.
 *
 * DecoderProfiler is a Translator decorator: wrap any translator
 * (native or the full CSD) and read the event counts afterwards.
 */

#ifndef CSD_CSD_PROFILER_HH
#define CSD_CSD_PROFILER_HH

#include <array>
#include <map>

#include "common/stats.hh"
#include "decode/translator.hh"

namespace csd
{

/** Events countable at decode. */
enum class ProfileEvent : unsigned
{
    Instructions,
    Uops,           //!< static uops of the flows (loop-expanded)
    Loads,
    Stores,
    Branches,
    VectorOps,
    MicrosequencedFlows,
    FlagWriters,
    NumEvents,
};

/** A translator decorator that counts events without altering flows. */
class DecoderProfiler : public Translator
{
  public:
    explicit DecoderProfiler(Translator &inner) : inner_(inner) {}

    UopFlow
    translate(const MacroOp &op) override
    {
        UopFlow flow = inner_.translate(op);
        if (enabled_)
            account(op, flow);
        return flow;
    }

    unsigned contextId() const override { return inner_.contextId(); }
    void tick(Tick now) override { inner_.tick(now); }

    // Forward the predecoded-flow-cache protocol to the wrapped
    // translator, and keep counting exact on cache hits: a replayed
    // flow is still one decoded instruction's worth of events.
    std::uint64_t
    translationEpoch() const override
    {
        return inner_.translationEpoch();
    }

    bool
    translationStable(const MacroOp &op) const override
    {
        return inner_.translationStable(op);
    }

    unsigned
    stableContext(const MacroOp &op) const override
    {
        return inner_.stableContext(op);
    }

    bool
    stableContextFixed(const MacroOp &op) const override
    {
        return inner_.stableContextFixed(op);
    }

    void
    noteCachedTranslation(const MacroOp &op, const UopFlow &flow,
                          unsigned ctx) override
    {
        inner_.noteCachedTranslation(op, flow, ctx);
        if (enabled_)
            account(op, flow);
    }

    /** Counting can be toggled at run time (another context switch). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    std::uint64_t
    count(ProfileEvent event) const
    {
        return counts_[static_cast<unsigned>(event)];
    }

    /** Per-PC translation counts (a decode-level hotness profile). */
    const std::map<Addr, std::uint64_t> &pcProfile() const
    {
        return pcCounts_;
    }

    /** Hottest @p n PCs, by translation count. */
    std::vector<std::pair<Addr, std::uint64_t>> hottest(std::size_t n)
        const;

    void reset();

  private:
    void account(const MacroOp &op, const UopFlow &flow);

    Translator &inner_;
    bool enabled_ = true;
    std::array<std::uint64_t,
               static_cast<unsigned>(ProfileEvent::NumEvents)>
        counts_{};
    std::map<Addr, std::uint64_t> pcCounts_;
};

} // namespace csd

#endif // CSD_CSD_PROFILER_HH
