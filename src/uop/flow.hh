/**
 * @file
 * A micro-op flow: the translation of one macro-op.
 *
 * Flows may contain a micro-loop — a contiguous body of uops replayed a
 * statically known number of times by the microsequencer. Decoy
 * injection (paper Fig. 4c) and microsequenced string operations use
 * this. Trip counts are always known at translation time because the
 * context-sensitive decoder snapshots the decoy address-range MSRs into
 * its internal registers when a translation mode is triggered.
 */

#ifndef CSD_UOP_FLOW_HH
#define CSD_UOP_FLOW_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/small_vector.hh"
#include "uop/uop.hh"

namespace csd
{

/**
 * Container for a flow's micro-ops. Most translations are 1-4 uops
 * (the paper's Table 1 workloads average ~1.2 uops per macro-op), so
 * four inline slots keep the common case allocation-free; only
 * decoy-injected, devectorized, and microsequenced flows spill.
 */
using UopVec = SmallVector<Uop, 4>;

/** A statically counted micro-loop within a flow. */
struct MicroLoop
{
    std::uint16_t bodyStart = 0;  //!< first uop index of the body
    std::uint16_t bodyEnd = 0;    //!< one past the last body uop
    std::uint32_t tripCount = 0;  //!< number of body iterations
};

/** The translation of one macro-op into micro-ops. */
struct UopFlow
{
    UopVec uops;
    std::optional<MicroLoop> loop;

    /** Delivered by the MSROM microsequencer rather than a decoder. */
    bool fromMsrom = false;

    /**
     * Eligible for the micro-op cache. Per-instance randomized
     * translations (timing-noise injection) must not be cached, or the
     * cache would replay one fixed instance and defeat the noise.
     */
    bool cacheable = true;

    /**
     * The flow's dynamic expansion as three static ranges of uops, each
     * replayed @c times: prologue once, the micro-loop body tripCount
     * times (zero trips skip it), epilogue once. This is the one
     * definition of micro-loop expansion; the executor, the superblock
     * builder and every expanded count walk it.
     */
    struct Segment
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::uint64_t times = 1;
    };

    std::array<Segment, 3>
    segments() const
    {
        if (!loop)
            return {Segment{0, uops.size(), 1}, Segment{}, Segment{}};
        return {Segment{0, loop->bodyStart, 1},
                Segment{loop->bodyStart, loop->bodyEnd, loop->tripCount},
                Segment{loop->bodyEnd, uops.size(), 1}};
    }

    // The helpers below take a loop-free fast path: they run once per
    // simulated macro-op, where the segment walk's overhead shows.

    /** Call @p fn on every uop in dynamic (expanded) order. */
    template <class Fn>
    void
    forEachExpanded(Fn &&fn) const
    {
        if (!loop) {
            for (const Uop &uop : uops)
                fn(uop);
            return;
        }
        for (const Segment &seg : segments())
            for (std::uint64_t trip = 0; trip < seg.times; ++trip)
                for (std::size_t i = seg.begin; i < seg.end; ++i)
                    fn(uops[i]);
    }

    /** Number of dynamic (expanded) uops satisfying @p pred. */
    template <class Pred>
    std::uint64_t
    countExpanded(Pred &&pred) const
    {
        std::uint64_t count = 0;
        if (!loop) {
            for (const Uop &uop : uops)
                count += pred(uop) ? 1 : 0;
            return count;
        }
        for (const Segment &seg : segments()) {
            std::uint64_t matching = 0;
            for (std::size_t i = seg.begin; i < seg.end; ++i)
                matching += pred(uops[i]) ? 1 : 0;
            count += matching * seg.times;
        }
        return count;
    }

    /** Number of uops the flow delivers dynamically. */
    std::uint64_t
    expandedCount() const
    {
        if (!loop)
            return uops.size();
        std::uint64_t count = 0;
        for (const Segment &seg : segments())
            count += (seg.end - seg.begin) * seg.times;
        return count;
    }

    /**
     * Number of slots the flow occupies in fused-domain structures
     * (uop queue, uop cache): fused pairs count once.
     */
    std::uint64_t
    fusedSlotCount() const
    {
        std::uint64_t slots = 0;
        for (const Uop &uop : uops)
            if (!uop.fusedFollower)
                ++slots;
        return slots;
    }

    /** True iff any uop in the flow executes on the VPU. */
    bool
    usesVpu() const
    {
        for (const Uop &uop : uops)
            if (onVpu(uop))
                return true;
        return false;
    }
};

} // namespace csd

#endif // CSD_UOP_FLOW_HH
