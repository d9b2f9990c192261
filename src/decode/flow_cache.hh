/**
 * @file
 * Host-side predecoded-flow cache.
 *
 * The simulator re-enters the translator for every fetched macro-op,
 * and most translations are pure: the same macro-op under the same CSD
 * trigger state always yields the same micro-op flow. This table
 * memoizes those translations per static instruction so the hot loop
 * hands out a shared immutable flow instead of rebuilding (and
 * re-running the decode-time fusion passes over) an identical one.
 *
 * The table is a flat vector with one slot per static instruction of
 * the program (the simulator indexes it by the macro-op's position in
 * Program::code()), so a lookup is an array access plus a context
 * compare — no hashing on the hot path. The vector is sized once and
 * never reallocates, so flow references stay stable until clear().
 *
 * This is purely a host optimization — it models no hardware structure
 * and must never change simulated timing or statistics. Architectural
 * faithfulness is kept by the Translator's flow-cache protocol
 * (translator.hh): each entry is tagged with the decode context it was
 * translated under, and a lookup expecting another context
 * re-translates — the micro-op cache's context tag bits, kept on the
 * host, so a trigger that switches context invalidates only the
 * entries whose context it moved instead of flushing the table.
 * Translators with hidden inputs beyond the context also tag entries
 * with their epoch. Ops whose translation depends on mutable
 * per-instance state bypass the cache entirely, and hits replay the
 * translator's accounting. The hit/miss counters below are host-side
 * plain integers, deliberately outside the simulated stat tree, so a
 * stat dump is byte-identical with the cache on or off.
 */

#ifndef CSD_DECODE_FLOW_CACHE_HH
#define CSD_DECODE_FLOW_CACHE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "uop/flow.hh"

namespace csd
{

/** Memoization table: instruction slot -> (context, epoch, flow). */
class FlowCache
{
  public:
    struct Entry
    {
        std::uint64_t epoch = 0;  //!< translator epoch at insertion
        unsigned ctx = 0;         //!< contextId() of the translation
        std::uint32_t heat = 0;   //!< region-entry count (superblock tier)
        bool valid = false;
        UopFlow flow;             //!< shared immutable predecoded flow
    };

    /** Size the table for a program's static instruction count. */
    void
    reset(std::size_t slot_count)
    {
        entries_.assign(slot_count, Entry{});
        count_ = 0;
    }

    std::size_t slots() const { return entries_.size(); }

    /**
     * The cached flow in @p slot if it was recorded by a translation
     * in context @p expected_ctx under @p epoch, else nullptr. An entry
     * from an older epoch counts as an invalidation; an entry filled
     * from a different decode context counts as a ctx invalidation
     * (the normal outcome of a context switch, e.g. toggling
     * devectorization). Either way the caller re-translates and
     * insert() overwrites.
     */
    const Entry *
    lookup(std::size_t slot, std::uint64_t epoch, unsigned expected_ctx)
    {
        Entry &entry = entries_[slot];
        if (!entry.valid) {
            ++misses;
            return nullptr;
        }
        if (entry.epoch != epoch) {
            ++invalidations;
            return nullptr;
        }
        if (entry.ctx != expected_ctx) {
            ++ctx_invalidations;
            return nullptr;
        }
        ++hits;
        return &entry;
    }

    /**
     * lookup() without the accounting: the superblock builder walks
     * cached flows speculatively and must not perturb the hit/miss
     * counters the flow-cache tests pin.
     */
    const Entry *
    peek(std::size_t slot, std::uint64_t epoch, unsigned expected_ctx) const
    {
        const Entry &entry = entries_[slot];
        if (!entry.valid || entry.epoch != epoch ||
            entry.ctx != expected_ctx)
            return nullptr;
        return &entry;
    }

    /**
     * Bump the region-entry counter hung off @p slot (superblock-tier
     * hotness detection) and return the new value. Saturates.
     */
    std::uint32_t
    bumpHeat(std::size_t slot)
    {
        std::uint32_t &heat = entries_[slot].heat;
        if (heat != ~0u)
            ++heat;
        return heat;
    }

    /** Reset @p slot's hotness after a failed superblock build. */
    void coolSlot(std::size_t slot) { entries_[slot].heat = 0; }

    /**
     * Record @p flow in @p slot under context @p ctx and @p epoch,
     * overwriting any stale entry. Returns the cached copy; the
     * reference stays valid until clear()/reset() (the slot vector
     * never reallocates in between).
     */
    const UopFlow &
    insert(std::size_t slot, std::uint64_t epoch, unsigned ctx,
           UopFlow flow)
    {
        Entry &entry = entries_[slot];
        count_ += entry.valid ? 0 : 1;
        entry.valid = true;
        entry.epoch = epoch;
        entry.ctx = ctx;
        entry.flow = std::move(flow);
        return entry.flow;
    }

    /** Drop every cached flow; keeps the sizing and the counters. */
    void
    clear()
    {
        for (Entry &entry : entries_) {
            entry.valid = false;
            entry.flow = UopFlow{};
        }
        count_ = 0;
    }

    /** Number of live entries. */
    std::size_t size() const { return count_; }

    /** lookup() calls so far (bypassed translations never look up). */
    std::uint64_t
    lookups() const
    {
        return hits + misses + invalidations + ctx_invalidations;
    }

    /** hits over lookups(); 0 before any lookup. */
    double
    hitRate() const
    {
        return lookups() ? static_cast<double>(hits) /
                               static_cast<double>(lookups())
                         : 0.0;
    }

    // Host-side accounting (see file comment: intentionally not Stats).
    std::uint64_t hits = 0;           //!< served from cache
    std::uint64_t misses = 0;         //!< slot never filled
    std::uint64_t invalidations = 0;  //!< entry from an older epoch
    std::uint64_t ctx_invalidations = 0;  //!< entry from another context
    std::uint64_t bypasses = 0;       //!< translation unstable, not cached

  private:
    std::vector<Entry> entries_;
    std::size_t count_ = 0;
};

} // namespace csd

#endif // CSD_DECODE_FLOW_CACHE_HH
