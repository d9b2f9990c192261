/**
 * @file
 * Front-end configuration (paper Table I, Sandy Bridge-like).
 */

#ifndef CSD_DECODE_PARAMS_HH
#define CSD_DECODE_PARAMS_HH

#include "common/types.hh"

namespace csd
{

/** Configuration of the decode front end. */
struct FrontEndParams
{
    // Legacy decode pipeline
    unsigned fetchBytesPerCycle = 16;   //!< 16-byte fetch buffer refill
    unsigned macroQueueEntries = 18;    //!< macro-op queue depth
    unsigned decodeWidth = 4;           //!< number of decoders
    unsigned simpleDecoders = 3;        //!< 1-uop decoders (rest complex)
    unsigned complexDecoderMaxUops = 4; //!< beyond this -> MSROM
    unsigned msromWidth = 4;            //!< uops/cycle from the MSROM

    // Micro-op cache
    bool uopCacheEnabled = true;
    unsigned uopCacheSets = 32;
    unsigned uopCacheWays = 8;
    unsigned uopCacheSlotsPerWay = 6;   //!< fused uops per way
    unsigned uopCacheWindowBytes = 32;  //!< mapping window
    unsigned uopCacheMaxWaysPerWindow = 3;
    unsigned uopCacheStreamWidth = 6;   //!< fused uops/cycle on a hit
    /**
     * Tag the micro-op cache with translation-context bits so custom
     * translations co-reside with native ones (paper §III-B). When
     * false, the whole micro-op cache is flushed on every translation
     * mode switch (the strawman alternative).
     */
    bool uopCacheContextBits = true;
    Cycles uopCacheSwitchPenalty = 2;   //!< legacy <-> uop-cache switch

    // Loop stream detector
    bool lsdEnabled = true;
    unsigned lsdMaxSlots = 28;          //!< loop body fused-slot limit
    unsigned lsdStreamWidth = 4;

    // Fusion
    bool macroFusion = true;
    bool microFusion = true;

    // Stack pointer tracker (eliminates rsp-update uops at decode)
    bool spTracker = true;

    /** f(name, field) once per field. The manifest hash derives from
     *  it; tests/sim/test_manifest.cc fails on a field left out. */
    template <typename F>
    void
    visit(F &&f) const
    {
        f("fetchBytesPerCycle", fetchBytesPerCycle);
        f("macroQueueEntries", macroQueueEntries);
        f("decodeWidth", decodeWidth);
        f("simpleDecoders", simpleDecoders);
        f("complexDecoderMaxUops", complexDecoderMaxUops);
        f("msromWidth", msromWidth);
        f("uopCacheEnabled", uopCacheEnabled);
        f("uopCacheSets", uopCacheSets);
        f("uopCacheWays", uopCacheWays);
        f("uopCacheSlotsPerWay", uopCacheSlotsPerWay);
        f("uopCacheWindowBytes", uopCacheWindowBytes);
        f("uopCacheMaxWaysPerWindow", uopCacheMaxWaysPerWindow);
        f("uopCacheStreamWidth", uopCacheStreamWidth);
        f("uopCacheContextBits", uopCacheContextBits);
        f("uopCacheSwitchPenalty", uopCacheSwitchPenalty);
        f("lsdEnabled", lsdEnabled);
        f("lsdMaxSlots", lsdMaxSlots);
        f("lsdStreamWidth", lsdStreamWidth);
        f("macroFusion", macroFusion);
        f("microFusion", microFusion);
        f("spTracker", spTracker);
    }
};

} // namespace csd

#endif // CSD_DECODE_PARAMS_HH
