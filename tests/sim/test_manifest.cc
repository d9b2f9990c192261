/**
 * @file
 * Completeness of the stats-dump config_hash (Simulation::
 * buildManifest): every parameter a params struct's visit() lists
 * moves the hash, every field of every params struct is listed exactly
 * once, and what is wired into a simulation (translator, taint
 * tracker, power controller and its GatingParams) moves it too. Two
 * runs that can differ must hash differently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "csd/csd.hh"
#include "dift/taint.hh"
#include "obs/manifest.hh"
#include "sim/simulation.hh"
#include "workloads/spec.hh"

namespace csd
{
namespace
{

/**
 * Call fn(path, field) for every leaf field @p params.visit() reports,
 * recursing into nested params structs. @p params is non-const, so fn
 * may modify the field it is handed.
 */
template <typename P, typename Fn>
void
forEachLeaf(P &params, const std::string &prefix, Fn &&fn)
{
    std::as_const(params).visit(
        [&](std::string_view name, const auto &field) {
            using T = std::decay_t<decltype(field)>;
            T &mut = const_cast<T &>(field);
            const std::string path = prefix + std::string(name);
            if constexpr (obs::VisitableParams<T>)
                forEachLeaf(mut, path + ".", fn);
            else
                fn(path, mut);
        });
}

/** A different valid value: doubled (sizes stay powers of two). */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) ^ 1);
    else if constexpr (std::is_arithmetic_v<T>)
        v = v ? v * 2 : 1;
    else
        v += "x";
}

/** The number of leaf fields visit() reaches. */
template <typename P>
std::size_t
leafCount(P params)
{
    std::size_t n = 0;
    forEachLeaf(params, "", [&](const std::string &, auto &) { ++n; });
    return n;
}

/** @p params with its @p index-th leaf field perturbed; @p path names it. */
template <typename P>
P
perturbedLeaf(P params, std::size_t index, std::string &path)
{
    std::size_t i = 0;
    forEachLeaf(params, "", [&](const std::string &p, auto &field) {
        if (i++ == index) {
            perturb(field);
            path = p;
        }
    });
    return params;
}

Program
tinyProgram()
{
    ProgramBuilder b;
    b.movri(Gpr::Rax, 1);
    b.add(Gpr::Rax, Gpr::Rax);
    b.halt();
    return b.build();
}

std::string
hashOf(const Program &prog, const SimParams &params)
{
    return Simulation(prog, params).buildManifest().configHash;
}

TEST(ManifestHash, EveryVisitedSimParamMovesTheHash)
{
    const Program prog = tinyProgram();
    const SimParams base;
    const std::string base_hash = hashOf(prog, base);
    const std::size_t n = leafCount(base);
    EXPECT_GE(n, 60u);  // 67 today: 2 + 21 + 18 (memory) + 5 + 4 + 17
    std::vector<std::string> hashes{base_hash};
    for (std::size_t i = 0; i < n; ++i) {
        std::string path;
        const SimParams params = perturbedLeaf(base, i, path);
        const std::string hash = hashOf(prog, params);
        EXPECT_NE(hash, base_hash) << path << " is not hashed";
        hashes.push_back(hash);
    }
    // Keys separate the fields: no two perturbations collide.
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end());
}

TEST(ManifestHash, EveryGatingParamMovesTheHash)
{
    const Program prog = tinyProgram();
    const EnergyModel energy;
    const auto hash = [&](const GatingParams &gating) {
        Simulation sim(prog);
        PowerGateController power(gating, energy);
        sim.setPowerController(&power);
        return sim.buildManifest().configHash;
    };
    const GatingParams base;
    const std::string base_hash = hash(base);
    EXPECT_NE(base_hash, Simulation(prog).buildManifest().configHash)
        << "an attached power controller is not hashed";
    const std::size_t n = leafCount(base);
    EXPECT_EQ(n, 5u);
    for (std::size_t i = 0; i < n; ++i) {
        std::string path;
        const GatingParams gating = perturbedLeaf(base, i, path);
        EXPECT_NE(hash(gating), base_hash) << "gating." << path;
    }
}

TEST(ManifestHash, WiringMovesTheHashAndHostSwitchesDoNot)
{
    const Program prog = tinyProgram();
    const std::string native = Simulation(prog).buildManifest().configHash;

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    Simulation with_csd(prog);
    with_csd.setCsd(&csd);
    Simulation with_csd_translator(prog);
    with_csd_translator.setTranslator(&csd);
    EXPECT_NE(with_csd.buildManifest().configHash, native);
    EXPECT_EQ(with_csd_translator.buildManifest().configHash,
              with_csd.buildManifest().configHash);

    TaintTracker taint;
    Simulation with_taint(prog);
    with_taint.setTaintTracker(&taint);
    EXPECT_NE(with_taint.buildManifest().configHash, native);

    // Host-side switches and the observability context are not inputs.
    ObservabilityContext ctx;
    SimParams shared;
    shared.obs = &ctx;
    Simulation host(prog, shared);
    host.setFlowCacheEnabled(false);
    host.setSuperblockEnabled(false);
    EXPECT_EQ(host.buildManifest().configHash, native);
}

TEST(ManifestHash, PoliciesOfOneSpecPresetHashApart)
{
    // The bench spec runner's wiring (bench/common/spec_runner.cc).
    const SpecWorkload workload =
        SpecWorkload::build(specPresets().front(), 3);
    const auto hash = [&](GatingPolicy policy) {
        SimParams params;
        Simulation sim(workload.program, params);
        EnergyModel energy(params.energy);
        GatingParams gating;
        gating.policy = policy;
        PowerGateController controller(gating, energy);
        sim.setPowerController(&controller);
        MsrFile msrs;
        ContextSensitiveDecoder csd(msrs);
        if (policy == GatingPolicy::CsdDevect)
            sim.setCsd(&csd);
        return sim.buildManifest().configHash;
    };
    const std::string always_on = hash(GatingPolicy::AlwaysOn);
    const std::string conventional = hash(GatingPolicy::ConventionalPG);
    const std::string devect = hash(GatingPolicy::CsdDevect);
    EXPECT_NE(always_on, devect);
    EXPECT_NE(always_on, conventional);
    EXPECT_NE(conventional, devect);
    EXPECT_EQ(always_on, hash(GatingPolicy::AlwaysOn));
}

// --- field coverage ---------------------------------------------------------

/** Converts to any member type, so T{AnyField{}...} counts members.
 *  It converts to nested aggregates too, so no brace elision. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

template <typename T, std::size_t... I>
constexpr bool
bracesWith(std::index_sequence<I...>)
{
    return requires { T{(void(I), AnyField{})...}; };
}

/** The number of members of aggregate @p T. */
template <typename T, std::size_t N = 0>
constexpr std::size_t
aggregateArity()
{
    if constexpr (bracesWith<T>(std::make_index_sequence<N + 1>{}))
        return aggregateArity<T, N + 1>();
    else
        return N;
}

/**
 * Every member of @p P is visited exactly once, except @p host_side
 * host-only members: as many visits as members, each on its own bytes.
 */
template <typename P>
void
expectVisitCoversEveryField(const char *name, std::size_t host_side = 0)
{
    static_assert(std::is_aggregate_v<P>);
    const P params{};
    const auto *base = reinterpret_cast<const char *>(&params);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    params.visit([&](std::string_view, const auto &field) {
        const auto offset = static_cast<std::size_t>(
            reinterpret_cast<const char *>(&field) - base);
        ranges.emplace_back(offset, offset + sizeof(field));
    });
    EXPECT_EQ(ranges.size() + host_side, aggregateArity<P>())
        << name << " has a field its visit() leaves out";
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_LE(ranges[i].second, sizeof(P)) << name;
        if (i > 0) {
            EXPECT_LE(ranges[i - 1].second, ranges[i].first)
                << name << " visits a field twice";
        }
    }
}

TEST(ManifestHash, EveryParamsFieldIsVisitedOnce)
{
    static_assert(aggregateArity<BranchPredParams>() == 4);
    static_assert(aggregateArity<CacheParams>() == 4);
    expectVisitCoversEveryField<FrontEndParams>("FrontEndParams");
    expectVisitCoversEveryField<CacheParams>("CacheParams");
    expectVisitCoversEveryField<MemHierarchyParams>("MemHierarchyParams");
    expectVisitCoversEveryField<BackEndParams>("BackEndParams");
    expectVisitCoversEveryField<BranchPredParams>("BranchPredParams");
    expectVisitCoversEveryField<EnergyParams>("EnergyParams");
    expectVisitCoversEveryField<GatingParams>("GatingParams");
    // SimParams::obs is the host-side observability context.
    expectVisitCoversEveryField<SimParams>("SimParams", 1);
}

} // namespace
} // namespace csd
