/**
 * @file
 * Closed-loop benchmark driver for the simulator's two case studies.
 *
 * Drives the library from outside, through public functions only, one
 * simulation at a time on one thread, and prints one JSON object per
 * line: one "cell" record per (preset, policy) cell or attack variant,
 * one "pass" record per pass over the workload's fixed work, and in
 * traced mode one "span" record per recorded span. run.py aggregates
 * the records, checks them and reports the metrics.
 *
 * Modes:
 *   perf_driver info
 *   perf_driver library --spec-seed N
 *                       --aes-undefended KEY... --aes-defended KEY...
 *                       --rsa-undefended EXP... --rsa-defended EXP...
 *                       --pt-seed N [--seconds S] [--trace]
 *   perf_driver setup
 *
 * A library pass runs the 39 devectorization cells, then every attack
 * variant input, so both halves see the same host conditions. Passes
 * repeat while the next one is expected to finish within
 * --seconds (at least one pass). With --trace, perf_driver runs one
 * untraced pass, one traced pass (spans around every call into a
 * layer, a counting/timing Translator decorator on every CSD), then a
 * pass that runs each cell untraced and under every host-only toggle
 * (flow cache off, CPI stack off, superblock tier off, channel monitor
 * off) so run.py can price the decode, cpu and memory layers.
 *
 * Records of the host-only toggles that drop observables (CPI stack
 * off, channel monitor off) carry only "digest_core"; every other cell
 * record also carries the full "digest".
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "csd/csd.hh"
#include "csd/msr.hh"
#include "obs/build_info.hh"
#include "power/energy.hh"
#include "power/gating.hh"
#include "sec/aes_attack.hh"
#include "sec/observation_ledger.hh"
#include "sec/rsa_attack.hh"
#include "sec/victim.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"
#include "workloads/spec.hh"

using namespace csd;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perf_driver: %s\n", why.c_str());
    std::exit(2);
}

// --- JSON line writer ------------------------------------------------------

class Record
{
  public:
    explicit Record(const char *kind) { field("kind", kind); }

    Record &
    field(const char *key, const std::string &value)
    {
        sep(key);
        out_ += '"';
        out_ += value;  // keys, names and hex digests only: no escaping
        out_ += '"';
        return *this;
    }

    Record &field(const char *key, const char *value)
    {
        return field(key, std::string(value));
    }

    Record &
    field(const char *key, double value)
    {
        sep(key);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        out_ += buf;
        return *this;
    }

    Record &field(const char *key, std::uint64_t value)
    {
        sep(key);
        out_ += std::to_string(value);
        return *this;
    }

    Record &field(const char *key, unsigned value)
    {
        return field(key, static_cast<std::uint64_t>(value));
    }

    Record &field(const char *key, bool value)
    {
        sep(key);
        out_ += value ? "true" : "false";
        return *this;
    }

    Record &
    array(const char *key, const std::vector<std::uint64_t> &values)
    {
        sep(key);
        out_ += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out_ += ',';
            out_ += std::to_string(values[i]);
        }
        out_ += ']';
        return *this;
    }

    void
    emit()
    {
        out_ += '}';
        std::puts(out_.c_str());
    }

  private:
    void
    sep(const char *key)
    {
        out_ += out_.empty() ? '{' : ',';
        out_ += '"';
        out_ += key;
        out_ += "\":";
    }

    std::string out_;
};

// --- digest ---------------------------------------------------------------

/** FNV-1a over 64-bit words: a fingerprint of simulated results. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void add(unsigned v) { add(static_cast<std::uint64_t>(v)); }
    void add(int v) { add(static_cast<std::uint64_t>(v)); }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- tracing ------------------------------------------------------------

/** In-memory span recorder, written out as records at the end. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    bool on = false;

    int
    begin(const std::string &name)
    {
        if (!on)
            return -1;
        spans_.push_back({name, now(), 0.0, open_});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[id].end = now();
        open_ = spans_[id].parent;
    }

    void
    emit() const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Record("span")
                .field("id", static_cast<std::uint64_t>(i))
                .field("name", spans_[i].name)
                .field("parent", static_cast<double>(spans_[i].parent))
                .field("start", spans_[i].start)
                .field("end", spans_[i].end)
                .emit();
        }
    }

  private:
    double now() const { return secondsSince(origin_); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

Tracer tracer;

/** RAII span; free when tracing is off. */
class SpanScope
{
  public:
    explicit SpanScope(const std::string &name) : id_(tracer.begin(name)) {}
    ~SpanScope() { tracer.end(id_); }

  private:
    int id_;
};

/**
 * Forwarding Translator that counts and times the CSD's protocol
 * calls. Installed with setTranslator() after setCsd(), so the
 * simulation keeps its devectorization hook on the real CSD.
 */
class CountingTranslator final : public Translator
{
  public:
    explicit CountingTranslator(Translator &inner) : inner_(inner) {}

    UopFlow
    translate(const MacroOp &op) override
    {
        const Clock::time_point t0 = Clock::now();
        UopFlow flow = inner_.translate(op);
        translateSeconds += secondsSince(t0);
        ++translateCalls;
        return flow;
    }

    unsigned contextId() const override { return inner_.contextId(); }

    void
    tick(Tick now) override
    {
        ++tickCalls;
        inner_.tick(now);
    }

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

    void
    noteCachedTranslation(const MacroOp &op, const UopFlow &flow,
                          unsigned ctx) override
    {
        ++cachedReplays;
        inner_.noteCachedTranslation(op, flow, ctx);
    }

    double translateSeconds = 0;
    std::uint64_t translateCalls = 0;
    std::uint64_t tickCalls = 0;
    std::uint64_t cachedReplays = 0;

  private:
    Translator &inner_;
};

// --- run configuration ------------------------------------------------------

/** Host-only settings of one pass. None may change simulated results. */
struct PassMode
{
    std::string name = "base";
    bool traced = false;
    bool flowCache = true;
    bool cpiStack = true;
    bool superblock = true;
    bool monitor = true;
};

/** Host-side timing of one cell, and its CSD decorator when traced. */
struct HostCounts
{
    double buildSeconds = 0;
    double constructSeconds = 0;
    double runSeconds = 0;
    std::unique_ptr<CountingTranslator> counter;
};

/** Fields every cell record carries, read after the cell ran. */
void
emitCommon(Record &rec, const PassMode &mode, unsigned pass,
           const HostCounts &h, const Simulation &sim)
{
    const FlowCache &fc = sim.flowCache();
    rec.field("mode", mode.name)
        .field("pass", pass)
        .field("build_s", h.buildSeconds)
        .field("construct_s", h.constructSeconds)
        .field("run_s", h.runSeconds)
        .field("uops", sim.uopsSimulated())
        .field("instructions", sim.instructions())
        .field("cycles", static_cast<std::uint64_t>(sim.cycles()))
        .field("fc_hits", fc.hits)
        .field("fc_misses", fc.misses)
        .field("fc_invalidations", fc.invalidations)
        .field("fc_ctx_invalidations", fc.ctx_invalidations)
        .field("sb_uops", sim.fastPath().counters().uopsRetired);
    if (h.counter) {
        rec.field("csd_translate_s", h.counter->translateSeconds)
            .field("csd_translate_calls", h.counter->translateCalls)
            .field("csd_tick_calls", h.counter->tickCalls)
            .field("csd_cached_replays", h.counter->cachedReplays);
    }
}

void
applyMode(Simulation &sim, const PassMode &mode)
{
    sim.setFlowCacheEnabled(mode.flowCache);
    sim.setSuperblockEnabled(mode.superblock);
}

// --- library: devectorization cells ----------------------------------------

const char *
policyName(GatingPolicy policy)
{
    switch (policy) {
      case GatingPolicy::AlwaysOn: return "always_on";
      case GatingPolicy::ConventionalPG: return "conv_pg";
      case GatingPolicy::CsdDevect: return "csd_devect";
    }
    return "?";
}

/** Phase pairs the Figs. 12-16 harnesses size each preset to. */
unsigned
figurePhasePairs(const SpecPreset &preset)
{
    const std::uint64_t target = 400000;
    const std::uint64_t per_pair =
        preset.scalarPhaseLen + preset.vectorPhaseLen + 1;
    return static_cast<unsigned>(
        std::max<std::uint64_t>(3, target / per_pair));
}

void
runDevectCell(const SpecWorkload &workload, GatingPolicy policy,
              const PassMode &mode, unsigned pass, double build_seconds)
{
    const std::string cell =
        workload.preset.name + "." + policyName(policy);
    SpanScope cell_span("cell:" + cell);
    HostCounts h;
    h.buildSeconds = build_seconds;

    Clock::time_point t0 = Clock::now();
    int span = tracer.begin("sim.construct");
    SimParams params;
    params.mode = SimMode::Detailed;
    Simulation sim(workload.program, params);
    applyMode(sim, mode);
    if (mode.cpiStack)
        sim.enableCpiStack();
    EnergyModel energy_model(params.energy);
    GatingParams gating;
    gating.policy = policy;
    PowerGateController controller(gating, energy_model);
    sim.setPowerController(&controller);
    MsrFile msrs;
    std::unique_ptr<ContextSensitiveDecoder> csd;
    if (policy == GatingPolicy::CsdDevect) {
        csd = std::make_unique<ContextSensitiveDecoder>(msrs);
        sim.setCsd(csd.get());
        if (mode.traced) {
            h.counter = std::make_unique<CountingTranslator>(*csd);
            sim.setTranslator(h.counter.get());
        }
    }
    tracer.end(span);
    h.constructSeconds = secondsSince(t0);

    t0 = Clock::now();
    span = tracer.begin("sim.runToHalt");
    sim.runToHalt();
    controller.finalize(sim.cycles());
    tracer.end(span);
    h.runSeconds = secondsSince(t0);

    // Simulated results: everything Figs. 12-16 render from a cell.
    const EnergyBreakdown e = sim.energy();
    const std::uint64_t wake_stalls =
        sim.stats().counterValue("vpu_wake_stalls");
    const std::uint64_t devect_uops =
        sim.stats().counterValue("devect_uops_executed");
    const double uop_cache_hit_rate =
        sim.stats().valueOf("frontend.uop_cache.hit_rate");
    const double l1d_mpki = sim.stats().valueOf("l1d_mpki");
    Digest core;
    core.add(sim.cycles());
    core.add(sim.instructions());
    core.add(sim.uopsExecuted());
    for (double v : {e.coreDynamic, e.coreStatic, e.vpuDynamic, e.vpuStatic,
                     e.headerStatic, e.gatingOverhead, e.frontendDynamic})
        core.add(v);
    core.add(controller.gatedCycles());
    core.add(controller.wakingCycles());
    core.add(controller.onCycles());
    core.add(controller.gateEvents());
    for (SseExecClass cls : {SseExecClass::PoweredOn,
                             SseExecClass::PoweringOn,
                             SseExecClass::PowerGated})
        core.add(controller.sseCount(cls));
    core.add(wake_stalls);
    core.add(devect_uops);
    core.add(uop_cache_hit_rate);
    core.add(l1d_mpki);

    std::vector<std::uint64_t> cpi;
    Digest full = core;
    if (const CpiStack *stack = sim.cpiStack()) {
        for (Cycles c : stack->buckets()) {
            cpi.push_back(c);
            full.add(static_cast<std::uint64_t>(c));
        }
    }

    Record rec("cell");
    rec.field("cell", cell)
        .field("preset", workload.preset.name)
        .field("policy", policyName(policy));
    emitCommon(rec, mode, pass, h, sim);
    rec.field("energy_total", e.total())
        .field("gated_fraction", controller.gatedFraction())
        .field("wake_stall_cycles", wake_stalls)
        .field("devect_uops", devect_uops)
        .field("decoy_uops", sim.stats().counterValue("decoy_uops_executed"))
        .field("uop_cache_hit_rate", uop_cache_hit_rate)
        .field("l1d_mpki", l1d_mpki)
        .array("cpi", cpi)
        .field("digest_core", core.hex());
    if (mode.cpiStack)
        rec.field("digest", full.hex());
    rec.emit();
}

/** One pass; every cell runs once under each of @p modes in turn. */
double
devectPass(std::uint64_t spec_seed, const std::vector<PassMode> &modes,
           unsigned pass)
{
    const Clock::time_point t0 = Clock::now();
    SpanScope pass_span("pass");
    for (const SpecPreset &preset : specPresets()) {
        const Clock::time_point tb = Clock::now();
        int span = tracer.begin("workloads.build");
        const SpecWorkload workload = SpecWorkload::build(
            preset, figurePhasePairs(preset), spec_seed);
        tracer.end(span);
        const double build_seconds = secondsSince(tb);
        bool first = true;
        for (GatingPolicy policy : {GatingPolicy::AlwaysOn,
                                    GatingPolicy::ConventionalPG,
                                    GatingPolicy::CsdDevect}) {
            // The build is shared by the preset's three cells; charge
            // it to the first so per-pass sums count it once.
            for (const PassMode &mode : modes) {
                runDevectCell(workload, policy, mode, pass,
                              first ? build_seconds : 0.0);
                first = false;
            }
        }
    }
    return secondsSince(t0);
}

// --- library: attack variants -----------------------------------------------

using AesKey = std::array<std::uint8_t, 16>;

struct StealthInputs
{
    std::vector<AesKey> aesUndefended, aesDefended;
    std::vector<std::uint64_t> rsaUndefended, rsaDefended;
    std::uint64_t ptSeed = 1;
};

constexpr unsigned rsaExpBits = 20;

const RsaReference::Num rsaBase = {0x90abcdefu, 0x12345678u};
const RsaReference::Num rsaModulus = {0xc0000001u, 0xd0000001u};

void
addLedger(Digest &d, const ObservationLedger &ledger)
{
    for (const SiteMeasure &sm : ledger.siteMeasures()) {
        for (char c : sm.site)
            d.add(static_cast<unsigned>(c));
        d.add(sm.tally.tp);
        d.add(sm.tally.fp);
        d.add(sm.tally.tn);
        d.add(sm.tally.fn);
        d.add(sm.miBits);
    }
}

double
ledgerBits(const ObservationLedger *ledger, const char *site)
{
    if (!ledger)
        return 0.0;
    for (const SiteMeasure &sm : ledger->siteMeasures())
        if (sm.site == site)
            return sm.miBits;
    return 0.0;
}

void
addSimulated(Digest &d, Simulation &sim)
{
    d.add(sim.instructions());
    d.add(sim.uopsSimulated());
    d.add(sim.cycles());
    d.add(sim.stats().valueOf("mem.l1d.misses"));
    d.add(sim.stats().valueOf("mem.l1i.misses"));
    d.add(sim.stats().counterValue("decoy_uops_executed"));
}

/** Construct a victim (timed as set-up) with the pass's host settings. */
std::unique_ptr<Victim>
makeVictim(const Program &prog, const DefenseConfig &defense,
           const PassMode &mode, HostCounts &h,
           std::unique_ptr<ObservationLedger> &ledger)
{
    const Clock::time_point t0 = Clock::now();
    SpanScope span("sim.construct");
    auto victim = std::make_unique<Victim>(prog, defense);
    applyMode(victim->sim(), mode);
    if (mode.monitor)
        ledger = std::make_unique<ObservationLedger>(
            victim->armChannelMonitor());
    if (mode.traced && victim->csd()) {
        h.counter = std::make_unique<CountingTranslator>(*victim->csd());
        victim->sim().setTranslator(h.counter.get());
    }
    h.constructSeconds = secondsSince(t0);
    return victim;
}

std::string
keyHex(const AesKey &key)
{
    std::string s;
    char buf[4];
    for (std::uint8_t b : key) {
        std::snprintf(buf, sizeof(buf), "%02x", b);
        s += buf;
    }
    return s;
}

void
runAesVariant(const AesKey &key, bool defended, unsigned index,
              std::uint64_t pt_seed, const PassMode &mode, unsigned pass)
{
    const std::string variant = defended ? "aes.defended" : "aes.undefended";
    SpanScope cell_span("cell:" + variant);
    HostCounts h;

    Clock::time_point t0 = Clock::now();
    int span = tracer.begin("workloads.build");
    const AesWorkload workload = AesWorkload::build(key);
    tracer.end(span);
    h.buildSeconds = secondsSince(t0);

    DefenseConfig defense;
    defense.enabled = defended;
    defense.decoyDRange = workload.tTableRange;
    defense.taintSources = {workload.keyRange};
    defense.watchdogPeriod = 1000;
    std::unique_ptr<Victim> victim;
    std::unique_ptr<ObservationLedger> ledger;  // reads victim's monitor
    victim = makeVictim(workload.program, defense, mode, h, ledger);

    AesAttackConfig config;
    config.flushReload = false;
    config.maxSamplesPerCandidate = defended ? 40 : 150;
    config.seed = pt_seed + index;
    config.ledger = ledger.get();

    t0 = Clock::now();
    span = tracer.begin("sec.runAesAttack");
    const AesAttackResult result =
        runAesAttack(*victim, workload, key, config);
    tracer.end(span);
    h.runSeconds = secondsSince(t0);

    Digest core;
    for (int n : result.recoveredHighNibble)
        core.add(n);
    for (const auto &row : result.touchRate)
        for (double r : row)
            core.add(r);
    core.add(result.nibblesCorrect);
    core.add(result.keyBitsRecovered);
    core.add(result.encryptions);
    addSimulated(core, victim->sim());
    Digest full = core;
    if (ledger)
        addLedger(full, *ledger);

    Record rec("cell");
    rec.field("cell", variant)
        .field("variant", variant)
        .field("input", keyHex(key));
    emitCommon(rec, mode, pass, h, victim->sim());
    unsigned determined = 0;
    for (int n : result.recoveredHighNibble)
        determined += n >= 0;
    rec.field("key_bits_recovered", result.keyBitsRecovered)
        .field("nibbles_determined", determined)
        .field("encryptions", result.encryptions)
        .field("decoy_uops",
               victim->sim().stats().counterValue("decoy_uops_executed"))
        .field("l1d_mpki", victim->sim().stats().valueOf("l1d_mpki"))
        .field("bits_per_obs", ledgerBits(ledger.get(), "t0"))
        .field("digest_core", core.hex());
    if (mode.monitor)
        rec.field("digest", full.hex());
    rec.emit();
}

void
runRsaVariant(std::uint64_t exponent, bool defended, const PassMode &mode,
              unsigned pass)
{
    const std::string variant = defended ? "rsa.defended" : "rsa.undefended";
    SpanScope cell_span("cell:" + variant);
    HostCounts h;

    Clock::time_point t0 = Clock::now();
    int span = tracer.begin("workloads.build");
    const RsaWorkload workload =
        RsaWorkload::build(rsaBase, rsaModulus, exponent, rsaExpBits);
    tracer.end(span);
    h.buildSeconds = secondsSince(t0);

    DefenseConfig defense;
    defense.enabled = defended;
    defense.decoyIRange = workload.multiplyRange;
    defense.taintSources = {workload.exponentRange, workload.resultRange};
    defense.watchdogPeriod = 300;
    std::unique_ptr<Victim> victim;
    std::unique_ptr<ObservationLedger> ledger;  // reads victim's monitor
    victim = makeVictim(workload.program, defense, mode, h, ledger);

    RsaAttackConfig config;
    config.ledger = ledger.get();

    t0 = Clock::now();
    span = tracer.begin("sec.runRsaAttack");
    const RsaAttackResult result = runRsaAttack(*victim, workload, config);
    tracer.end(span);
    h.runSeconds = secondsSince(t0);

    // The victim's own output: the modexp result must be right whether
    // or not the defense rewrote its micro-ops.
    const bool output_ok =
        RsaReference::compare(
            workload.result(victim->sim().state().mem),
            RsaReference::modexp(rsaBase, rsaModulus, exponent,
                                 rsaExpBits)) == 0;

    Digest core;
    for (const auto &[sq, mul] : result.timeline) {
        core.add(static_cast<unsigned>(sq));
        core.add(static_cast<unsigned>(mul));
    }
    for (bool bit : result.recoveredBits)
        core.add(static_cast<unsigned>(bit));
    core.add(result.bitsCorrect);
    core.add(result.totalBits);
    addSimulated(core, victim->sim());
    Digest full = core;
    if (ledger)
        addLedger(full, *ledger);

    char exp_hex[20];
    std::snprintf(exp_hex, sizeof(exp_hex), "%llx",
                  static_cast<unsigned long long>(exponent));
    Record rec("cell");
    rec.field("cell", variant).field("variant", variant).field("input",
                                                                exp_hex);
    emitCommon(rec, mode, pass, h, victim->sim());
    rec.field("rsa_accuracy", result.accuracy)
        .field("rsa_output_ok", output_ok)
        .field("probe_intervals",
               static_cast<std::uint64_t>(result.timeline.size()))
        .field("decoy_uops",
               victim->sim().stats().counterValue("decoy_uops_executed"))
        .field("l1d_mpki", victim->sim().stats().valueOf("l1d_mpki"))
        .field("bits_per_obs", ledgerBits(ledger.get(), "multiply"))
        .field("digest_core", core.hex());
    if (mode.monitor)
        rec.field("digest", full.hex());
    rec.emit();
}

/** One pass; every variant input runs once under each of @p modes. */
double
stealthPass(const StealthInputs &in, const std::vector<PassMode> &modes,
            unsigned pass)
{
    const Clock::time_point t0 = Clock::now();
    SpanScope pass_span("pass");
    for (const PassMode &mode : modes) {
        for (std::size_t i = 0; i < in.aesUndefended.size(); ++i)
            runAesVariant(in.aesUndefended[i], false,
                          static_cast<unsigned>(i), in.ptSeed, mode, pass);
    }
    for (std::size_t i = 0; i < in.aesDefended.size(); ++i) {
        for (const PassMode &mode : modes)
            runAesVariant(in.aesDefended[i], true, static_cast<unsigned>(i),
                          in.ptSeed, mode, pass);
    }
    for (std::uint64_t e : in.rsaUndefended) {
        for (const PassMode &mode : modes)
            runRsaVariant(e, false, mode, pass);
    }
    for (std::uint64_t e : in.rsaDefended) {
        for (const PassMode &mode : modes)
            runRsaVariant(e, true, mode, pass);
    }
    return secondsSince(t0);
}

// --- figure-suite set-up ----------------------------------------------------

/** Set-ups per "setup" run; run.py reports their median. */
constexpr unsigned kSetupReps = 15;

/**
 * The set-up the figure harnesses do before simulating: build (and
 * verify) every program of the suite's fixed artifact set, then
 * construct a simulation or victim for each.
 */
void
suiteSetup(unsigned rep)
{
    Clock::time_point t0 = Clock::now();
    std::vector<SpecWorkload> specs;
    for (const SpecPreset &preset : specPresets())
        specs.push_back(
            SpecWorkload::build(preset, figurePhasePairs(preset), 1));
    const AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                        0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    const AesWorkload aes = AesWorkload::build(key);
    const RsaWorkload rsa =
        RsaWorkload::build(rsaBase, rsaModulus, 0xb72d, 16);
    const double build_seconds = secondsSince(t0);

    t0 = Clock::now();
    for (const SpecWorkload &workload : specs)
        Simulation sim(workload.program, SimParams{});
    for (bool defended : {false, true}) {
        DefenseConfig aes_defense;
        aes_defense.enabled = defended;
        aes_defense.decoyDRange = aes.tTableRange;
        aes_defense.taintSources = {aes.keyRange};
        Victim aes_victim(aes.program, aes_defense);
        aes_victim.armChannelMonitor();
        DefenseConfig rsa_defense;
        rsa_defense.enabled = defended;
        rsa_defense.decoyIRange = rsa.multiplyRange;
        rsa_defense.taintSources = {rsa.exponentRange, rsa.resultRange};
        Victim rsa_victim(rsa.program, rsa_defense);
        rsa_victim.armChannelMonitor();
    }
    Record("setup")
        .field("rep", rep)
        .field("build_s", build_seconds)
        .field("construct_s", secondsSince(t0))
        .emit();
}

// --- command line -----------------------------------------------------------

AesKey
parseKey(const std::string &hex)
{
    if (hex.size() != 32)
        usage("AES key must be 32 hex digits: " + hex);
    AesKey key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(
            std::stoul(hex.substr(2 * i, 2), nullptr, 16));
    return key;
}

struct Args
{
    std::string mode;
    double seconds = 0;
    bool trace = false;
    std::uint64_t specSeed = 1;
    StealthInputs stealth;
};

Args
parse(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode (info|library|setup)");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--trace") {
            a.trace = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--spec-seed")
            a.specSeed = std::stoull(v);
        else if (flag == "--pt-seed")
            a.stealth.ptSeed = std::stoull(v);
        else if (flag == "--aes-undefended")
            a.stealth.aesUndefended.push_back(parseKey(v));
        else if (flag == "--aes-defended")
            a.stealth.aesDefended.push_back(parseKey(v));
        else if (flag == "--rsa-undefended")
            a.stealth.rsaUndefended.push_back(std::stoull(v, nullptr, 16));
        else if (flag == "--rsa-defended")
            a.stealth.rsaDefended.push_back(std::stoull(v, nullptr, 16));
        else
            usage("unknown flag " + flag);
    }
    return a;
}

using PassFn =
    std::function<double(const std::vector<PassMode> &, unsigned)>;

void
timedPass(const PassFn &pass_fn, const char *name,
          const std::vector<PassMode> &modes, unsigned pass)
{
    const double wall = pass_fn(modes, pass);
    Record("pass").field("mode", name).field("pass", pass)
        .field("wall_s", wall).emit();
}

/**
 * Run passes of @p pass_fn while the next one is expected to end within
 * --seconds (always at least one). When tracing, run instead one
 * untraced pass, one traced pass, and one pass in which every cell runs
 * untraced and then once per host-only toggle, back to back, so each
 * toggle is priced against a neighbouring run of the same cell.
 */
void
loop(const Args &a, const PassFn &pass_fn,
     const std::vector<PassMode> &toggles)
{
    const Clock::time_point t0 = Clock::now();
    const PassMode base;
    unsigned pass = 0;
    double last = 0;
    do {
        const Clock::time_point tp = Clock::now();
        timedPass(pass_fn, "base", {base}, pass++);
        last = secondsSince(tp);
    } while (!a.trace && secondsSince(t0) + last <= a.seconds);
    if (!a.trace)
        return;

    PassMode traced;
    traced.name = "traced";
    traced.traced = true;
    tracer.on = true;
    timedPass(pass_fn, "traced", {traced}, pass++);
    tracer.on = false;
    tracer.emit();

    PassMode paired;
    paired.name = "paired_base";
    std::vector<PassMode> modes = {paired};
    modes.insert(modes.end(), toggles.begin(), toggles.end());
    timedPass(pass_fn, "toggles", modes, pass);
}

PassMode
toggle(const char *name, bool PassMode::*flag)
{
    PassMode m;
    m.name = name;
    m.*flag = false;
    return m;
}

/**
 * @p modes less the host-only toggles that are not in @p toggles: a
 * toggle for a layer the cells never use would only rerun them.
 */
std::vector<PassMode>
applicable(const std::vector<PassMode> &modes,
           const std::vector<PassMode> &toggles)
{
    std::vector<PassMode> out;
    for (const PassMode &m : modes) {
        const bool toggled = !m.flowCache || !m.cpiStack || !m.superblock ||
                             !m.monitor;
        bool wanted = !toggled;
        for (const PassMode &t : toggles)
            wanted = wanted || t.name == m.name;
        if (wanted)
            out.push_back(m);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    if (a.mode == "info") {
        Record("info")
            .field("build_type", CSD_BUILD_TYPE)
            .field("build_flags", CSD_BUILD_FLAGS)
            .field("compiler", CSD_BUILD_COMPILER)
            .emit();
        return 0;
    }
    if (a.mode == "setup") {
        for (unsigned r = 0; r < kSetupReps; ++r)
            suiteSetup(r);
        return 0;
    }
    if (a.mode == "library") {
        if (a.stealth.aesUndefended.empty() ||
            a.stealth.aesDefended.empty() ||
            a.stealth.rsaUndefended.empty() ||
            a.stealth.rsaDefended.empty())
            usage("library needs at least one input per attack variant");
        const PassMode fc_off =
            toggle("flow_cache_off", &PassMode::flowCache);
        const PassMode cpi_off = toggle("cpi_stack_off", &PassMode::cpiStack);
        const PassMode sb_off =
            toggle("superblock_off", &PassMode::superblock);
        const PassMode mon_off = toggle("monitor_off", &PassMode::monitor);
        loop(a,
             [&](const std::vector<PassMode> &m, unsigned p) {
                 return devectPass(a.specSeed,
                                   applicable(m, {fc_off, cpi_off}), p) +
                        stealthPass(a.stealth,
                                    applicable(m, {fc_off, sb_off, mon_off}),
                                    p);
             },
             {fc_off, cpi_off, sb_off, mon_off});
        return 0;
    }
    usage("unknown mode " + a.mode);
}
