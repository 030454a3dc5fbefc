/**
 * @file
 * Shared pieces of the simulator benchmark: layer timing and spans, the
 * simulation cases of a workload, and per-round results and metrics.
 */

#ifndef PERFBENCH_SIMBENCH_HH
#define PERFBENCH_SIMBENCH_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "sim/hostprof.hh"
#include "sim/profile.hh"
#include "sys/cmp_config.hh"

namespace bfsim
{
class CmpSystem;
}

namespace perfbench
{

/** Host seconds on the monotonic clock. */
double nowS();

/** Heap allocations the process has made so far (see simbench.cc). */
uint64_t heapAllocCount();

// ----- layers and spans -----------------------------------------------------

/** Layers timed by the benchmark; each call into the simulator is one. */
enum class Layer
{
    SysConstruct, ///< CmpSystem constructor
    KernelSetup,  ///< Kernel::setup (inputs and golden reference)
    IsaCodegen,   ///< Os::registerBarrier and program generation
    OsStart,      ///< Os::createThread / startThread
    SimRun,       ///< CmpSystem::run
    KernelCheck,  ///< Kernel::check and the other result checks
    Sim,          ///< one simulation (parent of the calls above)
    Round,        ///< one round of the workload (parent of its simulations)
    NumLayers
};

constexpr unsigned numLayers = unsigned(Layer::NumLayers);

const char *layerName(Layer l);

struct Span
{
    Layer layer;
    double start;
    double end;
    int parent;     ///< index into the span list, -1 for a root
    uint64_t simId; ///< shared by the spans of one simulation
};

/**
 * Times nested layer scopes. Self time (duration minus the time covered
 * by child scopes) is accumulated per layer; while recording, every scope
 * is also kept as a span.
 */
class Tracer
{
  public:
    bool recording = false;
    uint64_t simId = 0;
    std::array<double, numLayers> selfS{};
    std::vector<Span> spans;

    void begin(Layer l);
    void end();

  private:
    struct Open
    {
        Layer layer;
        double start;
        double childS;
        int spanIdx;
    };
    std::vector<Open> open;
};

extern Tracer tracer;

/** A layer scope, optionally also an exact host-profiler scope. */
class Timed
{
  public:
    explicit Timed(Layer l,
                   std::optional<bfsim::HostPhase> phase = std::nullopt);
    ~Timed();

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    std::optional<bfsim::HostProfiler::Scope> hps;
};

// ----- simulations ----------------------------------------------------------

/** One simulation of a workload: what to build, run and check. */
class SimCase
{
  public:
    virtual ~SimCase() = default;

    /** Stable label, unique within a round ("viterbi/sw-tree"). */
    virtual std::string label() const = 0;
    /** Program identity: runs of one program execute the same barriers. */
    virtual std::string program() const = 0;
    virtual bfsim::CmpConfig config() const = 0;
    virtual void setup(bfsim::CmpSystem &) {}
    /** Register the barrier(s) and generate every thread's program. */
    virtual std::vector<bfsim::ProgramPtr> codegen(bfsim::CmpSystem &sys) = 0;
    virtual void start(bfsim::CmpSystem &sys,
                       std::vector<bfsim::ProgramPtr> &progs);
    /** Empty when the simulated result is correct, else the reason. */
    virtual std::string check(bfsim::CmpSystem &sys) = 0;
    /**
     * Barriers each thread executed; 0 when the program defines no count
     * and the mechanism records no episodes (software barriers).
     */
    virtual uint64_t barriersPerThread(bfsim::CmpSystem &sys) const = 0;
};

/**
 * Counters summed across component instances: the instance number is
 * dropped from the name ("l1d.3.loadMisses" -> "l1d..loadMisses",
 * "l2.bank0.hits" -> "l2.bank.hits").
 */
using CounterSums = std::map<std::string, uint64_t>;

struct SimOutcome
{
    std::string label;
    std::string program;
    bool ok = false;
    std::string why; ///< failure reason
    uint64_t cycles = 0;
    uint64_t insts = 0;
    uint64_t events = 0;
    uint64_t allocs = 0; ///< heap allocations inside CmpSystem::run
    double runS = 0;
    uint64_t barriers = 0; ///< per thread
    uint64_t swapIns = 0;  ///< filter contexts the OS swapped in
    uint64_t digest = 0;   ///< FNV-1a over every counter and the cycles
    /** Kept for the first round only; later rounds repeat them exactly. */
    CounterSums counters;
    std::vector<bfsim::BarrierEpisode> episodes;
};

/**
 * Build, run and check one simulation through the public API, timing each
 * call. Failures (wrong results, hangs, barrier errors, fallbacks,
 * recoveries, RAS detections, exceptions) are reported, not thrown.
 */
SimOutcome simulate(SimCase &c, bool keepDetail);

struct Workload
{
    const char *name;
    /** The simulations of one round, built fresh for every round. */
    std::vector<std::unique_ptr<SimCase>> (*round)(uint64_t seed);
};

/** The named workload, or null. */
const Workload *findWorkload(const std::string &name);

// ----- rounds and metrics ---------------------------------------------------

/** Everything one round measured. */
struct RoundResult
{
    bool traced = false;
    std::vector<SimOutcome> sims;
    double wallS = 0;
    /** Host-speed probe time just before the round (see simbench.cc). */
    double probeS = 0;
    /**
     * Factor that normalizes the round's host times to the reference
     * host speed: referenceProbeS / probeS.
     */
    double hostScale = 1;
    std::array<double, numLayers> selfS{};
    std::optional<bfsim::HostProfReport> hostprof;

    double setupS() const;
    double runS() const;
    uint64_t sum(uint64_t SimOutcome::*field) const;
    /** Digest of the round: the simulations' digests, in order. */
    uint64_t digest() const;
};

/**
 * Give each software-barrier run the barrier count of a hardware run of
 * the same program. @return Empty, or the run left without a count.
 */
std::string fillBarrierCounts(std::vector<SimOutcome> &sims);

/** Simulated cycles per barrier of every simulation, by label. */
std::map<std::string, double> cyclesPerBarrierByLabel(const RoundResult &r);

/** Barrier episodes the round's simulations recorded. */
size_t episodeCount(const RoundResult &r);

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The end-to-end metrics, from untraced rounds. */
std::vector<Metric>
endToEndMetrics(const std::vector<const RoundResult *> &rounds,
                uint64_t attempted, uint64_t failed, double peakRssMb);

/** The per-layer metrics, from traced rounds and the untraced between. */
std::vector<Metric>
perLayerMetrics(const std::vector<const RoundResult *> &traced,
                const std::vector<const RoundResult *> &untraced);

} // namespace perfbench

#endif // PERFBENCH_SIMBENCH_HH
