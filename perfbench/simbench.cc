/**
 * @file
 * The simulator benchmark: runs one workload for a host-time budget and
 * prints its metrics as one JSON line.
 *
 * A workload is a fixed list of simulations (a "round"). The benchmark
 * repeats rounds until the budget is spent. Host times are medians over
 * rounds, each round's scaled by a host-speed probe taken before it;
 * simulated quantities repeat exactly in every round.
 * Every simulation builds a fresh machine, so caches start empty, and
 * goes through the simulator's public API in this order:
 *
 *   CmpSystem(cfg)                          span sys.construct
 *   Kernel::setup                           span kernels.setup
 *   Os::registerBarrier + program build     span isa.codegen
 *   Os::createThread / startThread          span os.start
 *   CmpSystem::run                          span sim.run
 *   Kernel::check / result checks           span kernels.check
 *
 * With --trace 1, rounds alternate untraced and traced. Traced rounds
 * record the spans above (written out at the end) and run under the host
 * profiler; they give the per-layer metrics, and the untraced rounds the
 * tracing overhead. With --trace 0 no round is traced and the end-to-end
 * metrics are reported.
 *
 * Usage: simbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--out <results.json>]
 *                 [--spans <spans.json>]
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <stdexcept>

#include "sim/hash.hh"
#include "sim/json.hh"
#include "simbench.hh"

using namespace bfsim;

// ----- heap-allocation counter ----------------------------------------------
//
// Replacing the global operator new counts every allocation the process
// makes; the array and nothrow forms forward here in libstdc++, while
// over-aligned allocations are not counted. The simulator and the
// benchmark are single-threaded, so a plain counter suffices.

namespace
{
uint64_t heapAllocs = 0;
} // namespace

void *
operator new(std::size_t n)
{
    ++heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

namespace perfbench
{

uint64_t heapAllocCount() { return heapAllocs; }

double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// ----- layers and spans -----------------------------------------------------

const char *
layerName(Layer l)
{
    static const char *const names[numLayers] = {
        "sys.construct", "kernels.setup", "isa.codegen", "os.start",
        "sim.run",       "kernels.check", "bench.sim",   "bench.round"};
    return names[unsigned(l)];
}

Tracer tracer;

void
Tracer::begin(Layer l)
{
    int spanIdx = -1;
    const double t = nowS();
    if (recording) {
        spanIdx = int(spans.size());
        int parent = open.empty() ? -1 : open.back().spanIdx;
        spans.push_back({l, t, 0.0, parent, simId});
    }
    open.push_back({l, t, 0.0, spanIdx});
}

void
Tracer::end()
{
    const Open o = open.back();
    open.pop_back();
    const double t = nowS();
    const double dur = t - o.start;
    selfS[unsigned(o.layer)] += dur - o.childS;
    if (!open.empty())
        open.back().childS += dur;
    if (o.spanIdx >= 0)
        spans[o.spanIdx].end = t;
}

Timed::Timed(Layer l, std::optional<HostPhase> phase)
{
    tracer.begin(l);
    if (phase)
        hps.emplace(*phase);
}

Timed::~Timed()
{
    hps.reset();
    tracer.end();
}

} // namespace perfbench

namespace
{

using namespace perfbench;

// ----- host-speed probe -----------------------------------------------------
//
// Other tenants of a shared host slow the simulator by up to a half, for
// stretches of seconds to minutes, while a compute-only loop barely
// slows. A dependent walk through one random cycle over 8 MiB (larger
// than the per-core L2, smaller than the shared L3) slows largely in step
// with the simulator. Every round is preceded by one walk, and the round's host times are
// scaled by referenceProbeS / walk time. Over ten 20-second runs per
// workload on the host the bounds were set on, the median round time
// spread 14-28% (quartile distance over median) without this, and 6-14%
// with it.

constexpr size_t probeEntries = size_t(2) << 20; // 8 MiB of uint32_t
constexpr unsigned probeSteps = 400'000;
/** Walk time on the reference host (4-vCPU Xeon, 2.0 GHz) when quiet. */
constexpr double referenceProbeS = 0.045;

std::vector<uint32_t> probeCycle;

double
probeHostSpeed()
{
    if (probeCycle.empty()) {
        // Sattolo's algorithm: a uniformly random single cycle.
        probeCycle.resize(probeEntries);
        for (size_t i = 0; i < probeEntries; ++i)
            probeCycle[i] = uint32_t(i);
        uint64_t x = 0x9e3779b97f4a7c15ull;
        for (size_t i = probeEntries - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(probeCycle[i], probeCycle[x % i]);
        }
    }
    const double t0 = nowS();
    uint32_t j = 0;
    for (unsigned k = 0; k < probeSteps; ++k)
        j = probeCycle[j];
    const double t = nowS() - t0;
    volatile uint32_t sink = j;
    (void)sink;
    return t;
}

/**
 * Peak resident memory of the benchmark, without the probe's cycle,
 * which stays resident throughout. VmHWM starts afresh at exec, unlike
 * getrusage's ru_maxrss, which keeps the high-water mark of the process
 * that forked us.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return (std::stod(line.substr(6)) * 1024.0 -
                    double(probeCycle.size() * sizeof(uint32_t))) /
                   (1024.0 * 1024.0);
    return 0;
}

RoundResult
runRound(const Workload &w, uint64_t seed, bool traced, bool first)
{
    RoundResult r;
    r.traced = traced;
    r.probeS = probeHostSpeed();
    r.hostScale = referenceProbeS / r.probeS;
    tracer.recording = traced;
    tracer.selfS.fill(0);
    if (traced)
        HostProfiler::enable();
    const double t0 = nowS();
    {
        Timed roundSpan(Layer::Round);
        for (auto &c : w.round(seed))
            r.sims.push_back(simulate(*c, first));
    }
    r.wallS = nowS() - t0;
    r.selfS = tracer.selfS;
    if (HostProfiler *hp = HostProfiler::active()) {
        r.hostprof = hp->report(r.sum(&SimOutcome::cycles),
                                r.sum(&SimOutcome::insts));
        HostProfiler::disable();
    }
    tracer.recording = false;
    return r;
}

void
writeSpans(const std::string &path, const std::string &workload,
           uint64_t seed)
{
    std::ofstream f(path);
    JsonWriter w(f);
    w.beginObject();
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.key("spans").beginArray();
    for (const Span &s : tracer.spans) {
        w.beginObject();
        w.kv("name", layerName(s.layer));
        w.kv("sim", s.simId);
        w.kv("start_s", s.start);
        w.kv("end_s", s.end);
        w.kv("parent", int64_t(s.parent));
        w.end();
    }
    w.end();
    w.end();
    f << "\n";
}

void
writeResults(const std::string &path, const Workload &w, uint64_t seed,
             bool trace, const std::vector<RoundResult> &rounds,
             const std::map<std::string, double> &cpb,
             const std::vector<std::string> &problems,
             const std::vector<Metric> &metrics)
{
    std::ofstream f(path);
    JsonWriter jw(f);
    jw.beginObject();
    jw.kv("workload", w.name);
    jw.kv("seed", seed);
    jw.kv("trace", trace);
    jw.kv("rounds", uint64_t(rounds.size()));
    jw.kv("digest", toHex(rounds.front().digest()));
    jw.kv("barrier_episodes_per_round",
          uint64_t(episodeCount(rounds.front())));
    jw.key("cycles_per_barrier_by_simulation").beginObject();
    for (const auto &[label, v] : cpb)
        jw.kv(label, v);
    jw.end();
    jw.key("round_wall_s").beginArray();
    for (const RoundResult &r : rounds)
        jw.value(r.wallS);
    jw.end();
    jw.key("round_probe_s").beginArray();
    for (const RoundResult &r : rounds)
        jw.value(r.probeS);
    jw.end();
    jw.key("problems").beginArray();
    for (const std::string &p : problems)
        jw.value(p);
    jw.end();
    jw.key("metrics").beginObject();
    for (const Metric &m : metrics)
        jw.kv(m.name, m.value);
    jw.end();
    jw.end();
    f << "\n";
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 == argc)
            throw std::invalid_argument(std::string("missing value for ") +
                                        argv[i]);
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.out = v;
        else if (k == "--spans")
            a.spans = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "simbench: " << e.what() << "\n";
        return 2;
    }
    const Workload *w = findWorkload(args.workload);
    if (!w) {
        std::cerr << "simbench: unknown workload '" << args.workload << "'\n";
        return 2;
    }

    // Rounds until the budget is spent; with tracing, untraced and traced
    // rounds alternate so host drift affects both alike.
    std::vector<RoundResult> rounds;
    const double start = nowS();
    do {
        rounds.push_back(runRound(*w, args.seed, false, rounds.empty()));
        if (args.trace)
            rounds.push_back(runRound(*w, args.seed, true, false));
    } while (nowS() - start < args.seconds);

    std::vector<const RoundResult *> traced, untraced;
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    const uint64_t digest = rounds.front().digest();
    for (RoundResult &r : rounds) {
        (r.traced ? traced : untraced).push_back(&r);
        for (const SimOutcome &o : r.sims) {
            ++attempted;
            if (!o.ok) {
                ++failed;
                problems.push_back(o.label + ": " + o.why);
            }
        }
        const std::string why = fillBarrierCounts(r.sims);
        if (!why.empty())
            problems.push_back(why);
        if (r.digest() != digest)
            problems.push_back("simulated results differ between rounds");
    }

    // Warm-regime shape check (Section 3.5): on the back-to-back barrier
    // loop, ping-pong is never slower than its entry/exit variant.
    auto cpb = cyclesPerBarrierByLabel(rounds.front());
    for (auto [pp, ee] : {std::pair{"filter-icache-pp", "filter-icache"},
                          std::pair{"filter-dcache-pp", "filter-dcache"}})
        if (cpb.count(pp) && cpb.count(ee) && cpb[pp] > cpb[ee])
            problems.push_back(std::string(pp) + " slower than " + ee);

    const std::vector<Metric> metrics =
        args.trace ? perLayerMetrics(traced, untraced)
                   : endToEndMetrics(untraced, attempted, failed,
                                     peakRssMb());

    // Human-readable summary on stderr; the last stdout line is the result.
    std::cerr << "workload " << w->name << "  seed " << args.seed
              << "  rounds " << rounds.size() << "  simulations "
              << attempted << "  failed " << failed << "\n"
              << "digest " << toHex(digest) << "\n"
              << "host probe " << rounds.front().probeS << " s first, "
              << rounds.back().probeS << " s last (reference "
              << referenceProbeS << " s)\n"
              << "barrier episodes per round (barrier_p99_cycles samples) "
              << episodeCount(rounds.front()) << "\n";
    for (const SimOutcome &o : rounds.front().sims)
        std::cerr << "  " << o.label << ": " << o.cycles << " cycles, "
                  << cpb[o.label] << " cycles/barrier, " << o.runS
                  << " s in run\n";
    for (const Metric &m : metrics)
        std::cerr << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    for (const std::string &p : problems)
        std::cerr << "FAIL " << p << "\n";

    if (args.trace && !args.spans.empty())
        writeSpans(args.spans, w->name, args.seed);
    if (!args.out.empty())
        writeResults(args.out, *w, args.seed, args.trace, rounds, cpb,
                     problems, metrics);

    JsonWriter jw(std::cout);
    jw.beginObject();
    jw.kv("correct", problems.empty());
    jw.kv("attempted", attempted);
    jw.kv("failed", failed);
    jw.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        jw.key(m.name).beginObject();
        jw.kv("value", m.value);
        jw.kv("unit", m.unit);
        jw.end();
    }
    jw.end();
    jw.end();
    std::cout << std::endl;
    return 0;
}
