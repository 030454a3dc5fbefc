/**
 * @file
 * The simulations the workloads are made of, and simulate(), which builds,
 * runs and checks one of them through the simulator's public API.
 */

#include <string>
#include <utility>

#include "barriers/barrier_gen.hh"
#include "kernels/workload.hh"
#include "os/filter_virt.hh"
#include "sim/hash.hh"
#include "sim/random.hh"
#include "simbench.hh"
#include "sys/system.hh"

namespace perfbench
{

using namespace bfsim;

void
SimCase::start(CmpSystem &sys, std::vector<ProgramPtr> &progs)
{
    Os &os = sys.os();
    for (size_t tid = 0; tid < progs.size(); ++tid)
        os.startThread(os.createThread(progs[tid]), CoreId(tid));
}

namespace
{

/** A paper kernel, parallelized across every core. */
class KernelCase : public SimCase
{
  public:
    KernelCase(KernelId id, uint64_t n, BarrierKind kind, uint64_t seed)
        : id(id), kind(kind)
    {
        params.n = n;
        params.reps = 1;
        params.seed = seed;
    }

    std::string
    label() const override
    {
        return std::string(kernelName(id)) + "/" + barrierKindName(kind);
    }

    std::string program() const override { return kernelName(id); }

    CmpConfig
    config() const override
    {
        CmpConfig cfg;
        cfg.numCores = 16;
        return cfg;
    }

    void
    setup(CmpSystem &sys) override
    {
        kernel = makeKernel(id);
        kernel->setup(sys, params);
    }

    std::vector<ProgramPtr>
    codegen(CmpSystem &sys) override
    {
        Os &os = sys.os();
        const unsigned threads = sys.numCores();
        handle = os.registerBarrier(kind, threads);
        std::vector<ProgramPtr> progs;
        for (unsigned tid = 0; tid < threads; ++tid)
            progs.push_back(kernel->buildParallel(
                sys, os.codeBase(ThreadId(tid)), tid, threads, handle));
        return progs;
    }

    std::string
    check(CmpSystem &sys) override
    {
        return kernel->check(sys) ? "" : "kernel output differs from golden";
    }

    uint64_t
    barriersPerThread(CmpSystem &sys) const override
    {
        return sys.statistics().counterValue("barrier.episodes");
    }

  private:
    KernelId id;
    BarrierKind kind;
    KernelParams params;
    std::unique_ptr<Kernel> kernel;
    BarrierHandle handle;
};

/** The Figure 4 loop: back-to-back barriers with no work between them. */
class StormCase : public SimCase
{
  public:
    StormCase(BarrierKind kind, unsigned cores, unsigned perLoop,
              unsigned loops)
        : kind(kind), cores(cores), perLoop(perLoop), loops(loops)
    {
    }

    std::string label() const override { return barrierKindName(kind); }
    std::string program() const override { return "storm"; }

    CmpConfig
    config() const override
    {
        CmpConfig cfg;
        cfg.numCores = cores;
        return cfg;
    }

    std::vector<ProgramPtr>
    codegen(CmpSystem &sys) override
    {
        Os &os = sys.os();
        handle = os.registerBarrier(kind, cores);
        std::vector<ProgramPtr> progs;
        for (unsigned tid = 0; tid < cores; ++tid) {
            ProgramBuilder b(os.codeBase(ThreadId(tid)));
            BarrierCodegen bar(handle, tid);
            IntReg rLoop = b.temp(), rLoops = b.temp();
            bar.emitInit(b);
            b.li(rLoop, 0);
            b.li(rLoops, int64_t(loops));
            b.label("loop");
            for (unsigned i = 0; i < perLoop; ++i)
                bar.emitBarrier(b);
            b.addi(rLoop, rLoop, 1);
            b.blt(rLoop, rLoops, "loop");
            b.halt();
            bar.emitArrivalSections(b);
            progs.push_back(b.build());
        }
        return progs;
    }

    std::string
    check(CmpSystem &) override
    {
        return handle.granted == handle.requested
                   ? ""
                   : "barrier fell back to software at registration";
    }

    uint64_t
    barriersPerThread(CmpSystem &) const override
    {
        return uint64_t(perLoop) * loops;
    }

  private:
    BarrierKind kind;
    unsigned cores, perLoop, loops;
    BarrierHandle handle;
};

/**
 * Filter oversubscription (bench/abl_filter_oversub at 8:1): 16 two-thread
 * groups share one bank's two physical filter contexts, with SECDED
 * detection and scrubbing armed but no fault injected. In every epoch
 * each thread spins a pseudo-random delay (a per-thread xorshift stream
 * seeded from the workload seed), crosses its group's barrier, and
 * records the epoch.
 */
class OversubCase : public SimCase
{
  public:
    static constexpr unsigned groups = 16;
    static constexpr unsigned tpg = 2;

    OversubCase(unsigned epochs, uint64_t seed) : epochs(epochs), seed(seed)
    {
    }

    std::string label() const override { return "oversub-8:1"; }
    std::string program() const override { return "oversub"; }

    CmpConfig
    config() const override
    {
        CmpConfig cfg;
        cfg.numCores = groups * tpg;
        cfg.l1SizeBytes = 8 * 1024;
        cfg.l2SizeBytes = 64 * 1024;
        cfg.l3SizeBytes = 256 * 1024;
        cfg.l2Banks = 1;
        cfg.filtersPerBank = 2;
        cfg.filterVirtual = true;
        cfg.filterRecovery = true;
        cfg.watchdogInterval = 2'000'000;
        cfg.faults.enabled = true;
        cfg.faults.rasDetect = "secded";
        cfg.faults.scrubPeriod = 5000;
        return cfg;
    }

    std::vector<ProgramPtr>
    codegen(CmpSystem &sys) override
    {
        Os &os = sys.os();
        const unsigned line = sys.config().lineBytes;
        cells = os.allocData(uint64_t(groups) * tpg * line, line);
        Rng rng(seed);
        std::vector<ProgramPtr> progs;
        handles.reserve(groups); // BarrierCodegen keeps a reference
        for (unsigned g = 0; g < groups; ++g) {
            handles.push_back(
                os.registerBarrier(BarrierKind::FilterDCache, tpg));
            for (unsigned s = 0; s < tpg; ++s) {
                const unsigned idx = g * tpg + s;
                ProgramBuilder b(os.codeBase(ThreadId(idx)));
                BarrierCodegen bar(handles.back(), s);
                IntReg rK = b.temp(), rKmax = b.temp(), rDelay = b.temp(),
                       rCell = b.temp(), rX = b.temp(), rT = b.temp();
                bar.emitInit(b);
                b.li(rCell, int64_t(cells + uint64_t(idx) * line));
                b.li(rK, 1);
                b.li(rKmax, int64_t(epochs));
                b.li(rX, int64_t(rng.next() | 1));
                b.label("epoch");
                // xorshift64 step; the low six bits are this epoch's delay.
                b.slli(rT, rX, 13);
                b.xor_(rX, rX, rT);
                b.srli(rT, rX, 7);
                b.xor_(rX, rX, rT);
                b.slli(rT, rX, 17);
                b.xor_(rX, rX, rT);
                b.andi(rDelay, rX, 31);
                b.label("delay");
                b.beqz(rDelay, "delaydone");
                b.addi(rDelay, rDelay, -1);
                b.j("delay");
                b.label("delaydone");
                bar.emitBarrier(b);
                b.sd(rK, rCell, 0);
                b.addi(rK, rK, 1);
                b.bge(rKmax, rK, "epoch");
                b.halt();
                bar.emitArrivalSections(b);
                progs.push_back(b.build());
            }
        }
        return progs;
    }

    void
    start(CmpSystem &sys, std::vector<ProgramPtr> &progs) override
    {
        Os &os = sys.os();
        for (unsigned idx = 0; idx < progs.size(); ++idx) {
            ThreadContext *t = os.createThread(progs[idx]);
            os.bindBarrierSlot(handles[idx / tpg], idx % tpg, t->tid);
            os.startThread(t, CoreId(idx));
        }
    }

    std::string
    check(CmpSystem &sys) override
    {
        const unsigned line = sys.config().lineBytes;
        for (unsigned idx = 0; idx < groups * tpg; ++idx)
            if (sys.memory().read64(cells + uint64_t(idx) * line) != epochs)
                return "thread " + std::to_string(idx) +
                       " did not record every epoch";
        return "";
    }

    uint64_t barriersPerThread(CmpSystem &) const override { return epochs; }

  private:
    unsigned epochs;
    uint64_t seed;
    Addr cells = 0;
    std::vector<BarrierHandle> handles;
};

std::string
stripInstance(const std::string &name)
{
    std::string out;
    bool first = true;
    for (char c : name) {
        if (c == '.')
            first = false;
        if (first || c < '0' || c > '9')
            out += c;
    }
    return out;
}

constexpr Tick simTickLimit = 400'000'000;

/** Counters whose non-zero value fails a simulation. */
const char *const failureCounters[] = {
    "os.barrierFallbacks",     "os.barrierRecoveries",
    "os.barrierBirthDegraded", "filter.bank.rasDetected",
    "os.virt.rasDetected",     "os.ras.fallbacks",
};

} // namespace

SimOutcome
simulate(SimCase &c, bool keepDetail)
{
    ++tracer.simId;
    Timed simSpan(Layer::Sim);
    SimOutcome out;
    out.label = c.label();
    out.program = c.program();
    try {
        std::unique_ptr<CmpSystem> sys;
        std::vector<ProgramPtr> progs;
        {
            Timed t(Layer::SysConstruct, HostPhase::Setup);
            sys = std::make_unique<CmpSystem>(c.config());
        }
        {
            Timed t(Layer::KernelSetup, HostPhase::Setup);
            c.setup(*sys);
        }
        {
            Timed t(Layer::IsaCodegen, HostPhase::Setup);
            progs = c.codegen(*sys);
        }
        {
            Timed t(Layer::OsStart, HostPhase::Setup);
            c.start(*sys, progs);
        }
        const uint64_t allocs0 = heapAllocCount();
        const double run0 = nowS();
        {
            Timed t(Layer::SimRun);
            out.cycles = sys->run(simTickLimit);
        }
        out.runS = nowS() - run0;
        out.allocs = heapAllocCount() - allocs0;
        {
            Timed t(Layer::KernelCheck, HostPhase::CheckResult);
            if (!sys->allThreadsHalted())
                out.why = "threads still live at the tick limit";
            else if (sys->anyBarrierError())
                out.why = "barrier error";
            else
                out.why = c.check(*sys);
        }

        HostProfiler::Scope hps(HostPhase::Harness);
        out.insts = sys->totalInstructions();
        out.events = sys->eventQueue().executedEvents();
        out.barriers = c.barriersPerThread(*sys);
        if (FilterVirtualizer *v = sys->os().virtualizer())
            out.swapIns = v->swapInCount();
        if (keepDetail) {
            const auto &eps = sys->episodeProfiler().episodes();
            out.episodes.assign(eps.begin(), eps.end());
        }

        StateHasher h;
        h.str(out.label);
        h.u64(out.cycles);
        CounterSums sums;
        sys->statistics().forEachCounter(
            [&](const std::string &name, uint64_t v) {
                h.str(name);
                h.u64(v);
                sums[stripInstance(name)] += v;
            });
        out.digest = h.digest();
        for (const char *name : failureCounters) {
            if (out.why.empty() && sums[name] != 0)
                out.why = std::string(name) + " = " +
                          std::to_string(sums[name]);
        }
        if (keepDetail)
            out.counters = std::move(sums);
    } catch (const std::exception &e) {
        out.why = std::string("exception: ") + e.what();
    }
    out.ok = out.why.empty();
    return out;
}

// ----- workloads ------------------------------------------------------------

namespace
{

/**
 * The five kernels of the paper's Table 1, one repetition each. Livermore
 * 2 and 3 run at their Table 1 size; Livermore 6, autocorrelation and
 * Viterbi at half of it, so a software-barrier round stays near a second.
 */
const std::pair<KernelId, uint64_t> paperKernels[] = {
    {KernelId::Livermore2, 256}, {KernelId::Livermore3, 256},
    {KernelId::Livermore6, 128}, {KernelId::Autocorr, 512},
    {KernelId::Viterbi, 128},
};

std::vector<std::unique_ptr<SimCase>>
kernelsRound(uint64_t seed, std::initializer_list<BarrierKind> kinds)
{
    std::vector<std::unique_ptr<SimCase>> cases;
    for (const auto &[id, n] : paperKernels)
        for (BarrierKind kind : kinds)
            cases.push_back(std::make_unique<KernelCase>(id, n, kind, seed));
    return cases;
}

std::vector<std::unique_ptr<SimCase>>
kernelsFilterRound(uint64_t seed)
{
    return kernelsRound(seed, {BarrierKind::FilterDCachePP});
}

std::vector<std::unique_ptr<SimCase>>
kernelsSwRound(uint64_t seed)
{
    // The dedicated network runs first: software barriers record no
    // episodes, so its run supplies each program's barrier count and the
    // workload's hardware barrier latencies.
    return kernelsRound(seed, {BarrierKind::HwNetwork, BarrierKind::SwCentral,
                               BarrierKind::SwTree});
}

std::vector<std::unique_ptr<SimCase>>
barrierStormRound(uint64_t)
{
    std::vector<std::unique_ptr<SimCase>> cases;
    for (BarrierKind kind :
         {BarrierKind::FilterICache, BarrierKind::FilterDCache,
          BarrierKind::FilterICachePP, BarrierKind::FilterDCachePP,
          BarrierKind::HwNetwork})
        cases.push_back(std::make_unique<StormCase>(kind, 32, 16, 16));
    return cases;
}

std::vector<std::unique_ptr<SimCase>>
virtOversubRound(uint64_t seed)
{
    std::vector<std::unique_ptr<SimCase>> cases;
    cases.push_back(std::make_unique<OversubCase>(512, seed));
    return cases;
}

const Workload workloads[] = {
    {"kernels-filter", kernelsFilterRound},
    {"kernels-sw", kernelsSwRound},
    {"barrier-storm", barrierStormRound},
    {"virt-oversub", virtOversubRound},
};

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace perfbench
