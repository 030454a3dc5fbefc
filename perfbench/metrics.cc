/**
 * @file
 * Per-round results and the metrics computed from them.
 */

#include <algorithm>
#include <cmath>

#include "sim/hash.hh"
#include "simbench.hh"

namespace perfbench
{

using namespace bfsim;

double
RoundResult::setupS() const
{
    return selfS[unsigned(Layer::SysConstruct)] +
           selfS[unsigned(Layer::KernelSetup)] +
           selfS[unsigned(Layer::IsaCodegen)] +
           selfS[unsigned(Layer::OsStart)];
}

double
RoundResult::runS() const
{
    double s = 0;
    for (const SimOutcome &o : sims)
        s += o.runS;
    return s;
}

uint64_t
RoundResult::sum(uint64_t SimOutcome::*field) const
{
    uint64_t s = 0;
    for (const SimOutcome &o : sims)
        s += o.*field;
    return s;
}

uint64_t
RoundResult::digest() const
{
    StateHasher h;
    for (const SimOutcome &o : sims)
        h.u64(o.digest);
    return h.digest();
}

std::string
fillBarrierCounts(std::vector<SimOutcome> &sims)
{
    std::map<std::string, uint64_t> counts;
    for (const SimOutcome &o : sims)
        if (o.barriers)
            counts[o.program] = o.barriers;
    for (SimOutcome &o : sims) {
        if (o.barriers)
            continue;
        auto it = counts.find(o.program);
        if (it == counts.end())
            return "no barrier count for " + o.label;
        o.barriers = it->second;
    }
    return "";
}

namespace
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Nearest-rank percentile of @p v, @p p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** A host time over rounds: the median of the normalized round values. */
template <typename F>
double
hostTime(const std::vector<const RoundResult *> &rounds, F f)
{
    std::vector<double> v;
    for (const RoundResult *r : rounds)
        v.push_back(f(*r) * r->hostScale);
    return median(v);
}

std::vector<double>
episodeValues(const RoundResult &r, double (*f)(const BarrierEpisode &))
{
    std::vector<double> v;
    for (const SimOutcome &o : r.sims)
        for (const BarrierEpisode &e : o.episodes)
            v.push_back(f(e));
    return v;
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return ratio(s, double(v.size()));
}

const HostPhase reportedPhases[] = {
    HostPhase::CoreTick, HostPhase::QueuePop,  HostPhase::L1Access,
    HostPhase::L2Access, HostPhase::BusArb,    HostPhase::Memory,
    HostPhase::FilterFsm, HostPhase::OsSched, HostPhase::Fault,
};

} // namespace

std::map<std::string, double>
cyclesPerBarrierByLabel(const RoundResult &r)
{
    std::map<std::string, double> out;
    for (const SimOutcome &o : r.sims)
        out[o.label] = ratio(double(o.cycles), double(o.barriers));
    return out;
}

size_t
episodeCount(const RoundResult &r)
{
    size_t n = 0;
    for (const SimOutcome &o : r.sims)
        n += o.episodes.size();
    return n;
}

std::vector<Metric>
endToEndMetrics(const std::vector<const RoundResult *> &rounds,
                uint64_t attempted, uint64_t failed, double peakRssMb)
{
    const RoundResult &r0 = *rounds.front();
    const auto latencies = episodeValues(
        r0, [](const BarrierEpisode &e) { return double(e.latency()); });
    return {
        {"wall_s", hostTime(rounds, [](auto &r) { return r.wallS; }), "s"},
        {"setup_s", hostTime(rounds, [](auto &r) { return r.setupS(); }),
         "s"},
        {"sim_mips",
         ratio(double(r0.sum(&SimOutcome::insts)),
               hostTime(rounds, [](auto &r) { return r.runS(); })) / 1e6,
         "MIPS"},
        {"peak_rss_mb", peakRssMb, "MiB"},
        {"sim_cycles", double(r0.sum(&SimOutcome::cycles)), "cycles"},
        {"cycles_per_barrier",
         ratio(double(r0.sum(&SimOutcome::cycles)),
               double(r0.sum(&SimOutcome::barriers))),
         "cycles"},
        {"barrier_p99_cycles", percentile(latencies, 0.99), "cycles"},
        {"success_frac", ratio(double(attempted - failed), double(attempted)),
         "frac"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<const RoundResult *> &traced,
                const std::vector<const RoundResult *> &untraced)
{
    std::vector<Metric> m;
    auto layerS = [&](Layer l) {
        return hostTime(traced, [l](auto &r) { return r.selfS[unsigned(l)]; });
    };
    m.push_back({"sys.construct_s", layerS(Layer::SysConstruct), "s"});
    m.push_back({"kernels.setup_s", layerS(Layer::KernelSetup), "s"});
    m.push_back({"isa.codegen_s", layerS(Layer::IsaCodegen), "s"});
    m.push_back({"os.start_s", layerS(Layer::OsStart), "s"});
    m.push_back({"kernels.check_s", layerS(Layer::KernelCheck), "s"});
    m.push_back({"bench.harness_s",
                 layerS(Layer::Sim) + layerS(Layer::Round), "s"});

    // Simulated counts repeat exactly in every round; take the first.
    const RoundResult &r0 = *untraced.front();
    const double events = double(r0.sum(&SimOutcome::events));
    const double insts = double(r0.sum(&SimOutcome::insts));
    const double runTraced = layerS(Layer::SimRun);
    const double runUntraced =
        hostTime(untraced, [](auto &r) { return r.runS(); });
    m.push_back({"sim.run_s", runTraced, "s"});
    m.push_back({"sim.run_untraced_s", runUntraced, "s"});
    m.push_back({"sim.trace_overhead_s", runTraced - runUntraced, "s"});
    m.push_back({"sim.events", events, "count"});
    m.push_back(
        {"sim.events_per_kinst", ratio(events, insts / 1000), "1/kinst"});
    m.push_back({"sim.host_ns_per_event", ratio(runUntraced * 1e9, events),
                 "ns"});
    m.push_back({"sim.allocs_per_event",
                 ratio(double(r0.sum(&SimOutcome::allocs)), events),
                 "1/event"});

    // Host profiler: phase shares of traced wall time, summed over rounds.
    double wallNs = 0, attributedNs = 0, overheadNs = 0;
    std::map<std::string, std::pair<double, double>> phase; // ns, count
    for (const RoundResult *r : traced) {
        const HostProfReport &rep = *r->hostprof;
        wallNs += double(rep.wallNs);
        attributedNs += rep.attributedNs;
        overheadNs += rep.overheadNs;
        for (const HostProfPhase &p : rep.phases) {
            phase[p.name].first += p.ns;
            phase[p.name].second += double(p.count);
        }
    }
    for (HostPhase ph : reportedPhases) {
        const std::string name = std::string("host.") + hostPhaseName(ph);
        const auto &[ns, count] = phase[hostPhaseName(ph)];
        m.push_back({name + ".share", ratio(ns, wallNs), "frac"});
        m.push_back({name + ".ns_per_event", ratio(ns, count), "ns"});
    }
    m.push_back({"host.attributed_frac", ratio(attributedNs, wallNs), "frac"});
    m.push_back({"host.overhead_frac", ratio(overheadNs, wallNs), "frac"});

    // Simulated per-layer counts.
    CounterSums c;
    for (const SimOutcome &o : r0.sims)
        for (const auto &[k, v] : o.counters)
            c[k] += v;
    auto cnt = [&](const char *k) { return double(c[k]); };
    const double cyc = double(r0.sum(&SimOutcome::cycles));

    const double compute = cnt("core..cycles.compute"),
                 fetch = cnt("core..cycles.fetchStall"),
                 load = cnt("core..cycles.loadStall"),
                 wait = cnt("core..cycles.barrierWait"),
                 desched = cnt("core..cycles.descheduled");
    const double coreCycles = compute + fetch + load + wait + desched;
    m.push_back({"cpu.ipc", ratio(insts, coreCycles - desched), "inst/cycle"});
    m.push_back({"cpu.compute_frac", ratio(compute, coreCycles), "frac"});
    m.push_back({"cpu.fetch_stall_frac", ratio(fetch, coreCycles), "frac"});
    m.push_back({"cpu.load_stall_frac", ratio(load, coreCycles), "frac"});
    m.push_back({"cpu.barrier_wait_frac", ratio(wait, coreCycles), "frac"});
    m.push_back({"cpu.descheduled_frac", ratio(desched, coreCycles), "frac"});

    m.push_back({"mem.l1d_load_miss_rate",
                 ratio(cnt("l1d..loadMisses"),
                       cnt("l1d..loadMisses") + cnt("l1d..loadHits")),
                 "frac"});
    m.push_back({"mem.l1i_fetch_miss_rate",
                 ratio(cnt("l1i..fetchMisses"),
                       cnt("l1i..fetchMisses") + cnt("l1i..fetchHits")),
                 "frac"});
    m.push_back(
        {"mem.l1d_store_upgrades", cnt("l1d..storeUpgrades"), "count"});
    m.push_back({"mem.l1_inv_snoops",
                 cnt("l1d..invSnoops") + cnt("l1i..invSnoops"), "count"});
    m.push_back({"mem.l2_miss_rate",
                 ratio(cnt("l2.bank.misses"),
                       cnt("l2.bank.misses") + cnt("l2.bank.hits")),
                 "frac"});
    m.push_back({"mem.l2_inv_alls", cnt("l2.bank.invAlls"), "count"});
    m.push_back({"mem.dram_accesses", cnt("dram.accesses"), "count"});
    m.push_back({"mem.bus_req_busy_frac",
                 ratio(cnt("bus.req.busyCycles"), cyc), "frac"});
    m.push_back({"mem.bus_resp_busy_frac",
                 ratio(cnt("bus.resp.busyCycles"), cyc), "frac"});
    m.push_back({"mem.bus_req_queue_per_msg",
                 ratio(cnt("bus.req.queueCycles"), cnt("bus.req.msgs")),
                 "cycles"});
    m.push_back({"mem.bus_resp_queue_per_msg",
                 ratio(cnt("bus.resp.queueCycles"), cnt("bus.resp.msgs")),
                 "cycles"});

    auto epMean = [&](double (*f)(const BarrierEpisode &)) {
        return mean(episodeValues(r0, f));
    };
    m.push_back({"barrier.episodes", cnt("barrier.episodes"), "count"});
    m.push_back({"filter.blocked_fills", cnt("filter.bank.blockedFills"),
                 "count"});
    m.push_back({"filter.arrival_invs", cnt("filter.bank.arrivalInvs"),
                 "count"});
    m.push_back({"filter.invalidations_per_episode",
                 epMean([](const BarrierEpisode &e) {
                     return double(e.invalidations);
                 }),
                 "count"});
    m.push_back({"filter.bus_busy_per_episode",
                 epMean([](const BarrierEpisode &e) {
                     return double(e.busBusyCycles);
                 }),
                 "cycles"});
    m.push_back({"filter.arrival_skew_mean",
                 epMean([](const BarrierEpisode &e) {
                     return double(e.skew());
                 }),
                 "cycles"});
    m.push_back({"filter.episode_latency_p50",
                 percentile(episodeValues(r0,
                                          [](const BarrierEpisode &e) {
                                              return double(e.latency());
                                          }),
                            0.50),
                 "cycles"});

    m.push_back({"os.swap_ins", double(r0.sum(&SimOutcome::swapIns)),
                 "count"});
    m.push_back({"os.swap_stall_cycles", cnt("barrier.swapStallCycles"),
                 "cycles"});
    m.push_back({"os.fallbacks", cnt("os.barrierFallbacks"), "count"});
    m.push_back({"os.recoveries", cnt("os.barrierRecoveries"), "count"});
    m.push_back({"os.ras_detected",
                 cnt("filter.bank.rasDetected") + cnt("os.virt.rasDetected"),
                 "count"});
    return m;
}

} // namespace perfbench
