// dynaddr_perf — the work half of the end-to-end benchmark.
//
//   dynaddr_perf setup   --workload W --seed N --size full|tiny
//                        --dir DIR --threads T [--trace]
//   dynaddr_perf measure --workload W --seed N --size full|tiny
//                        --input SETUP_DIR --dir DIR --threads T
//                        --seconds S [--trace]
//
// `setup` builds the workload's scenario and simulates it once. For the
// workloads that read bundle files it tees a BinaryBundleWriter in through
// ScenarioConfig::bundle_sink and writes the IP-to-AS context next to the
// bundle. It then renders the reports of AnalysisPipeline::run_reference
// (the oracle) on the simulator's own bundle and tables. Its report and
// .dab digests are what every measured pass must reproduce.
//
// `measure` repeats the workload's pass for S seconds, calling the
// libraries the way the CLI does (`demo --scale`, `simulate --format
// binary` + `analyze --streaming`), and reports each pass's wall and CPU
// time, digests and work counts. With --trace it alternates plain and
// traced passes; a traced pass turns on the program's span collection and
// wraps the two virtual interfaces the layers expose (atlas::BundleSink,
// atlas::BundleStreamHandler) in timing decorators.
//
// Both print one JSON object on stdout. perfbench/run.py checks the
// digests and counts and turns the passes into the benchmark's metrics.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/binary_bundle.hpp"
#include "core/change_attribution.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/streaming_pipeline.hpp"
#include "isp/presets.hpp"
#include "netcore/csv.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/json.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/trace.hpp"
#include "netcore/parallel.hpp"
#include "netcore/rng.hpp"

namespace {

using namespace dynaddr;
namespace fs = std::filesystem;

// -- small utilities ----------------------------------------------------------

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_now_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double rss_mb() { return double(obs::process_rss_bytes()) / (1024.0 * 1024.0); }

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = std::size_t(q * double(values.size() - 1) + 0.5);
    return values[std::min(rank, values.size() - 1)];
}

/// 64-bit FNV-1a, the digest of rendered reports and .dab files.
struct Fnv {
    std::uint64_t state = 1469598103934665603ULL;
    void add(std::string_view bytes) {
        for (const unsigned char c : bytes) {
            state ^= c;
            state *= 1099511628211ULL;
        }
    }
    [[nodiscard]] std::string hex() const {
        char out[17];
        std::snprintf(out, sizeof out, "%016" PRIx64, state);
        return out;
    }
};

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot read " + path.string());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Digest and total size of the four .dab files of a bundle directory.
struct DabInfo {
    std::string digest;
    std::uint64_t bytes = 0;
};

DabInfo dab_info(const fs::path& dir) {
    Fnv fnv;
    DabInfo info;
    for (const char* name :
         {"connection_log.dab", "kroot.dab", "uptime.dab", "probes.dab"}) {
        const std::string body = read_file(dir / name);
        fnv.add(name);
        fnv.add(body);
        info.bytes += body.size();
    }
    info.digest = fnv.hex();
    return info;
}

/// Flat JSON object writer (numbers, strings, nested objects via raw()).
class JsonObject {
public:
    JsonObject& num(const std::string& key, double value) {
        char text[40];
        std::snprintf(text, sizeof text, "%.17g", value);
        return raw(key, text);
    }
    JsonObject& str(const std::string& key, const std::string& value) {
        std::string quoted = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\') quoted += '\\';
            quoted += (c == '\n' || c == '\r') ? ' ' : c;
        }
        return raw(key, quoted + "\"");
    }
    JsonObject& obj(const std::string& key, const std::map<std::string, double>& m) {
        JsonObject inner;
        for (const auto& [name, value] : m) inner.num(name, value);
        return raw(key, inner.text());
    }
    JsonObject& raw(const std::string& key, const std::string& json) {
        body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
        return *this;
    }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

// -- workloads ------------------------------------------------------------------

enum class Workload { CapacitySim, OutageYear, AnalyzePaper };

Workload parse_workload(const std::string& name) {
    if (name == "capacity_sim") return Workload::CapacitySim;
    if (name == "outage_year") return Workload::OutageYear;
    if (name == "analyze_paper") return Workload::AnalyzePaper;
    throw Error("unknown workload '" + name + "'");
}

/// Population multiplier of the workload's scenario. `tiny` is the
/// self-test size: same code paths, a fraction of the work.
int workload_scale(Workload workload, bool tiny) {
    switch (workload) {
        case Workload::CapacitySim: return tiny ? 3 : 200;
        case Workload::OutageYear: return 1;
        case Workload::AnalyzePaper: return tiny ? 1 : 5;
    }
    return 1;
}

isp::ScenarioConfig scenario_at(Workload workload, int scale, bool tiny,
                                std::uint64_t seed) {
    isp::ScenarioConfig config;
    switch (workload) {
        case Workload::CapacitySim:
            config = isp::presets::quick_scenario();
            break;
        case Workload::OutageYear:
            config = isp::presets::outage_scenario();
            break;
        case Workload::AnalyzePaper:
            config = isp::presets::paper_scenario();
            break;
    }
    config = isp::presets::scaled_scenario(config, scale);
    if (workload != Workload::CapacitySim) {
        if (tiny) config.window.end = config.window.begin + net::Duration::days(45);
        config.seed = seed;
        return config;
    }
    // The simulator's cost at scale hinges on one early random draw: the
    // event queue anchors at the first event ever scheduled, and every
    // event before it takes the sorted late-insert path. Over rng seeds
    // 1..20 that moves quick x200 between 0.55 and 3.0 us/event for the
    // same 1.82M events, a spread no run length averages out. So this
    // workload keeps the preset's own rng seed, and --seed moves up to
    // 1/40 of each other ISP's subscribers to the last ISP or back: a
    // different population of the same size each seed, with the same first
    // draw.
    rng::Stream draw(seed);
    auto& isps = config.isps;
    for (std::size_t i = 0; i + 1 < isps.size(); ++i) {
        auto& moved = isps[i].cohorts.front().probe_count;
        const int shift = int(draw.uniform_int(-moved / 40, moved / 40));
        moved += shift;
        isps.back().cohorts.front().probe_count -= shift;
    }
    return config;
}

/// The capacity workload analyses in memory over the preset's window, as
/// `demo` does; the streaming workloads derive the window from the data,
/// as `analyze` does.
std::optional<net::TimeInterval> analysis_window(Workload workload,
                                                 const isp::ScenarioConfig& config) {
    if (workload == Workload::CapacitySim) return config.window;
    return std::nullopt;
}

// -- IP-to-AS context files (the CLI's simulate/analyze formats) -------------

std::string month_name(bgp::MonthKey month) {
    char buffer[16];
    std::snprintf(buffer, sizeof buffer, "%04d-%02d", int(month / 12),
                  int(month % 12) + 1);
    return buffer;
}

void write_context(const fs::path& dir, const isp::ScenarioResult& scenario) {
    for (const auto month : scenario.prefix_table.snapshot_months()) {
        std::ofstream out(dir / ("pfx2as_" + month_name(month) + ".txt"));
        scenario.prefix_table.dump_pfx2as(out, month);
    }
    std::ofstream out(dir / "registry.csv");
    csv::Writer writer(out, {"asn", "name", "country", "continent"});
    for (const auto& info : scenario.registry.all())
        writer.write_row({std::to_string(info.asn), info.name,
                          info.country_code, bgp::continent_code(info.continent)});
}

struct Context {
    bgp::PrefixTable table;
    bgp::AsRegistry registry;
};

Context load_context(const fs::path& dir) {
    Context context;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("pfx2as_", 0) != 0 || name.size() < 18) continue;
        std::ifstream in(entry.path());
        context.table.load_pfx2as(
            in, bgp::month_key(std::stoi(name.substr(7, 4)),
                               std::stoi(name.substr(12, 2))));
    }
    std::ifstream in(dir / "registry.csv");
    if (!in) throw Error("no registry.csv in " + dir.string());
    csv::ScanReader reader(in);
    const auto c_asn = reader.column("asn");
    const auto c_name = reader.column("name");
    const auto c_country = reader.column("country");
    const auto c_continent = reader.column("continent");
    while (const auto* row = reader.next_row()) {
        bgp::AsInfo info;
        info.asn = std::uint32_t(std::stoul(std::string((*row)[c_asn])));
        info.name = std::string((*row)[c_name]);
        info.country_code = std::string((*row)[c_country]);
        const std::string_view code = (*row)[c_continent];
        using bgp::Continent;
        info.continent = code == "NA"   ? Continent::NorthAmerica
                         : code == "AS" ? Continent::Asia
                         : code == "AF" ? Continent::Africa
                         : code == "SA" ? Continent::SouthAmerica
                         : code == "OC" ? Continent::Oceania
                                        : Continent::Europe;
        context.registry.add(info);
    }
    return context;
}

/// Every report `analyze --report all` prints, as one string.
std::string render_reports(const core::AnalysisResults& results,
                           const bgp::PrefixTable& table,
                           const bgp::AsRegistry& registry) {
    std::ostringstream out;
    out << core::render_summary(results) << "\n"
        << "Probe filtering (Table 2):\n" << core::render_table2(results.filter) << "\n"
        << "Periodic renumbering (Table 5):\n"
        << core::render_table5(results.periodicity) << "\n"
        << "Outage renumbering (Table 6):\n"
        << core::render_table6(results.cond_prob) << "\n"
        << "Prefix changes (Table 7):\n"
        << core::render_table7(results.prefix_changes) << "\n";
    const auto attribution = core::attribute_changes(results, table, registry);
    core::record_change_attribution(attribution);
    out << "Change-cause attribution:\n"
        << core::render_change_attribution(attribution) << "\n"
        << "Administrative renumbering events: " << results.admin_events.size()
        << "\n";
    for (const auto& event : results.admin_events)
        out << "  AS" << event.asn << " retired " << event.retired_prefix.to_string()
            << " around " << event.last_departure.to_string().substr(0, 10) << " ("
            << event.probes_moved << " probes -> "
            << event.destination_prefix.to_string() << ")\n";
    return out.str();
}

// -- work counts ----------------------------------------------------------------

/// Counters whose per-run delta is an exact work count; they must repeat
/// exactly for a given seed.
const std::vector<std::pair<std::string, std::string>> kSimCounters = {
    {"sim.events", "sim.events_executed"},
    {"sim.wheel.scheduled", "sim.wheel.scheduled"},
    {"sim.wheel.fired", "sim.wheel.fired"},
    {"sim.wheel.cancelled", "sim.wheel.cancelled"},
    {"sim.wheel.cascaded", "sim.wheel.cascaded"},
    {"sim.wheel.overflow", "sim.wheel.overflow"},
    {"dhcp.renew", "dhcp.renew"},
    {"dhcp.ack", "dhcp.ack"},
    {"ppp.dials", "ppp.dials"},
    {"radius.access_accept", "radius.access_accept"},
    {"pool.allocations", "pool.allocations"},
    {"pool.churn", "pool.churn"},
    {"lease.granted", "lease.granted"},
};

const std::vector<std::pair<std::string, std::string>> kCoreCounters = {
    {"core.probes_analyzable", "pipeline.probes_analyzable"},
    {"core.changes_extracted", "pipeline.changes_extracted"},
};

using Counts = std::map<std::string, double>;

void add_counter_deltas(Counts& counts, const obs::MetricsSnapshot& before,
                        const obs::MetricsSnapshot& after,
                        const std::vector<std::pair<std::string, std::string>>& names) {
    const auto delta = obs::metrics_diff(after, before);
    for (const auto& [key, counter] : names) {
        const auto it = delta.counters.find(counter);
        counts[key] = it == delta.counters.end() ? 0.0 : double(it->second);
    }
}

void add_bundle_counts(Counts& counts, const atlas::DatasetBundle& bundle) {
    counts["atlas.records.connection"] = double(bundle.connection_log.size());
    counts["atlas.records.kroot"] = double(bundle.kroot_pings.size());
    counts["atlas.records.uptime"] = double(bundle.uptime_records.size());
}

// -- tracing ----------------------------------------------------------------------

/// Total duration (ms) per span name among the spans collected so far.
std::map<std::string, double> span_totals_ms() {
    std::ostringstream out;
    obs::write_trace_json(out);
    const auto doc = obs::json_parse(out.str());
    std::map<std::string, double> totals;
    if (!doc) throw Error("program trace is not valid JSON");
    if (const auto* events = doc->find("traceEvents"))
        for (const auto& event : events->array)
            totals[event.string_or("name", "")] += event.number_or("dur", 0) / 1000.0;
    return totals;
}

double span_ms(const std::map<std::string, double>& totals, const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
}

/// Latency of one steady_clock read, subtracted from timed intervals.
double clock_latency_s() {
    static const double latency = [] {
        std::vector<double> gaps;
        for (int i = 0; i < 1000; ++i) {
            const double start = now_s();
            gaps.push_back(now_s() - start);
        }
        return median(gaps);
    }();
    return latency;
}

/// Busy time of a stream of short calls, estimated from every 16th call.
/// A clock read costs about 40 ns in a VM, close to what one record's call
/// costs, so timing every call would inflate what it measures.
class SampledTimer {
public:
    template <class Call>
    void time(Call&& call) {
        if (calls_++ % kEvery != 0) {
            call();
            return;
        }
        const double start = now_s();
        call();
        sampled_s_ += now_s() - start - clock_latency_s();
        ++sampled_;
    }
    [[nodiscard]] double seconds() const {
        return sampled_ == 0 ? 0.0
                             : std::max(sampled_s_, 0.0) * double(calls_) / double(sampled_);
    }

private:
    static constexpr std::uint64_t kEvery = 16;
    std::uint64_t calls_ = 0;
    std::uint64_t sampled_ = 0;
    double sampled_s_ = 0.0;
};

/// Times the calls into the simulator's dataset sink (the writer).
class TimedSink final : public atlas::BundleSink {
public:
    explicit TimedSink(atlas::BundleSink& inner) : inner_(inner) {}
    void add_connection(const atlas::ConnectionLogEntry& entry) override {
        timer.time([&] { inner_.add_connection(entry); });
    }
    void add_kroot(const atlas::KRootPingRecord& record) override {
        timer.time([&] { inner_.add_kroot(record); });
    }
    void add_uptime(const atlas::UptimeRecord& record) override {
        timer.time([&] { inner_.add_uptime(record); });
    }
    void add_probe(const atlas::ProbeMetadata& meta) override {
        timer.time([&] { inner_.add_probe(meta); });
    }
    SampledTimer timer;

private:
    atlas::BundleSink& inner_;
};

/// Forwards the bundle stream into a StreamingPipeline exactly as
/// core::feed_binary_bundle does, timing the pipeline's calls and
/// counting the records it decodes.
class TimedFeed final : public atlas::BundleStreamHandler {
public:
    explicit TimedFeed(core::StreamingPipeline& pipeline) : pipeline_(pipeline) {}
    void on_metadata(const atlas::ProbeMetadata& meta) override {
        feed.time([&] { pipeline_.feed_metadata(meta); });
    }
    void on_connection(const atlas::ConnectionLogEntry& entry) override {
        feed.time([&] { pipeline_.feed_connection(entry); });
        ++connections;
    }
    void on_kroot(const atlas::KRootPingRecord& record) override {
        feed.time([&] { pipeline_.feed_kroot(record); });
        ++kroot;
    }
    void on_uptime(const atlas::UptimeRecord& record) override {
        feed.time([&] { pipeline_.feed_uptime(record); });
        ++uptime;
    }
    void on_probe_complete(atlas::ProbeId probe) override {
        const double start = now_s();
        pipeline_.seal_through(probe);
        const double took = std::max(now_s() - start - clock_latency_s(), 0.0);
        seal_s += took;
        seal_us.push_back(took * 1e6);
    }

    SampledTimer feed;
    double seal_s = 0.0;
    std::vector<double> seal_us;
    std::uint64_t connections = 0, kroot = 0, uptime = 0;

private:
    core::StreamingPipeline& pipeline_;
};

// -- set-up -----------------------------------------------------------------------

struct Options {
    Workload workload = Workload::CapacitySim;
    std::string workload_name;
    std::uint64_t seed = 1;
    bool tiny = false;
    bool trace = false;
    fs::path dir;
    fs::path input;
    std::size_t threads = 1;
    double seconds = 1.0;
};

core::PipelineConfig pipeline_config(std::size_t threads) {
    core::PipelineConfig config;
    config.threads = threads;
    return config;
}

/// Simulates the workload once (teeing the binary writer in when the
/// workload reads bundle files) and renders the oracle's reports from the
/// simulator's own in-memory bundle and IP-to-AS tables.
std::string run_setup(const Options& options) {
    if (options.trace) obs::enable_trace();
    std::map<std::string, double> layers;
    Counts counts;
    const double t0 = now_s();

    const int scale = workload_scale(options.workload, options.tiny);
    const auto config_t = now_s();
    auto config = scenario_at(options.workload, scale, options.tiny, options.seed);
    layers["isp.config_s"] = now_s() - config_t;

    const bool writes_bundle = options.workload != Workload::CapacitySim;
    fs::create_directories(options.dir);
    std::optional<atlas::BinaryBundleWriter> writer;
    std::optional<TimedSink> timed;
    if (writes_bundle) {
        writer.emplace(options.dir.string());
        timed.emplace(*writer);
        config.bundle_sink = options.trace ? static_cast<atlas::BundleSink*>(&*timed)
                                           : &*writer;
    }
    const auto before = obs::metrics_snapshot();
    const double sim_t = now_s();
    const auto scenario = isp::run_scenario(config);
    layers["isp.run_scenario_s"] = now_s() - sim_t;
    if (writes_bundle) {
        const double close_t = now_s();
        writer->close();
        layers["atlas.sink_s"] = timed->timer.seconds() + (now_s() - close_t);
        write_context(options.dir, scenario);
    }
    layers["mem.rss_after_sim_mb"] = rss_mb();
    add_counter_deltas(counts, before, obs::metrics_snapshot(), kSimCounters);
    add_bundle_counts(counts, scenario.bundle);

    const core::AnalysisPipeline oracle(pipeline_config(options.threads));
    const auto before_oracle = obs::metrics_snapshot();
    const auto results =
        oracle.run_reference(scenario.bundle, scenario.prefix_table, scenario.registry,
                             analysis_window(options.workload, config));
    add_counter_deltas(counts, before_oracle, obs::metrics_snapshot(), kCoreCounters);
    Fnv reports;
    reports.add(render_reports(results, scenario.prefix_table, scenario.registry));
    const double setup_s = now_s() - t0;

    DabInfo dab;
    if (writes_bundle) {
        dab = dab_info(options.dir);
        counts["atlas.dab_bytes"] = double(dab.bytes);
    }
    const auto spans = options.trace ? span_totals_ms() : std::map<std::string, double>{};
    layers["isp.build_ms"] = span_ms(spans, "scenario.build");
    layers["isp.sim_run_ms"] = span_ms(spans, "scenario.sim_run");
    layers["isp.emit_ms"] = span_ms(spans, "scenario.emit");
    layers["sim.ns_per_event"] =
        counts["sim.events"] > 0 ? layers["isp.sim_run_ms"] * 1e6 / counts["sim.events"]
                                 : 0.0;

    const double days =
        double((config.window.end - config.window.begin).count()) / 86400.0;
    const std::map<std::string, double> base = {
        {"probes", double(scenario.bundle.probes.size())},
        {"sim_days", days},
        {"events", counts["sim.events"]},
        {"records", counts["atlas.records.connection"] + counts["atlas.records.kroot"] +
                        counts["atlas.records.uptime"]},
        {"dab_bytes", double(dab.bytes)},
        {"threads", double(par::resolve_threads(options.threads))},
        {"scale", double(scale)},
    };
    JsonObject out;
    out.num("setup_s", setup_s)
        .str("report_digest", reports.hex())
        .str("dab_digest", dab.digest)
        .obj("base", base)
        .obj("counts", counts);
    if (options.trace) out.obj("layers", layers);
    return out.text();
}

// -- measured passes ----------------------------------------------------------------

struct PassResult {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::string report_digest;
    std::string dab_digest;
    std::string error;
    Counts counts;
    std::map<std::string, double> layers;  ///< traced passes only
    std::vector<double> seal_us;           ///< traced streaming passes only
};

/// One pass of capacity_sim: `demo --scale N` in process.
void capacity_pass(const isp::ScenarioConfig& config, const Options& options,
                   bool traced, PassResult& pass) {
    const auto before = obs::metrics_snapshot();
    const double t0 = now_s();
    const double c0 = cpu_now_s();
    std::string reports;
    {
        const auto scenario = isp::run_scenario(config);
        const double sim_done = now_s();
        const double rss_sim = rss_mb();
        const auto mid = obs::metrics_snapshot();
        const core::AnalysisPipeline pipeline(pipeline_config(options.threads));
        const auto results = pipeline.run(scenario.bundle, scenario.prefix_table,
                                          scenario.registry, config.window);
        const double analyzed = now_s();
        const double rss_analyze = rss_mb();
        reports = render_reports(results, scenario.prefix_table, scenario.registry);
        const double rendered = now_s();
        add_counter_deltas(pass.counts, before, mid, kSimCounters);
        add_bundle_counts(pass.counts, scenario.bundle);
        if (traced) {
            pass.layers["isp.run_scenario_s"] = sim_done - t0;
            pass.layers["core.batch_run_s"] = analyzed - sim_done;
            pass.layers["report.render_s"] = rendered - analyzed;
            pass.layers["mem.rss_after_sim_mb"] = rss_sim;
            pass.layers["mem.rss_after_analyze_mb"] = rss_analyze;
        }
    }
    pass.wall_s = now_s() - t0;
    pass.cpu_s = cpu_now_s() - c0;
    pass.report_digest = [&] { Fnv f; f.add(reports); return f.hex(); }();
    if (traced) pass.layers["report.bytes"] = double(reports.size());
    add_counter_deltas(pass.counts, before, obs::metrics_snapshot(), kCoreCounters);
}

/// Streams a bundle directory through StreamingPipeline (as `analyze
/// --streaming` does) and renders the reports. Traced: the feed goes
/// through TimedFeed and the layer times land in `pass`.
std::string stream_analyze(const fs::path& dir, std::size_t threads, bool traced,
                           PassResult& pass) {
    const double t0 = now_s();
    const Context context = load_context(dir);
    const double loaded = now_s();
    core::StreamingPipeline::Options pipeline_options;
    pipeline_options.config = pipeline_config(threads);
    core::StreamingPipeline pipeline(context.table, context.registry, pipeline_options);
    pipeline.open();
    TimedFeed feed(pipeline);
    if (traced)
        atlas::stream_binary_bundle(dir.string(), feed);
    else
        core::feed_binary_bundle(pipeline, dir.string());
    const double streamed = now_s();
    const auto results = pipeline.finish();
    const double finished = now_s();
    const double rss_analyze = rss_mb();
    std::string reports = render_reports(results, context.table, context.registry);
    if (traced) {
        pass.layers["bgp.context_load_s"] = loaded - t0;
        pass.layers["core.feed_s"] = feed.feed.seconds();
        pass.layers["core.finish_s"] = finished - streamed;
        pass.layers["core.peak_buffered_records"] = double(pipeline.peak_buffered_records());
        pass.layers["mem.rss_after_analyze_mb"] = rss_analyze;
        pass.layers["report.render_s"] = now_s() - finished;
        pass.layers["stream_s"] = streamed - loaded;
        pass.layers["handler_s"] = feed.feed.seconds() + feed.seal_s;
        pass.counts["atlas.records.connection"] = double(feed.connections);
        pass.counts["atlas.records.kroot"] = double(feed.kroot);
        pass.counts["atlas.records.uptime"] = double(feed.uptime);
        pass.seal_us = std::move(feed.seal_us);
    }
    return reports;
}

/// One pass of outage_year: `simulate --format binary` then `analyze
/// --streaming` on what it wrote.
void outage_pass(const isp::ScenarioConfig& base_config, const Options& options,
                 bool traced, PassResult& pass) {
    const fs::path dir = options.dir / "pass";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto config = base_config;
    const auto before = obs::metrics_snapshot();
    const double t0 = now_s();
    const double c0 = cpu_now_s();
    {
        atlas::BinaryBundleWriter writer(dir.string());
        TimedSink timed(writer);
        config.bundle_sink = traced ? static_cast<atlas::BundleSink*>(&timed) : &writer;
        const auto scenario = isp::run_scenario(config);
        const double sim_done = now_s();
        writer.close();
        const double closed = now_s();
        write_context(dir, scenario);
        const auto mid = obs::metrics_snapshot();
        add_counter_deltas(pass.counts, before, mid, kSimCounters);
        add_bundle_counts(pass.counts, scenario.bundle);
        if (traced) {
            pass.layers["isp.run_scenario_s"] = sim_done - t0;
            pass.layers["atlas.sink_s"] = timed.timer.seconds() + (closed - sim_done);
            pass.layers["mem.rss_after_sim_mb"] = rss_mb();
        }
    }
    const auto reports = stream_analyze(dir, options.threads, traced, pass);
    pass.wall_s = now_s() - t0;
    pass.cpu_s = cpu_now_s() - c0;
    Fnv fnv;
    fnv.add(reports);
    pass.report_digest = fnv.hex();
    if (traced) pass.layers["report.bytes"] = double(reports.size());
    add_counter_deltas(pass.counts, before, obs::metrics_snapshot(), kCoreCounters);
    const DabInfo dab = dab_info(dir);
    pass.dab_digest = dab.digest;
    pass.counts["atlas.dab_bytes"] = double(dab.bytes);
    fs::remove_all(dir);
}

/// One pass of analyze_paper: `analyze --streaming` of the set-up bundle.
void analyze_pass(const Options& options, bool traced, PassResult& pass) {
    const auto before = obs::metrics_snapshot();
    const double t0 = now_s();
    const double c0 = cpu_now_s();
    const auto reports = stream_analyze(options.input, options.threads, traced, pass);
    pass.wall_s = now_s() - t0;
    pass.cpu_s = cpu_now_s() - c0;
    Fnv fnv;
    fnv.add(reports);
    pass.report_digest = fnv.hex();
    if (traced) pass.layers["report.bytes"] = double(reports.size());
    add_counter_deltas(pass.counts, before, obs::metrics_snapshot(), kCoreCounters);
}

/// Layer figures of one traced pass derived from the program's spans.
void add_span_layers(PassResult& pass) {
    const auto spans = span_totals_ms();
    auto& layers = pass.layers;
    if (layers.contains("isp.run_scenario_s")) {
        layers["isp.build_ms"] = span_ms(spans, "scenario.build");
        layers["isp.sim_run_ms"] = span_ms(spans, "scenario.sim_run");
        layers["isp.emit_ms"] = span_ms(spans, "scenario.emit");
        const double events = pass.counts["sim.events"];
        layers["sim.ns_per_event"] =
            events > 0 ? layers["isp.sim_run_ms"] * 1e6 / events : 0.0;
    }
    layers["core.stage.finalize_ms"] = span_ms(spans, "pipeline.finalize");
    layers["core.stage.periodicity_ms"] = span_ms(spans, "pipeline.periodicity");
    layers["core.stage.prefix_changes_ms"] = span_ms(spans, "pipeline.prefix_changes");
    layers["core.stage.outages_ms"] = span_ms(spans, "pipeline.outages");
    if (layers.contains("stream_s")) {
        // Decode = the reader's own span minus the time spent inside the
        // pipeline calls it made.
        const double stream_s =
            span_ms(spans, "datasets.stream_binary_bundle") / 1000.0;
        layers["atlas.decode_s"] = std::max(stream_s - layers["handler_s"], 0.0);
        layers.erase("stream_s");
        layers.erase("handler_s");
    }
}

/// ns/event of the simulator at `scale` (median of `runs` traced runs).
double ns_per_event_at(const Options& options, int scale, int runs) {
    std::vector<double> samples;
    for (int i = 0; i < runs; ++i) {
        const auto config = scenario_at(options.workload, scale, options.tiny, options.seed);
        obs::clear_trace();
        const auto scenario = isp::run_scenario(config);
        const double ms = span_ms(span_totals_ms(), "scenario.sim_run");
        if (scenario.sim_events > 0) samples.push_back(ms * 1e6 / double(scenario.sim_events));
    }
    return median(samples);
}

/// Analysis at 1 executor ÷ analysis at `options.threads` executors,
/// medians of three alternating runs each on the same bundle:
/// AnalysisPipeline::run on a fresh in-memory scenario for the capacity
/// workload, the streaming feed of the set-up bundle for the others.
double parallel_speedup(const Options& options, const isp::ScenarioConfig& config) {
    std::optional<isp::ScenarioResult> scenario;
    std::optional<Context> context;
    if (options.workload == Workload::CapacitySim)
        scenario.emplace(isp::run_scenario(config));
    else
        context.emplace(load_context(options.input));
    const auto seconds_at = [&](std::size_t threads) {
        const double t0 = now_s();
        if (scenario) {
            const core::AnalysisPipeline pipeline(pipeline_config(threads));
            const auto results = pipeline.run(scenario->bundle, scenario->prefix_table,
                                              scenario->registry, config.window);
        } else {
            core::StreamingPipeline::Options pipeline_options;
            pipeline_options.config = pipeline_config(threads);
            core::StreamingPipeline pipeline(context->table, context->registry,
                                             pipeline_options);
            pipeline.open();
            core::feed_binary_bundle(pipeline, options.input.string());
            const auto results = pipeline.finish();
        }
        return now_s() - t0;
    };
    std::vector<double> one, all;
    for (int i = 0; i < 3; ++i) {
        one.push_back(seconds_at(1));
        all.push_back(seconds_at(options.threads));
    }
    return median(one) / median(all);
}

std::string run_measure(const Options& options) {
    const int scale = workload_scale(options.workload, options.tiny);
    const double config_t = now_s();
    const auto config = scenario_at(options.workload, scale, options.tiny, options.seed);
    const double config_s = now_s() - config_t;

    std::vector<PassResult> passes;
    std::vector<double> plain_walls, traced_walls;
    const auto par_before = obs::metrics_snapshot();
    const double start = now_s();
    for (;;) {
        const double elapsed = now_s() - start;
        const bool enough_plain = !plain_walls.empty() &&
                                  (!options.trace || plain_walls.size() >= 2);
        const bool enough_traced = !options.trace || traced_walls.size() >= 2;
        if (elapsed >= options.seconds && enough_plain && enough_traced) break;
        // Traced runs alternate plain and traced passes, plain first.
        const bool traced = options.trace && plain_walls.size() > traced_walls.size();
        PassResult pass;
        if (traced) {
            obs::enable_trace();
            obs::clear_trace();
        }
        const double pass_start = now_s();
        try {
            switch (options.workload) {
                case Workload::CapacitySim: capacity_pass(config, options, traced, pass); break;
                case Workload::OutageYear: outage_pass(config, options, traced, pass); break;
                case Workload::AnalyzePaper: analyze_pass(options, traced, pass); break;
            }
            if (traced) add_span_layers(pass);
        } catch (const std::exception& error) {
            pass.error = error.what();
            pass.wall_s = now_s() - pass_start;
        }
        if (traced) obs::disable_trace();
        (traced ? traced_walls : plain_walls).push_back(pass.wall_s);
        passes.push_back(std::move(pass));
    }
    const auto par_delta = obs::metrics_diff(obs::metrics_snapshot(), par_before);
    const double peak_rss_mb = double(obs::process_peak_rss_bytes()) / (1024.0 * 1024.0);

    std::string pass_list = "[";
    for (const auto& pass : passes) {
        JsonObject p;
        p.num("wall_s", pass.wall_s)
            .num("cpu_s", pass.cpu_s)
            .str("report_digest", pass.report_digest)
            .str("dab_digest", pass.dab_digest)
            .str("error", pass.error)
            .obj("counts", pass.counts);
        pass_list += (pass_list.size() > 1 ? ", " : "") + p.text();
    }
    pass_list += "]";

    JsonObject out;
    out.raw("passes", pass_list).num("peak_rss_mb", peak_rss_mb);
    if (!options.trace) return out.text();

    // Layer figures: the median over traced passes of each figure.
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> seal_us;
    for (const auto& pass : passes) {
        if (pass.layers.empty() || !pass.error.empty()) continue;
        for (const auto& [name, value] : pass.layers) samples[name].push_back(value);
        seal_us.insert(seal_us.end(), pass.seal_us.begin(), pass.seal_us.end());
    }
    std::map<std::string, double> layers;
    for (const auto& [name, values] : samples) layers[name] = median(values);
    layers["isp.config_s"] = config_s;
    if (!seal_us.empty()) {
        layers["core.seal_us.p50"] = percentile(seal_us, 0.50);
        layers["core.seal_us.p99"] = percentile(seal_us, 0.99);
    }
    if (layers.contains("atlas.decode_s")) {
        const DabInfo dab = dab_info(options.input);
        layers["atlas.dab_bytes"] = double(dab.bytes);
        layers["atlas.decode_mb_per_s"] =
            double(dab.bytes) / 1e6 / std::max(layers["atlas.decode_s"], 1e-9);
    }
    const auto counter = [&](const char* name) {
        const auto it = par_delta.counters.find(name);
        return it == par_delta.counters.end() ? 0.0 : double(it->second);
    };
    if (counter("par.shards_executed") > 0)
        layers["par.offload_ratio"] =
            counter("par.shards_offloaded") / counter("par.shards_executed");
    layers["trace_overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0;

    // Scale growth of the event cost (capacity workload only): the same
    // preset at a tenth of the population.
    if (options.workload == Workload::CapacitySim) {
        obs::enable_trace();
        const double tenth = ns_per_event_at(options, std::max(1, scale / 10), 3);
        obs::disable_trace();
        layers["sim.ns_per_event_growth"] =
            tenth > 0 ? layers["sim.ns_per_event"] / tenth : 0.0;
    }
    layers["core.parallel_speedup"] = parallel_speedup(options, config);
    out.obj("layers", layers);
    return out.text();
}

Options parse_options(int argc, char** argv) {
    Options options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw Error("flag " + arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload_name = value();
            options.workload = parse_workload(options.workload_name);
        } else if (arg == "--seed") {
            options.seed = std::stoull(value());
        } else if (arg == "--size") {
            const auto size = value();
            if (size != "full" && size != "tiny") throw Error("bad --size " + size);
            options.tiny = size == "tiny";
        } else if (arg == "--dir") {
            options.dir = value();
        } else if (arg == "--input") {
            options.input = value();
        } else if (arg == "--threads") {
            options.threads = std::stoull(value());
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value());
        } else if (arg == "--trace") {
            options.trace = true;
        } else {
            throw Error("unknown argument " + arg);
        }
    }
    if (options.workload_name.empty() || options.dir.empty())
        throw Error("--workload and --dir are required");
    if (options.threads == 0) throw Error("--threads must be >= 1");
    return options;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) throw Error("usage: dynaddr_perf setup|measure --workload W ...");
        const std::string command = argv[1];
        const Options options = parse_options(argc, argv);
        if (command == "setup") {
            std::cout << run_setup(options) << std::endl;
        } else if (command == "measure") {
            if (options.input.empty()) throw Error("measure needs --input");
            std::cout << run_measure(options) << std::endl;
        } else {
            throw Error("unknown command " + command);
        }
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "dynaddr_perf: " << error.what() << "\n";
        return 1;
    }
}
