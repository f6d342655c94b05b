/**
 * @file
 * Repository benchmark driver.
 *
 *   sushi_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--trace-out <path>]
 *
 * Workloads: serve_real_batched, serve_virtual_sparse, gate_cosim
 * (README.md says what each measures and why). Prints one line of run
 * environment as JSON, then, as the last line, the result object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 the per-layer ones,
 * and the spans go to --trace-out as Chrome trace-event JSON. Exits
 * non-zero when any correctness gate fails.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"
#include "build_info.hh"
#include "common/parallel.hh"

namespace {

using namespace perfbench;

/** The worker-pool width every run pins (capped at the host's cores),
 *  so training and batch fan-out are comparable across hosts. */
constexpr unsigned kPoolWidth = 2;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: sushi_perfbench --workload "
                 "<serve_real_batched|serve_virtual_sparse|gate_cosim> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            if (!o.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == v))
            usage(("bad number for " + a).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/** Escape-free JSON string (names and build strings are plain). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s)
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 32)
            out += c;
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Build, ISA and host record every result carries. */
std::string
environmentJson(const Options &o, long nproc)
{
    __builtin_cpu_init();
    std::string s = "{";
    s += "\"workload\":" + quoted(o.workload);
    s += ",\"seed\":" + std::to_string(o.seed);
    s += ",\"seconds\":" + number(o.seconds);
    s += ",\"compiler\":" + quoted(PERFBENCH_CXX_ID " " PERFBENCH_CXX_VERSION);
    s += ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE);
    s += ",\"cxx_flags\":" + quoted(PERFBENCH_CXX_FLAGS);
#ifdef __POPCNT__
    s += ",\"compiled_popcnt\":true";
#else
    s += ",\"compiled_popcnt\":false";
#endif
#ifdef __AVX2__
    s += ",\"compiled_avx2\":true";
#else
    s += ",\"compiled_avx2\":false";
#endif
    s += std::string(",\"cpu_popcnt\":") +
         (__builtin_cpu_supports("popcnt") ? "true" : "false");
    s += std::string(",\"cpu_avx2\":") +
         (__builtin_cpu_supports("avx2") ? "true" : "false");
    s += std::string(",\"cpu_avx512vpopcntdq\":") +
         (__builtin_cpu_supports("avx512vpopcntdq") ? "true" : "false");
    s += ",\"nproc\":" + std::to_string(nproc);
    s += ",\"pool_width\":" + std::to_string(o.pool_width);
    return s + "}";
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::string s = "{";
    for (const auto &[name, m] : metrics) {
        if (s.size() > 1)
            s += ",";
        s += quoted(name) + ":{\"value\":" + number(m.value) +
             ",\"unit\":" + quoted(m.unit) + "}";
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    // Pin the worker pool before anything sizes it.
    const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    const unsigned width =
        std::min<unsigned>(kPoolWidth, static_cast<unsigned>(nproc));
    setenv("SUSHI_WORKERS", std::to_string(width).c_str(), 1);
    opt.pool_width = sushi::parallelWorkers();

    Tracer tracer(opt.trace);
    Report report;
    if (opt.workload == "serve_real_batched")
        runServeRealBatched(opt, tracer, report);
    else if (opt.workload == "serve_virtual_sparse")
        runServeVirtualSparse(opt, tracer, report);
    else if (opt.workload == "gate_cosim")
        runGateCosim(opt, tracer, report);
    else
        usage(("unknown workload " + opt.workload).c_str());

    report.e2e("peak_rss_mb", peakRssMb(), "MB");
    auto &metrics = opt.trace ? report.per_layer : report.end_to_end;
    if (opt.trace)
        report.layer("trace.spans", static_cast<double>(tracer.spans()),
                     "count");
    for (const auto &[name, m] : metrics)
        report.gate(std::isfinite(m.value), name + " is not finite");

    const std::string env = environmentJson(opt, nproc);
    std::printf("{\"env\":%s}\n", env.c_str());
    if (opt.trace && !opt.trace_out.empty() &&
        !tracer.write(opt.trace_out,
                      "{\"env\":" + env +
                          ",\"metrics\":" + metricsJson(metrics) + "}"))
        report.gate(false, "cannot write trace " + opt.trace_out);
    for (const auto &v : report.violations)
        std::fprintf(stderr, "correctness gate failed: %s\n", v.c_str());

    const bool correct = report.violations.empty();
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metricsJson(metrics).c_str());
    return correct ? 0 : 1;
}
