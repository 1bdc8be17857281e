#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>

namespace {

// Relaxed: the simulator is single-threaded; the atomic only keeps the
// counter well defined should a library thread ever allocate.
std::atomic<std::uint64_t> gHeapAllocs{0};

} // namespace

// Counting global allocation functions: every coroutine frame, closure
// and container allocation of the simulator passes through here. The
// array forms forward to these by default.
void*
operator new(std::size_t n)
{
    gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace perfbench {

std::uint64_t
heapAllocs()
{
    return gHeapAllocs.load(std::memory_order_relaxed);
}

namespace {

std::vector<double>&
calibrationSamples()
{
    static std::vector<double> samples;
    return samples;
}

double
calibrationLoopS()
{
    const std::int64_t t0 = hostNs();
    std::uint64_t x = 88172645463325252ull;
    std::map<std::uint64_t, std::uint64_t> live;
    std::vector<std::uint64_t> keys(1 << 14);
    for (std::uint64_t i = 0; i < 60000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        live[x & 0xfffff] += i;
        if (live.size() > 4096) {
            live.erase(live.begin());
        }
        keys[i % keys.size()] = x;
    }
    std::sort(keys.begin(), keys.end());
    volatile std::uint64_t sink = keys[keys.size() / 2] + live.size();
    (void)sink;
    return secondsSince(t0);
}

} // namespace

void
calibrate()
{
    double best = calibrationLoopS();
    for (int i = 0; i < 2; ++i) {
        best = std::min(best, calibrationLoopS());
    }
    calibrationSamples().push_back(best);
}

double
hostScale()
{
    const std::vector<double>& s = calibrationSamples();
    return s.empty() ? 1.0 : kCalibrationRefS / median(s);
}

std::uint64_t
counterValue(const mscclpp::obs::MetricsRegistry& reg,
             const std::string& name)
{
    auto it = reg.counters().find(name);
    return it == reg.counters().end() ? 0 : it->second.value();
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty()) {
        return 0;
    }
    double logSum = 0;
    for (double x : v) {
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

bool
sameBits(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i])) {
            return false;
        }
    }
    return true;
}

std::uint64_t
OpCounts::attempted() const
{
    std::uint64_t n = 0;
    for (const auto& [name, p] : phases) {
        n += p.attempted;
    }
    return n;
}

std::uint64_t
OpCounts::failed() const
{
    std::uint64_t n = 0;
    for (const auto& [name, p] : phases) {
        n += p.failed;
    }
    return n;
}

SpanLog&
spans()
{
    static SpanLog log;
    return log;
}

int
SpanLog::begin(const std::string& name, double virtUs)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.virtBeginUs = virtUs;
    s.hostBegin = hostNs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanLog::end(int id, double virtUs)
{
    Span& s = spans_.at(id);
    s.hostEnd = hostNs();
    s.virtEndUs = virtUs;
    if (!stack_.empty() && stack_.back() == id) {
        stack_.pop_back();
    }
}

void
SpanLog::virtualSpan(const std::string& name, long request,
                     double virtBeginUs, double virtEndUs)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.hostBegin = s.hostEnd = hostNs();
    s.virtBeginUs = virtBeginUs;
    s.virtEndUs = virtEndUs;
    spans_.push_back(std::move(s));
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    // Children run strictly inside their parent on one thread, so the
    // covered part of a parent is the sum of its children's durations.
    std::vector<double> childNs(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            childNs[s.parent] += static_cast<double>(s.hostEnd - s.hostBegin);
        }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        Totals& t = out[s.name];
        const double dur = static_cast<double>(s.hostEnd - s.hostBegin);
        t.count++;
        t.hostNs += dur;
        t.selfNs += dur - childNs[i];
        t.virtUs += s.virtEndUs - s.virtBeginUs;
    }
    return out;
}

void
SpanLog::writeJson(const std::string& path) const
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    f << "{\"schema\": \"perfbench.spans\", \"version\": 1, \"spans\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                      "\"request\": %ld, \"host_begin_ns\": %lld, "
                      "\"host_end_ns\": %lld, \"virt_begin_us\": %.6f, "
                      "\"virt_end_us\": %.6f}%s\n",
                      i, s.parent, s.name.c_str(), s.request,
                      static_cast<long long>(s.hostBegin),
                      static_cast<long long>(s.hostEnd), s.virtBeginUs,
                      s.virtEndUs, i + 1 < spans_.size() ? "," : "");
        f << buf;
    }
    f << "]}\n";
}

std::unique_ptr<gpu::Machine>
makeMachine(const fab::EnvConfig& env, int nodes, gpu::DataMode mode)
{
    auto m = std::make_unique<gpu::Machine>(env, nodes, mode);
    m->obs().setDumpOnDestroy(false);
    return m;
}

} // namespace perfbench
