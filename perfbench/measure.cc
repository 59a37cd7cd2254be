#include "measure.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sys/resource.h>

namespace perfbench {

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

uint64_t
treeBytes(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::is_regular_file(path, ec))
        return fs::file_size(path, ec);
    uint64_t total = 0;
    if (!fs::is_directory(path, ec))
        return 0;
    for (const auto &entry :
         fs::recursive_directory_iterator(path, ec)) {
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    }
    return total;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

void
Digest::bytes(const void *data, size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::text(std::string_view s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
Digest::u64(uint64_t v)
{
    bytes(&v, sizeof(v));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
highest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

namespace {
volatile uint64_t probe_sink = 0;
} // namespace

double
hostProbe()
{
    static std::vector<uint32_t> table = [] {
        std::vector<uint32_t> t(1u << 16); // 256 KiB
        for (size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<uint32_t>(i * 2654435761u);
        return t;
    }();
    const uint32_t mask = static_cast<uint32_t>(table.size() - 1);
    double best = 0.0;
    uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = cpuNow();
        uint64_t x = 88172645463325252ULL;
        uint64_t acc = 0;
        for (int i = 0; i < 800000; ++i) {
            uint32_t &cell = table[(x + acc) & mask];
            acc += cell;
            cell ^= static_cast<uint32_t>(acc);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if (x & 1)
                acc += x >> 3;
        }
        sink += acc;
        const double t = cpuNow() - t0;
        best = rep == 0 ? t : std::min(best, t);
    }
    probe_sink = sink; // keeps the kernel from being optimised out
    return best;
}

int
SpanLog::open(const char *name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.begin = wallNow();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    spans_[id].end = wallNow();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanLog::clear()
{
    spans_.clear();
    stack_.clear();
}

double
SpanLog::total(std::string_view name) const
{
    double sum = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            sum += span.end - span.begin;
    return sum;
}

} // namespace perfbench
