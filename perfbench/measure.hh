/**
 * @file
 * Measurement helpers for the reference benchmark driver: clocks,
 * resource gauges, an output digest, order statistics, and the
 * benchmark-side span log that times each call into the library's
 * public API during a traced pass.
 */

#ifndef DEJAVUZZ_PERFBENCH_MEASURE_HH
#define DEJAVUZZ_PERFBENCH_MEASURE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Monotonic wall-clock seconds. */
double wallNow();
/** CPU seconds consumed by the whole process (all threads). */
double cpuNow();
/** Peak resident set size of this process so far, in MB (2^20). */
double peakRssMb();
/** Bytes in the regular files under @p path (0 if absent). */
uint64_t treeBytes(const std::string &path);
/** Read a whole file; empty string when it cannot be read. */
std::string slurp(const std::string &path);

/** FNV-1a 64 over everything fed to it; order-sensitive. */
class Digest
{
  public:
    void bytes(const void *data, size_t size);
    void text(std::string_view s);
    void u64(uint64_t v);
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);
/** Largest element of @p v (0 for an empty vector). */
double highest(const std::vector<double> &v);

/**
 * Host speed probe: CPU seconds of the fastest of five runs of a
 * fixed kernel (random read-modify-write over 256 KiB with integer
 * hashing and a data-dependent branch). Independent of the library,
 * so a change to the program never moves it; a neighbour on the host
 * that slows the program slows it too.
 */
double hostProbe();

/** hostProbe() on the quiet host the benchmark was tuned on. */
inline constexpr double kProbeReference = 0.0059;

/** Wall/CPU stopwatch started at construction. */
struct Stopwatch
{
    double wall0 = wallNow();
    double cpu0 = cpuNow();

    double wall() const { return wallNow() - wall0; }
    double cpu() const { return cpuNow() - cpu0; }
};

/**
 * Benchmark-side spans around public calls. Spans nest by call
 * structure (the innermost open span is the parent); when disabled,
 * open()/close() cost one branch and nothing is recorded.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double begin = 0.0;
        double end = 0.0;
    };

    void enable(bool on) { enabled_ = on; }
    int open(const char *name);
    void close(int id);
    void clear();
    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of every span named @p name. */
    double total(std::string_view name) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    bool enabled_ = false;
};

/** RAII scope for SpanLog::open/close. */
class BenchSpan
{
  public:
    BenchSpan(SpanLog &log, const char *name)
        : log_(log), id_(log.open(name))
    {}
    ~BenchSpan() { log_.close(id_); }
    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // DEJAVUZZ_PERFBENCH_MEASURE_HH
