#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void
Outcome::fail(const std::string& why, uint64_t ops)
{
    constexpr uint64_t kPrinted = 10;  // later failures are only counted
    if (failed < kPrinted) {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
    }
    failed += ops;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least q of the samples
    // at or below it.
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    return values[idx];
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
tailQuantile(size_t n)
{
    if (n <= 10) {
        return 1.0;
    }
    return std::min(0.99, static_cast<double>(n - 10) /
                              static_cast<double>(n));
}

double
peakRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int
currentThreadCount()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
        return 0;
    }
    char line[256];
    int threads = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "Threads:", 8) == 0) {
            threads = std::atoi(line + 8);
            break;
        }
    }
    std::fclose(f);
    return threads;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
fnv1a(const void* data, size_t bytes, uint64_t h)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

}  // namespace perfbench
