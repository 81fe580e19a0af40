#include "spans.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string_view>

#include "bench.h"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{0};
std::atomic<int> g_next_thread{0};

std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu

thread_local std::vector<int64_t> t_open;
thread_local int t_thread = -1;

double
now()
{
    return secondsSince(processStart());
}

int
threadIndex()
{
    if (t_thread < 0) {
        t_thread = g_next_thread.fetch_add(1);
    }
    return t_thread;
}

}  // namespace

void
enableTracing()
{
    g_enabled.store(true);
}

bool
tracingEnabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::vector<SpanRecord>
finishedSpans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_spans;
}

std::vector<double>
spanSeconds(const std::vector<SpanRecord>& spans, const char* name)
{
    std::vector<double> out;
    for (const SpanRecord& s : spans) {
        if (std::string_view(s.name) == name) {
            out.push_back(s.seconds());
        }
    }
    return out;
}

double
totalSpanSeconds(const std::vector<SpanRecord>& spans, const char* name)
{
    double total = 0.0;
    for (double s : spanSeconds(spans, name)) {
        total += s;
    }
    return total;
}

bool
writeChromeTrace(const std::string& path)
{
    const std::vector<SpanRecord> spans = finishedSpans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%lld,\"parent\":%lld,\"query\":%lld}}",
                     i == 0 ? "" : ",", s.name, s.thread, s.start * 1e6,
                     s.seconds() * 1e6, static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.query));
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char* name, int64_t query) : name_(name), query_(query)
{
    if (!tracingEnabled()) {
        return;
    }
    id_ = g_next_id.fetch_add(1);
    parent_ = t_open.empty() ? -1 : t_open.back();
    t_open.push_back(id_);
    start_ = now();
}

Span::~Span()
{
    if (id_ < 0) {
        return;
    }
    const double end = now();
    t_open.pop_back();
    SpanRecord rec;
    rec.name = name_;
    rec.start = start_;
    rec.end = end;
    rec.id = id_;
    rec.parent = parent_;
    rec.query = query_;
    rec.thread = threadIndex();
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.push_back(rec);
}

}  // namespace perfbench
