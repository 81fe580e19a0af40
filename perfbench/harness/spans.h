#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/**
 * @file
 * The benchmark's own span recorder. Spans wrap calls into the
 * library's public functions from the harness's side (the library is
 * not instrumented for this). Each span keeps its name, start, end,
 * the span that was open on the same thread when it began (its
 * parent) and the query it belongs to. Spans are kept in memory and
 * written out as Chrome-trace JSON when the run ends. With tracing off
 * a Span does nothing, not even read the clock.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One finished span. Times are seconds since process start. */
struct SpanRecord {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int64_t id = 0;
    int64_t parent = -1;  ///< -1: no enclosing span on that thread
    int64_t query = -1;   ///< -1: not part of a query
    int thread = 0;

    double seconds() const { return end - start; }
};

/** Turn recording on for the rest of the process. */
void enableTracing();
bool tracingEnabled();

/** Snapshot of every finished span, in completion order. */
std::vector<SpanRecord> finishedSpans();

/** Durations (seconds) of every finished span called @c name. */
std::vector<double> spanSeconds(const std::vector<SpanRecord>& spans,
                                const char* name);

/** Sum of spanSeconds(). */
double totalSpanSeconds(const std::vector<SpanRecord>& spans,
                        const char* name);

/** Write every finished span as Chrome-trace JSON; false on I/O error. */
bool writeChromeTrace(const std::string& path);

/** RAII span; @c name must be a string literal. */
class Span
{
  public:
    explicit Span(const char* name, int64_t query = -1);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    const char* name_;
    int64_t query_;
    int64_t id_ = -1;  ///< -1 when tracing is off
    int64_t parent_ = -1;
    double start_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
