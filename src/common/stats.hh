/**
 * @file
 * Byte-deterministic JSON emitter shared by the bench and report
 * writers.
 */

#ifndef SUSHI_COMMON_STATS_HH
#define SUSHI_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sushi {

/**
 * Byte-deterministic JSON emitter for bench/report files.
 *
 * One writer serves every BENCH_*.json producer so the number
 * formatting ("%.12g" doubles), indentation (two spaces per level)
 * and field ordering (insertion order, never sorted) are identical
 * across emitters — CI diffs two runs' artifacts byte-for-byte.
 *
 * Objects nested directly inside arrays are rendered inline (one row
 * per line), matching the long-standing shape of the campaign and
 * bench files:
 *
 *   {
 *     "workload": "npe_counter",
 *     "points": [
 *       {"rate": 0, "accuracy": 1},
 *       {"rate": 0.01, "accuracy": 0.9}
 *     ]
 *   }
 */
class JsonWriter
{
  public:
    JsonWriter() { out_ += "{"; }

    /** Scalar fields, insertion-ordered. */
    void field(const std::string &name, double v);
    void field(const std::string &name, bool v);
    void field(const std::string &name, std::uint64_t v);
    void field(const std::string &name, std::int64_t v);
    void field(const std::string &name, int v);
    void field(const std::string &name, const std::string &v);
    void field(const std::string &name, const char *v);

    /** Field whose value is pre-rendered JSON, spliced verbatim. */
    void rawField(const std::string &name, const std::string &json);

    /** Open / close a named array of inline-object rows. */
    void beginArray(const std::string &name);
    void endArray();

    /** Open / close one row object inside the current array. */
    void beginObject();
    void endObject();

    /** Close the root object and return the document (with final
     *  newline). The writer must not be used afterwards. */
    std::string finish();

    /** Shared double rendering: shortest round-trippable "%.12g". */
    static std::string number(double v);

    /** Write @p text to @p path; false on any I/O error. */
    static bool writeFile(const std::string &path,
                          const std::string &text);

  private:
    enum class Scope { Object, Array, Inline };

    void entry(const std::string &name);

    std::string out_;
    std::vector<std::pair<Scope, int>> stack_{{Scope::Object, 0}};
};

} // namespace sushi

#endif // SUSHI_COMMON_STATS_HH
