#include "common/stats.hh"

#include <cstdio>

namespace sushi {

namespace {

/** Minimal JSON string escaping (quotes, backslash, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
JsonWriter::entry(const std::string &name)
{
    auto &[scope, count] = stack_.back();
    if (scope == Scope::Inline) {
        // Row object: fields stay on one line.
        out_ += count > 0 ? ", " : "";
    } else {
        if (count > 0)
            out_ += ",";
        out_ += "\n";
        out_.append(2 * stack_.size(), ' ');
    }
    ++count;
    if (scope != Scope::Array) {
        out_ += "\"";
        out_ += jsonEscape(name);
        out_ += "\": ";
    }
}

void
JsonWriter::field(const std::string &name, double v)
{
    entry(name);
    out_ += number(v);
}

void
JsonWriter::field(const std::string &name, bool v)
{
    entry(name);
    out_ += v ? "true" : "false";
}

void
JsonWriter::field(const std::string &name, std::uint64_t v)
{
    entry(name);
    out_ += std::to_string(v);
}

void
JsonWriter::field(const std::string &name, std::int64_t v)
{
    entry(name);
    out_ += std::to_string(v);
}

void
JsonWriter::field(const std::string &name, int v)
{
    entry(name);
    out_ += std::to_string(v);
}

void
JsonWriter::field(const std::string &name, const std::string &v)
{
    entry(name);
    out_ += "\"";
    out_ += jsonEscape(v);
    out_ += "\"";
}

void
JsonWriter::field(const std::string &name, const char *v)
{
    field(name, std::string(v));
}

void
JsonWriter::rawField(const std::string &name, const std::string &json)
{
    entry(name);
    out_ += json;
}

void
JsonWriter::beginArray(const std::string &name)
{
    entry(name);
    out_ += "[";
    stack_.emplace_back(Scope::Array, 0);
}

void
JsonWriter::endArray()
{
    const bool had_rows = stack_.back().second > 0;
    stack_.pop_back();
    if (had_rows) {
        out_ += "\n";
        out_.append(2 * stack_.size(), ' ');
    }
    out_ += "]";
}

void
JsonWriter::beginObject()
{
    entry("");
    out_ += "{";
    stack_.emplace_back(Scope::Inline, 0);
}

void
JsonWriter::endObject()
{
    stack_.pop_back();
    out_ += "}";
}

std::string
JsonWriter::finish()
{
    out_ += "\n}\n";
    return std::move(out_);
}

std::string
JsonWriter::number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

bool
JsonWriter::writeFile(const std::string &path,
                      const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace sushi
