#include "exp/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace espread::exp {

void JsonWriter::comma_if_needed() {
    if (need_comma_.empty()) return;
    if (need_comma_.back()) {
        out_ += ',';
    } else {
        need_comma_.back() = true;
    }
}

JsonWriter& JsonWriter::begin_object() {
    comma_if_needed();
    out_ += '{';
    need_comma_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    out_ += '}';
    need_comma_.pop_back();
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    comma_if_needed();
    out_ += '[';
    need_comma_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    out_ += ']';
    need_comma_.pop_back();
    return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
    comma_if_needed();
    append_string(name);
    out_ += ':';
    // The separating comma (if any) was emitted for the key; the paired
    // value must not add another.
    need_comma_.back() = false;
    return *this;
}

JsonWriter& JsonWriter::value(double v) {
    comma_if_needed();
    if (!std::isfinite(v)) {
        out_ += "null";  // JSON has no Inf/NaN
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
    comma_if_needed();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
    comma_if_needed();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter& JsonWriter::value(bool v) {
    comma_if_needed();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
    comma_if_needed();
    append_string(v);
    return *this;
}

void JsonWriter::append_string(std::string_view v) {
    out_ += '"';
    for (const char c : v) {
        switch (c) {
            case '"': out_ += "\\\""; break;
            case '\\': out_ += "\\\\"; break;
            case '\n': out_ += "\\n"; break;
            case '\r': out_ += "\\r"; break;
            case '\t': out_ += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out_ += buf;
                } else {
                    out_ += c;
                }
        }
    }
    out_ += '"';
}

void write_text_file(const std::string& path, const std::string& content) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) throw std::runtime_error("write_text_file: cannot open " + path);
    f.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!f) throw std::runtime_error("write_text_file: write failed for " + path);
}

}  // namespace espread::exp
