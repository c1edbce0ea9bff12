// Minimal append-only JSON emitter for the machine-readable BENCH_*.json
// artifacts.  No DOM, no parsing — benches stream objects/arrays in the
// order they compute them, and the writer tracks nesting and commas.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace espread::exp {

/// Streaming JSON writer.  Usage:
///   JsonWriter j;
///   j.begin_object();
///   j.key("trials").value(32);
///   j.key("panels").begin_array(); ... j.end_array();
///   j.end_object();
///   write_text_file("BENCH_x.json", j.str());
///
/// Misuse (value without key inside an object, unbalanced end_*) is the
/// caller's bug; the writer keeps the output well-formed for the supported
/// call sequences only.
class JsonWriter {
public:
    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /// Emits `"name":` — must be followed by a value or begin_*.
    JsonWriter& key(std::string_view name);

    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(bool v);
    JsonWriter& value(std::string_view v);
    JsonWriter& value(const char* v) { return value(std::string_view{v}); }

    const std::string& str() const noexcept { return out_; }

private:
    void comma_if_needed();
    void append_string(std::string_view v);

    std::string out_;
    std::vector<bool> need_comma_;  // one flag per open container
};

/// Writes `content` to `path`, replacing the file.  Throws
/// std::runtime_error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace espread::exp
