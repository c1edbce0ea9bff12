// Minimal JSON reader for the fleet-report tool.
//
// The repo's exp::JsonWriter only emits; this is its read-side
// counterpart, sized for the snapshot-series documents
// obs::telemetry::write_snapshot_series produces: objects, arrays,
// numbers, strings, booleans and null, parsed into a small DOM with
// deterministic (sorted) object iteration.  Not a general-purpose
// parser: no \u escapes beyond ASCII, numbers round-trip through
// double (exact for the counters' magnitudes) and must be finite,
// duplicate keys keep the last value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace espread::report {

class JsonValue {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    static constexpr double kTwo64 = 18446744073709551616.0;

    bool is_object() const noexcept { return type == Type::kObject; }
    bool is_array() const noexcept { return type == Type::kArray; }
    bool is_number() const noexcept { return type == Type::kNumber; }
    bool is_string() const noexcept { return type == Type::kString; }

    /// True for a number in [0, 2^64), the range as_u64 converts exactly
    /// (up to truncation of a fraction).
    bool is_u64() const noexcept {
        return type == Type::kNumber && number >= 0.0 && number < kTwo64;
    }

    /// Number as an unsigned integer: 0 for non-numbers and negatives,
    /// UINT64_MAX at or above 2^64 (never an out-of-range cast).
    std::uint64_t as_u64() const noexcept {
        if (type != Type::kNumber || !(number >= 0.0)) return 0;
        if (number >= kTwo64) return UINT64_MAX;
        return static_cast<std::uint64_t>(number);
    }

    /// Member lookup; returns null-typed sentinel for missing keys or
    /// non-objects.
    const JsonValue& at(const std::string& key) const noexcept;
};

/// Parses one JSON document.  Returns false (with *error set, when
/// non-null) on malformed input or trailing garbage.
bool parse_json(const std::string& text, JsonValue& out, std::string* error);

}  // namespace espread::report
