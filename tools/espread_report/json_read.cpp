#include "json_read.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace espread::report {
namespace {

const JsonValue kNullValue{};

/// Recursive-descent parser over [pos, text.size()).  Depth-bounded so a
/// hostile file cannot blow the stack.
class Parser {
public:
    Parser(const std::string& text, std::string* error)
        : text_(text), error_(error) {}

    bool parse(JsonValue& out) {
        if (!parse_value(out, 0)) return false;
        skip_ws();
        if (pos_ != text_.size()) return fail("trailing characters");
        return true;
    }

private:
    static constexpr std::size_t kMaxDepth = 64;

    bool fail(const char* what) {
        if (error_ != nullptr) {
            *error_ = std::string(what) + " at byte " + std::to_string(pos_);
        }
        return false;
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool literal(const char* word) {
        for (const char* p = word; *p != '\0'; ++p, ++pos_) {
            if (pos_ >= text_.size() || text_[pos_] != *p) {
                return fail("bad literal");
            }
        }
        return true;
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size()) return fail("bad escape");
                char e = text_[pos_++];
                switch (e) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'n': out.push_back('\n'); break;
                    case 't': out.push_back('\t'); break;
                    case 'r': out.push_back('\r'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    default: return fail("unsupported escape");
                }
            } else {
                out.push_back(c);
            }
        }
        if (pos_ >= text_.size()) return fail("unterminated string");
        ++pos_;  // closing quote
        return true;
    }

    bool parse_value(JsonValue& out, std::size_t depth) {
        if (depth > kMaxDepth) return fail("nesting too deep");
        skip_ws();
        if (pos_ >= text_.size()) return fail("unexpected end");
        const char c = text_[pos_];
        if (c == '{') {
            out.type = JsonValue::Type::kObject;
            ++pos_;
            skip_ws();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skip_ws();
                if (pos_ >= text_.size() || text_[pos_] != '"') {
                    return fail("expected object key");
                }
                std::string key;
                if (!parse_string(key)) return false;
                skip_ws();
                if (pos_ >= text_.size() || text_[pos_] != ':') {
                    return fail("expected ':'");
                }
                ++pos_;
                JsonValue member;
                if (!parse_value(member, depth + 1)) return false;
                out.object[key] = std::move(member);
                skip_ws();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            out.type = JsonValue::Type::kArray;
            ++pos_;
            skip_ws();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue element;
                if (!parse_value(element, depth + 1)) return false;
                out.array.push_back(std::move(element));
                skip_ws();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.type = JsonValue::Type::kString;
            return parse_string(out.string);
        }
        if (c == 't') {
            out.type = JsonValue::Type::kBool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.type = JsonValue::Type::kBool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.type = JsonValue::Type::kNull;
            return literal("null");
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            const std::size_t start = pos_;
            while (pos_ < text_.size() &&
                   (text_[pos_] == '-' || text_[pos_] == '+' ||
                    text_[pos_] == '.' || text_[pos_] == 'e' ||
                    text_[pos_] == 'E' ||
                    (text_[pos_] >= '0' && text_[pos_] <= '9'))) {
                ++pos_;
            }
            const std::string token = text_.substr(start, pos_ - start);
            char* end = nullptr;
            out.type = JsonValue::Type::kNumber;
            out.number = std::strtod(token.c_str(), &end);
            if (end == nullptr || *end != '\0') return fail("bad number");
            if (!std::isfinite(out.number)) return fail("number out of range");
            return true;
        }
        return fail("unexpected character");
    }

    const std::string& text_;
    std::string* error_;
    std::size_t pos_ = 0;
};

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const noexcept {
    if (type != Type::kObject) return kNullValue;
    const auto it = object.find(key);
    return it == object.end() ? kNullValue : it->second;
}

bool parse_json(const std::string& text, JsonValue& out, std::string* error) {
    out = JsonValue{};
    Parser p(text, error);
    return p.parse(out);
}

}  // namespace espread::report
